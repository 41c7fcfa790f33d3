import numpy as np
import pytest

from fraclayer.panels import gauss_rule, panel_integrals


@pytest.mark.parametrize("n", [2, 5, 12, 24, 64])
def test_panel_integrals_exact_to_degree_2n_minus_1(n):
    a = np.array([0.0, 0.5, 1.0])
    b = np.array([0.5, 1.0, 1.25])
    calls = []
    for k in range(2 * n):
        def f(x, k=k):
            calls.append(x.shape)
            return x ** k
        exact = (b ** (k + 1) - a ** (k + 1)) / (k + 1)
        got = panel_integrals(f, a, b, n)
        assert got.shape == a.shape
        np.testing.assert_allclose(got, exact, rtol=1e-13, atol=0.0)
    # one vectorised call per integral, on the (panels, nodes) array
    assert calls == [(3, n)] * (2 * n)


def test_panel_integrals_not_exact_past_degree_2n_minus_1():
    got = panel_integrals(lambda x: x ** 4, 0.0, 1.0, 2)
    assert abs(got - 0.2) > 1e-3


def test_cached_rule_is_read_only():
    t, w = gauss_rule(12)
    assert gauss_rule(12)[0] is t and gauss_rule(12)[1] is w
    assert not t.flags.writeable and not w.flags.writeable
    with pytest.raises(ValueError):
        t[0] = 0.0
    with pytest.raises(ValueError):
        w[0] = 0.0
