import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from scipy.optimize import brentq

from fraclayer import analysis
from fraclayer.analysis import (brent_root, envelope_exponents, fd_derivative,
                                fit_power_decay)
from fraclayer.errors import FracLayerError, NotBracketed, RootNotConverged


def test_exact_power_law():
    x = np.geomspace(1.0, 100.0, 10)
    fit = fit_power_decay(np.column_stack([x, 3.0 * x ** -0.7]))
    assert fit.exponent == pytest.approx(0.7, abs=1e-12)
    assert np.exp(fit.log_const) == pytest.approx(3.0, rel=1e-12)
    assert fit.residual < 1e-12


def test_log_periodic_wobble_fit():
    x = np.geomspace(1.0, 1e4, 60)
    v = x ** -0.5 * (1.0 + 0.01 * np.sin(np.log(x)))
    fit = fit_power_decay(np.column_stack([x, v]))
    assert fit.exponent == pytest.approx(0.5, abs=0.01)


def test_preconditions():
    x = np.geomspace(1.0, 2.0, 10)      # less than a decade
    with pytest.raises(ValueError):
        fit_power_decay(np.column_stack([x, x ** -1.0]))
    with pytest.raises(ValueError):
        fit_power_decay(np.column_stack([x[:3], x[:3]]))


@settings(max_examples=50, deadline=None)
@given(st.floats(0.1, 3.0), st.floats(0.1, 10.0), st.floats(0.5, 5.0))
def test_fit_scale_equivariance(p, cv, cx):
    x = np.geomspace(1.0, 1e3, 24)
    base = fit_power_decay(np.column_stack([x, x ** -p]))
    scaled_v = fit_power_decay(np.column_stack([x, cv * x ** -p]))
    assert scaled_v.exponent == pytest.approx(base.exponent, abs=1e-9)
    scaled_x = fit_power_decay(np.column_stack([cx * x, (cx * x) ** -p]))
    assert scaled_x.exponent == pytest.approx(p, abs=1e-9)


def test_envelopes_non_oscillatory_agree():
    x = np.geomspace(1.0, 1e4, 200)
    v = np.column_stack([x, np.log(x ** -0.25)])
    up = envelope_exponents(v, "upper")
    lo = envelope_exponents(v, "lower")
    assert up.exponent == pytest.approx(0.25, abs=1e-6)
    assert lo.exponent == pytest.approx(0.25, abs=1e-6)


def test_envelopes_two_power_oscillation():
    x = np.geomspace(1.0, 1e8, 400)
    # alternate smoothly between x^-0.25 and x^-0.2 envelopes
    mix = 0.5 * (1.0 + np.sin(0.9 * np.log(x)))
    lv = mix * np.log(x ** -0.25) + (1 - mix) * np.log(2 * x ** -0.2)
    lo = envelope_exponents(np.column_stack([x, lv]), "lower")
    up = envelope_exponents(np.column_stack([x, lv]), "upper")
    assert lo.exponent == pytest.approx(0.25, abs=0.02)
    assert up.exponent == pytest.approx(0.2, abs=0.02)


def test_envelope_needs_extrema(monkeypatch):
    x = np.geomspace(1.0, 20.0, 40)
    monkeypatch.setattr(analysis, "ENVELOPE_WINDOW_DECADES", 5.0)
    with pytest.raises(ValueError):
        envelope_exponents(np.column_stack([x, np.log(x ** -0.5)]), "upper")


def test_fd_polynomial_exactness():
    f = lambda t: t ** 3
    v6 = lambda t: t ** 6 - 3 * t ** 4 + t
    for x in (2.0, np.array([-1.5, 0.25, 2.0, 3.0])):
        h0 = 1e-3 * (1.0 + np.abs(x))
        v, e = fd_derivative(f, x, 2, h0)
        assert np.allclose(v, 6.0 * x, rtol=0.0, atol=1e-8)
        assert np.all(np.abs(v - 6.0 * x) <= e + 1e-9)
        for order, ref in ((1, 6 * x ** 5 - 12 * x ** 3 + 1),
                           (3, 120 * x ** 3 - 72 * x),
                           (4, 360 * x ** 2 - 72)):
            v, e = fd_derivative(v6, x, order, h0)
            assert np.all(np.abs(v - ref)
                          <= np.maximum(e * 4, 1e-7 * np.abs(ref)))


def test_fd_sine():
    v, e = fd_derivative(np.sin, 0.0, 1, 1e-3)
    assert v == pytest.approx(1.0, abs=1e-10)


def _fd_loop_reference(f, x, order, h0):
    """The scalar loop `fd_derivative` replaced: each stencil point is one
    call of f on a float."""
    stencil, p = {1: ({-1: -0.5, 1: 0.5}, 1),
                  2: ({-1: 1.0, 0: -2.0, 1: 1.0}, 2),
                  3: ({-2: -0.5, -1: 1.0, 1: -1.0, 2: 0.5}, 3),
                  4: ({-2: 1.0, -1: -4.0, 0: 6.0, 1: -4.0, 2: 1.0}, 4)}[order]

    def central(h):
        acc = 0.0
        for k, c in stencil.items():
            acc += c * f(x + k * h)
        return acc / h ** p

    d1, d2, d3 = central(h0), central(h0 / 2.0), central(h0 / 4.0)
    r1 = (4.0 * d2 - d1) / 3.0
    r2 = (4.0 * d3 - d2) / 3.0
    r = (16.0 * r2 - r1) / 15.0
    eps = np.finfo(float).eps
    floor = 8.0 * eps * sum(abs(c) for c in stencil.values()) \
        * abs(float(f(x))) / (h0 / 4.0) ** order
    return r, abs(r - r2) + floor + eps * abs(r)


@pytest.mark.parametrize("order", [1, 2, 3, 4])
def test_fd_array_call_equals_scalar_loop_bitwise(order):
    """One call on arrays x and h0, or on array x with the step
    1e-3 (1 + |x|), calls f once and returns, bit for bit, what the scalar
    loop returns at each point, and so does a scalar call."""
    f = lambda t: np.exp(np.sin(3.0 * t)) / (1.0 + t * t)
    rng = np.random.default_rng(order)
    x = rng.uniform(-3.0, 3.0, 40).reshape(8, 5)
    h0 = 10.0 ** rng.uniform(-5.0, -1.0, x.shape)
    calls = []
    for step in (h0, 1e-3 * (1.0 + np.abs(x))):
        v, e = fd_derivative(lambda t: calls.append(t.shape) or f(t), x,
                             order, step)
        assert v.shape == e.shape == x.shape
        for i in np.ndindex(x.shape):
            hi = float(step[i])
            ref = _fd_loop_reference(lambda t: float(f(t)), float(x[i]),
                                     order, hi)
            got = fd_derivative(f, x[i], order, hi)
            for vals in ((v[i], e[i]), got):
                assert [float(u).hex() for u in vals] == [
                    float(u).hex() for u in ref]
    # x and the order + 1 stencil points of each of the three levels
    assert calls == [(1 + 3 * (order + 1),) + x.shape] * 2


# smooth functions with their root-containing bracket; tlogt is
# construction.threshold_params's equation
BRENT_CASES = {
    "cubic": (lambda x: x ** 3 - 2.0 * x - 5.0, (1.5, 3.0)),
    "cos": (lambda x: math.cos(x) - x, (-1.0, 2.0)),
    "exp": (lambda x: math.exp(x) - 3.0, (-2.0, 4.0)),
    "atan": (lambda x: math.atan(5.0 * (x - 0.3)), (-3.0, 4.0)),
    "tlogt": (lambda t: t * math.log(t) - 0.7, (1.0 + 1e-15, 3.0)),
}


@pytest.mark.parametrize("name", sorted(BRENT_CASES))
def test_brent_root_matches_scipy_brentq_bitwise(name):
    """On 50 seeded brackets around the root, at three tolerances, with and
    without the known end values, the port returns scipy's root bit for
    bit."""
    f, (lo, hi) = BRENT_CASES[name]
    root = brentq(f, lo, hi, xtol=1e-15)
    rng = np.random.default_rng(sorted(BRENT_CASES).index(name))
    for _ in range(50):
        a = lo + (root - lo) * rng.uniform()
        b = root + (hi - root) * rng.uniform()
        if rng.uniform() < 0.5:
            a, b = b, a
        for xtol in (1e-12, 2e-12, 4.0 * np.finfo(float).eps * abs(b)):
            ref = brentq(f, a, b, xtol=xtol)
            plain, known = [], []
            assert brent_root(lambda x: plain.append(x) or f(x), a, b,
                              xtol).hex() == ref.hex()
            assert brent_root(lambda x: known.append(x) or f(x), a, b, xtol,
                              fa=f(a), fb=f(b)).hex() == ref.hex()
            # the known end values replace exactly the first two calls
            assert plain[:2] == [a, b] and known == plain[2:]


def test_brent_root_without_sign_change_is_a_typed_error():
    with pytest.raises(NotBracketed, match="same sign"):
        brent_root(lambda x: x * x + 1.0, -1.0, 2.0)
    assert issubclass(NotBracketed, FracLayerError)
    assert not issubclass(NotBracketed, ValueError)


def test_brent_root_out_of_iterations_is_a_typed_error():
    """sign(x) on [-1, 2] at xtol 1e-300 needs about 1000 bisections."""
    with pytest.raises(RootNotConverged, match="100 iterations"):
        brent_root(lambda x: float(np.sign(x)), -1.0, 2.0, 1e-300)
    assert issubclass(RootNotConverged, FracLayerError)
    assert not issubclass(RootNotConverged, RuntimeError)
