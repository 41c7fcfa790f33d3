import math

import numpy as np
import pytest

from fraclayer.kernels import (KernelSpec, fractional_kernel,
                               perturbed_kernel, symbol_constant)


def test_validation():
    with pytest.raises(ValueError):
        KernelSpec(s=1.2)
    with pytest.raises(ValueError):
        KernelSpec(s=0.5, lam=2.0, Lam=1.0)
    with pytest.raises(ValueError):
        KernelSpec(s=0.5, form="tabulated-perturbation")
    with pytest.raises(ValueError):
        KernelSpec(s=0.5, scale=2.0)


def test_symmetry_and_ellipticity():
    zs = np.concatenate([np.geomspace(1e-6, 1e6, 200),
                         -np.geomspace(1e-6, 1e6, 200)])
    for kern in (fractional_kernel(0.3),
                 perturbed_kernel(0.7, 0.5, 2.0, wobble=0.9)):
        kv = kern.k(zs)
        assert np.array_equal(kv, kern.k(-zs))
        base = np.abs(zs) ** (-1.0 - 2.0 * kern.s)
        assert np.all(kern.lam * base - kv <= 1e-12)
        assert np.all(kv - kern.Lam * base <= 1e-12)


def test_interval_integral_fractional():
    kern = fractional_kernel(0.25)
    a, b = 0.5, 7.0
    # antiderivative of z^(-1.5) is -2 z^(-0.5)
    exact = 2.0 * (a ** -0.5 - b ** -0.5)
    assert kern.interval_integral(a, b) == pytest.approx(exact, rel=1e-14)
    assert kern.tail_integral(a) == pytest.approx(2.0 * a ** -0.5, rel=1e-14)


def test_interval_integral_perturbed_brackets():
    kern = perturbed_kernel(0.5, 0.5, 2.0)
    frac = fractional_kernel(0.5)
    v = kern.interval_integral(1.0, 10.0)
    base = frac.interval_integral(1.0, 10.0)
    assert 0.5 * base <= v <= 2.0 * base
    t = kern.tail_integral(3.0)
    assert 0.5 * frac.tail_integral(3.0) <= t <= 2.0 * frac.tail_integral(3.0)


def test_second_moment():
    kern = fractional_kernel(0.5)
    assert kern.second_moment_integral(0.1) == pytest.approx(0.1, rel=1e-14)


def test_symbol_constant_closed_form():
    import mpmath

    for s in (0.1, 0.25, 0.5, 0.75, 0.9):
        got = symbol_constant(s)
        with mpmath.workdps(30):
            a = 2 * mpmath.mpf(s)
            ref = mpmath.pi / 2 if abs(a - 1) < 1e-14 else \
                -mpmath.gamma(-a) * mpmath.cos(mpmath.pi * a / 2)
            ref = float(2 * ref)
        assert got == pytest.approx(ref, rel=1e-10)


@pytest.mark.parametrize("kern", [fractional_kernel(0.3),
                                  fractional_kernel(0.8)])
def test_power_tail_integral_at_zero_closed_form(kern):
    p = 1.7
    q = p + 2.0 * kern.s
    for Z in (2.5, np.geomspace(0.5, 1e6, 7)):
        for sign in (1.0, -1.0):
            got = kern.power_tail_integral(Z, 0.0, p, sign)
            assert np.shape(got) == np.shape(Z)
            np.testing.assert_allclose(got, np.asarray(Z) ** (-q) / q,
                                       rtol=1e-13)


def _brute_power_tail(kern, Z, x, p, sign):
    # midpoint sum in t = ln(z / Z), dense enough for 1e-7; the tail past
    # t = 60 is below exp(-60 (p + 2s)) of the total
    h = 60.0 / 400000
    t = (np.arange(400000) + 0.5) * h
    z = Z * np.exp(t)
    return float(np.sum(np.abs(x + sign * z) ** (-p) * kern.k(z) * z) * h)


# the one 24-node panel resolves the power kernel to ~6e-6 at Z/|x| >= 2.5,
# but not the log-periodic multiplier of the perturbed kernel (~3e-4)
@pytest.mark.parametrize("kern,rel", [
    (fractional_kernel(0.4), 2e-5),
    (perturbed_kernel(0.4, 0.5, 2.0, wobble=0.9), 1e-3)])
def test_power_tail_integral_off_zero_matches_brute_force(kern, rel):
    p = 1.3
    for x in (3.0, -3.0, 40.0):
        for sign in (1.0, -1.0):
            Z = 10.0 if abs(x) < 10.0 else 100.0
            ref = _brute_power_tail(kern, Z, x, p, sign)
            assert kern.power_tail_integral(Z, x, p, sign) == \
                pytest.approx(ref, rel=rel)
    # vectorised in Z and x alike
    Zs = np.array([10.0, 20.0, 400.0])
    xs = np.array([3.0, -3.0, 40.0])
    got = kern.power_tail_integral(Zs, xs, p, -1.0)
    each = [kern.power_tail_integral(Z, x, p, -1.0) for Z, x in zip(Zs, xs)]
    np.testing.assert_allclose(got, each, rtol=1e-14)


def _perturbed_mass(kern, a, b=None):
    """integral of K over [a, b] (b = inf when None) to 30 digits: with
    m(z) = mid + amp cos(ln z) and p = 2s, the mass beyond a is
    mid a^(-p)/p + amp a^(-p) (p cos ln a - sin ln a) / (p^2 + 1)."""
    import mpmath

    mid = 0.5 * (kern.lam + kern.Lam)
    amp = float(kern.k(1.0)) - mid          # m(1) = mid + amp

    def beyond(z):
        z = mpmath.mpf(z)
        lz = mpmath.log(z)
        return z ** -p * (mid / p + amp * (p * mpmath.cos(lz)
                                           - mpmath.sin(lz)) / (p * p + 1))

    with mpmath.workdps(30):
        p = 2 * mpmath.mpf(kern.s)
        return np.array([float(beyond(ai) - (0 if b is None else beyond(bi)))
                         for ai, bi in np.broadcast(a, a if b is None else b)
                         ]).reshape(np.shape(a))


@pytest.mark.parametrize("s", [0.1, 0.25, 0.5, 0.75, 0.9])
def test_perturbed_kernel_tails_match_the_closed_form(s):
    """tail_integral and interval_integral, scalar and vector, for a from
    1e-3 to 1e9 (interval_integral on the ladder's rungs [a, 4a]): rel
    1e-13 or abs 1e-18. At s = 0.1 a ladder capped at 40 rungs stopped
    short of its rule and erred by 4e-6."""
    kern = perturbed_kernel(s, 0.5, 1.5)
    a = np.geomspace(1e-3, 1e9, 25)

    def close(got, want):
        assert np.shape(got) == np.shape(want)
        err = np.abs(got - want)
        assert np.all((err <= 1e-13 * np.abs(want)) | (err <= 1e-18)), \
            np.max(err / np.abs(want))

    close(kern.tail_integral(a), _perturbed_mass(kern, a))
    for ai in a[::6]:
        close(kern.tail_integral(ai), _perturbed_mass(kern, ai))
    close(kern.interval_integral(a, 4.0 * a), _perturbed_mass(kern, a, 4 * a))
    close(kern.interval_integral(a[7], 4.0 * a[7]),
          _perturbed_mass(kern, a[7], 4.0 * a[7]))


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_perturbed_interval_integral_keeps_narrow_cells(s):
    """interval_integral against the closed form on cells narrow against
    their distance ([1e9, 1e9 + 0.1], a grid's lag cells out to lag 2^16)
    and wide ones (up to a factor 1e3): rel 1e-13. Integrated in ln z over
    [ln a, ln b], the width's digits went to the difference of two logs:
    [1e9, 1e9 + 0.1] erred by 1.8e-5 and lag 4096 of h = 0.2 by 2e-12."""
    kern = perturbed_kernel(s, 0.5, 1.5)
    h = 0.1953125
    lag = np.array([1.0, 10.0, 1000.0, 4096.0, 65535.0])
    a = np.concatenate([[1e9, 1e6, 1e3], (lag - 0.5) * h,
                        [1e-3, 0.5, 2.0, 7.0]])
    b = np.concatenate([[1e9 + 0.1, 1e6 + 0.1, 1e3 + 1e-9], (lag + 0.5) * h,
                        [1.0, 5.0, 2e3, 70.0]])
    want = _perturbed_mass(kern, a, b)
    np.testing.assert_allclose(kern.interval_integral(a, b), want,
                               rtol=1e-13, atol=0)
    assert kern.interval_integral(a[0], b[0]) == pytest.approx(want[0],
                                                               rel=1e-13)
