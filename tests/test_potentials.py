import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclayer.errors import DegenerateOscillation, SampleOutsideWell
from fraclayer.potentials import (WellParams, _LogAxisCumulative,
                                  check_well_increment_bounds,
                                  envelope_slack, make_potential)

QUARTIC = WellParams(alpha=2, beta=2, gamma=2, delta=2, c1=2, c2=2, c3=2,
                     c4=2, mu=0.5)
OSC = WellParams(alpha=5.8, beta=5.0, gamma=5.5, delta=5.0, mode="oscillatory")
# criterion 9c's wells
OSC_9C = WellParams(alpha=4.5, beta=4.0, gamma=4.5, delta=4.0,
                    mode="oscillatory")


def test_param_validation():
    with pytest.raises(ValueError):
        WellParams(alpha=2, beta=3, gamma=2, delta=2)
    with pytest.raises(ValueError):
        WellParams(alpha=3, beta=3, gamma=3, delta=3, mu=1.5)
    with pytest.raises(ValueError):
        WellParams(alpha=3, beta=2.5, gamma=3, delta=3, mode="pure-power")
    with pytest.raises(DegenerateOscillation):
        WellParams(alpha=2.5, beta=2.0, gamma=3, delta=2.5, mode="oscillatory")


def test_quartic_closed_form():
    pot = make_potential(QUARTIC)
    t = 0.99
    assert pot.W(t) == pytest.approx((1 - t) ** 2, rel=1e-12)
    assert pot.W(1.0) == 0.0
    assert pot.W(-1.0) == 0.0
    assert abs(pot.W1(-1.0)) < 1e-12
    assert abs(pot.W1(1.0)) < 1e-12


def test_positivity_inside():
    for pot in (make_potential(QUARTIC), make_potential(OSC)):
        t = np.linspace(-0.999, 0.999, 4001)
        assert np.min(pot.W(t)) > 0.0


def test_oscillatory_envelope_with_unit_constants():
    pot = make_potential(OSC)
    assert envelope_slack(pot) <= 1e-12
    d = np.geomspace(1e-9, OSC.mu, 1000)
    ratio = pot.W2(-1.0 + d) * d ** (2.0 - OSC.beta)
    assert np.all(ratio <= 1.0 + 1e-12)
    assert np.all(ratio >= d ** (OSC.alpha - OSC.beta) - 1e-12)


def test_derivatives_consistent_fd():
    pot = make_potential(OSC)
    ts = np.array([-0.9, -0.6, 0.1, 0.62, 0.93])
    h = 1e-6
    fd1 = (pot.W(ts + h) - pot.W(ts - h)) / (2 * h)
    fd2 = (pot.W(ts + h) + pot.W(ts - h) - 2 * pot.W(ts)) / h ** 2
    assert np.max(np.abs(fd1 - pot.W1(ts)) / np.abs(pot.W1(ts))) < 1e-6
    assert np.max(np.abs(fd2 - pot.W2(ts)) / np.abs(pot.W2(ts))) < 1e-4


def test_increment_bounds_on_pairs(rng):
    pot = make_potential(OSC)
    r = -1 + 0.5 * rng.random(1000)
    t = r + (-0.5 - r) * rng.random(1000)
    reps = check_well_increment_bounds(pot, list(zip(r, t)))
    r2 = 0.5 + 0.5 * rng.random(1000)
    t2 = r2 + (1 - r2) * rng.random(1000)
    reps += check_well_increment_bounds(pot, list(zip(r2, t2)))
    assert all(rep.passed for rep in reps)


def test_increment_bounds_equal_pair():
    pot = make_potential(QUARTIC)
    reps = check_well_increment_bounds(pot, [(-0.7, -0.7)])
    assert reps[0].passed and reps[0].worst_slack == 0.0


def test_sample_outside_well():
    pot = make_potential(QUARTIC)
    with pytest.raises(SampleOutsideWell):
        check_well_increment_bounds(pot, [(-0.2, 0.2)])


def test_pure_power_bounds_coincide(rng):
    pot = make_potential(QUARTIC)
    r = -1 + 0.5 * rng.random(100)
    t = np.minimum(r + 0.4 * rng.random(100), -0.5)
    t = np.maximum(t, r)
    reps = check_well_increment_bounds(pot, list(zip(r, t)))
    assert all(rep.passed for rep in reps)


def test_symmetric_params_give_even_potential():
    p = WellParams(alpha=5.5, beta=5.0, gamma=5.5, delta=5.0,
                   mode="oscillatory")
    pot = make_potential(p)
    t = np.linspace(-0.98, 0.98, 101)
    assert np.max(np.abs(pot.W(t) - pot.W(-t))) < 1e-12


def _swapped(p: WellParams) -> WellParams:
    return dataclasses.replace(p, alpha=p.gamma, beta=p.delta, gamma=p.alpha,
                               delta=p.beta, c1=p.c3, c2=p.c4, c3=p.c1,
                               c4=p.c2)


@pytest.mark.parametrize("p", [
    WellParams(alpha=3.0, beta=3.0, gamma=4.0, delta=4.0, c1=1.5, c2=2.0,
               c3=0.5, c4=3.0, mu=0.4), OSC], ids=["pure-power", "osc"])
def test_swapping_the_wells_mirrors_the_bounds(p, rng):
    """Swapped wells and mirrored pairs (r, t) -> (-t, -r) give the same
    increment-bound and envelope slacks, with the sides exchanged."""
    pot, mirr = make_potential(p), make_potential(_swapped(p))
    r, t = np.sort(p.mu * rng.random((2, 300)), axis=0)
    pairs = list(zip(-1.0 + r, -1.0 + t)) + list(zip(1.0 - t, 1.0 - r))
    reps = check_well_increment_bounds(pot, pairs)
    back = check_well_increment_bounds(mirr, [(-b, -a) for a, b in pairs])
    assert [rep.id for rep in reps] == ["well-increment-bounds-left",
                                        "well-increment-bounds-right"]
    for rep, rev in zip(reps, back[::-1]):
        assert (rev.passed, rev.worst_slack) == (rep.passed, rep.worst_slack)
        a, b = (float(v.split("=")[1]) for v in rep.location.split(","))
        assert rev.location == f"r={-b:.12g},t={-a:.12g}"
    assert envelope_slack(mirr) == envelope_slack(pot)
    hold, hold_m = pot.holder_spotcheck_w2(), mirr.holder_spotcheck_w2()
    assert (hold_m["left"], hold_m["right"]) == (hold["right"], hold["left"])


def test_holder_spotcheck_reports():
    pot = make_potential(OSC)
    rep = pot.holder_spotcheck_w2()
    assert rep["theta"] == 1.0
    assert np.isfinite(rep["left"]) and np.isfinite(rep["right"])


def test_config_roundtrip():
    d = dataclasses.asdict(OSC)
    assert d["mode"] == "oscillatory"
    assert WellParams(**d) == OSC


@settings(max_examples=20, deadline=None)
@given(st.floats(2.2, 6.0), st.floats(0.0, 0.95), st.floats(0.15, 0.7))
# envelopes at the unrounded gap read a slack of 1.24e-10 here
@example(2.203125, 0.0, 0.59375)
def test_oscillatory_family_contracts(base, spread, mu):
    beta = base
    alpha = beta + spread * 0.99 + 1e-6
    p = WellParams(alpha=alpha, beta=beta, gamma=alpha, delta=beta,
                   mu=mu, mode="oscillatory")
    pot = make_potential(p)
    assert envelope_slack(pot, n=200) <= 1e-10
    t = np.linspace(-0.999, 0.999, 501)
    assert np.min(pot.W(t)) > 0.0


# the widest spread that test_oscillatory_family_contracts draws, at both
# ends of its base range
SPREAD_EDGE = WellParams(alpha=3.1405, beta=2.2, gamma=6.94, delta=6.0,
                         mu=0.7, mode="oscillatory")


@functools.lru_cache(maxsize=None)
def _well_integrals_mp(hi, lo, u):
    """W(u) = int_0^u (u - v) W''(v) dv and W'(u) = int_0^u W'' by mpmath.

    W''(v) = v^(p(v) - 2) with p = m + a sin(ln v); in y = ln v the
    integrand is exp(g(y)), g(y) = (p - 1) y, scaled by exp(g(ln u)) so that
    the quadrature's absolute tolerance is a relative one. The exponent
    swings by a |y| over each period of sin, so the range is cut into unit
    pieces down to where the envelope exp((lo - 1) y) is e^-50 of
    exp(g(ln u)); a few coarse pieces read W' off by 1e-8 at the 2.2 well.
    """
    with mp.workdps(20):
        m, a = mp.mpf(hi + lo) / 2, mp.mpf(hi - lo) / 2
        Y = mp.log(mp.mpf(u))

        def g(y):
            return (m + a * mp.sin(y) - 1) * y

        gY = g(Y)
        depth = math.ceil(((hi - 1) * abs(float(Y)) + 50) / (lo - 1)
                          - abs(float(Y)))
        pts = [-mp.inf] + [Y - k for k in range(depth, -1, -1)]
        j1 = mp.quad(lambda y: mp.exp(g(y) - gY), pts,
                     method="gauss-legendre")
        j0 = mp.quad(lambda y: -mp.expm1(y - Y) * mp.exp(g(y) - gY), pts,
                     method="gauss-legendre")
        return float(j0 * mp.mpf(u) * mp.exp(gY)), float(j1 * mp.exp(gY))


@pytest.mark.parametrize("params", [OSC_9C, OSC, SPREAD_EDGE],
                         ids=["9c", "OSC", "spread-edge"])
def test_tabulated_well_integrals_match_mpmath(params):
    pot = make_potential(params)
    gaps = np.geomspace(1e-12, params.mu, 20)
    for t, (hi, lo), sign in ((-1.0 + gaps, (params.alpha, params.beta), 1),
                              (1.0 - gaps, (params.gamma, params.delta), -1)):
        u = 1.0 - np.abs(t)     # the gap that the rounded t realizes
        ref = np.array([_well_integrals_mp(hi, lo, float(ui)) for ui in u])
        np.testing.assert_allclose(pot.W(t), ref[:, 0], rtol=1e-12, atol=0)
        np.testing.assert_allclose(sign * pot.W1(t), ref[:, 1], rtol=1e-12,
                                   atol=0)


def test_tabulated_integral_never_calls_integrand():
    calls = []

    def f(u):
        calls.append(np.size(u))
        return u ** (3.0 + 0.25 * np.sin(np.log(u)))

    y_max = math.log(0.5)
    J = _LogAxisCumulative(f, y_max - 40.0, y_max, decay=3.0, rate=4.5,
                           swing=0.25)
    assert calls, "construction samples the integrand"
    calls.clear()
    u = np.geomspace(1e-20, 0.5, 4096)
    vals = J(u)
    assert calls == []
    assert np.all(np.isfinite(vals)) and np.all(np.diff(vals) >= 0)
    # on a panel edge the value is the tabulated sum below it, exactly
    y = np.log(np.exp(J.edges))
    on_edge = y == J.edges
    assert np.count_nonzero(on_edge) >= 0.9 * len(J.edges)
    edge_vals = J(np.exp(J.edges))
    assert np.array_equal(edge_vals[on_edge], (J.below + J.cum)[on_edge])
    assert calls == []


@pytest.mark.parametrize("params", [QUARTIC, OSC], ids=["pure-power", "osc"])
@pytest.mark.parametrize("name", ["W", "W1", "W2"])
def test_potential_shape_contract(params, name):
    fn = getattr(make_potential(params), name)
    # both wells, the bridge and the well points themselves
    t = np.array([[-1.0, -0.9999, -0.7], [0.1, 0.9, 1.0 - 1e-9]])
    batch = fn(t)
    assert batch.shape == (2, 3)
    assert np.array_equal(batch.ravel(), fn(t.ravel()))
    for ti, bi in zip(t.ravel(), batch.ravel()):
        v = fn(ti)
        assert isinstance(v, float) and v == bi
    assert isinstance(fn(np.array(-0.95)), float)
