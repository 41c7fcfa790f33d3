import dataclasses
import functools
import math

import mpmath as mp
import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fraclayer.errors import DegenerateOscillation
from fraclayer.potentials import (WellParams, _LogAxisCumulative,
                                  make_potential, well_envelope_records)

QUARTIC = WellParams(alpha=2, beta=2, gamma=2, delta=2, c1=2, c2=2, c3=2,
                     c4=2, mu=0.5)
OSC = WellParams(alpha=5.8, beta=5.0, gamma=5.5, delta=5.0, mode="oscillatory")
# criterion 9c's wells
OSC_9C = WellParams(alpha=4.5, beta=4.0, gamma=4.5, delta=4.0,
                    mode="oscillatory")
# pure-power wells with four different constants
MIXED_POWER = WellParams(alpha=3.0, beta=3.0, gamma=4.0, delta=4.0, c1=1.5,
                         c2=2.0, c3=0.5, c4=3.0, mu=0.4)
ENVELOPE_IDS = ["well-envelope-left", "well-envelope-right"]


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
    """Pure-power wells against W = c v^a / (a (a-1)) and
    W' = -s c v^(a-1) / (a-1) on a geometric ladder of gaps v = 1 - s t in
    both wells, with (a, c) = (alpha, c1) at -1 and (gamma, c3) at +1."""
    for p in (QUARTIC, MIXED_POWER):
        pot = make_potential(p)
        for s in (-1, 1):
            a, _, c, _ = p.side(s)
            t = s * (1.0 - np.geomspace(1e-12, p.mu, 60))
            v = 1.0 - s * t     # the gap that the rounded t realizes
            np.testing.assert_allclose(pot.W(t), c * v ** a / (a * (a - 1)),
                                       rtol=1e-12, atol=0)
            np.testing.assert_allclose(pot.W1(t),
                                       -s * c * v ** (a - 1) / (a - 1),
                                       rtol=1e-12, atol=0)
            assert pot.W(float(s)) == 0.0
            assert abs(pot.W1(float(s))) < 1e-12


def test_positivity_inside():
    for pot in (make_potential(QUARTIC), make_potential(OSC)):
        t = np.linspace(-0.999, 0.999, 4001)
        assert np.min(pot.W(t)) > 0.0


def test_oscillatory_envelope_with_unit_constants():
    pot = make_potential(OSC)
    recs = well_envelope_records(pot)
    assert [r.id for r in recs] == ENVELOPE_IDS
    assert all(r.passed for r in recs)
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


def test_pure_power_bounds_coincide():
    """Pure-power W'' is c_lo v^(g-2) exactly: the lower envelope is met
    with zero slack, and with c1 = c2 and c3 = c4 the upper one too."""
    for p in (QUARTIC, MIXED_POWER):
        recs = well_envelope_records(make_potential(p))
        assert [(r.id, r.passed, r.worst_slack) for r in recs] == [
            (i, True, 0.0) for i in ENVELOPE_IDS]


@pytest.mark.parametrize("p", [QUARTIC, MIXED_POWER, OSC],
                         ids=["quartic", "mixed-power", "osc"])
def test_halved_curvature_fails_both_envelopes(p):
    pot = make_potential(p)
    half = dataclasses.replace(pot, W2=lambda t: 0.5 * pot.W2(t))
    recs = well_envelope_records(half)
    assert [r.id for r in recs] == ENVELOPE_IDS
    assert all(not r.passed and r.worst_slack < 0.0 for r in recs)


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


@pytest.mark.parametrize("p", [MIXED_POWER, OSC], ids=["pure-power", "osc"])
def test_swapping_the_wells_mirrors_the_bounds(p):
    """Swapped wells give the same envelope records, bit for bit, with the
    left and right records exchanged."""
    recs = well_envelope_records(make_potential(p))
    back = well_envelope_records(make_potential(_swapped(p)))
    assert [r.id for r in recs] == [r.id for r in back] == ENVELOPE_IDS
    for rec, rev in zip(recs, back[::-1]):
        assert (rev.passed, rev.worst_slack, rev.location) == (
            rec.passed, rec.worst_slack, rec.location)
    assert all(r.passed for r in recs)


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
    recs = well_envelope_records(pot)
    assert [r.id for r in recs] == ENVELOPE_IDS
    assert all(r.passed for r in recs)
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
