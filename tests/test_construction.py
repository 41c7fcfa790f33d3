import dataclasses
import math
import re

import numpy as np
import pytest

from fraclayer import verify_construction as vc
from fraclayer.construction import (MAX_MATERIALIZABLE_LOG, LayerParams,
                                    SideConstants, build_constants,
                                    build_profile, sufficiency_rho,
                                    threshold_params)
from fraclayer.cutoffs import measure_cutoff
from fraclayer.errors import LogRangeOverflow, ParamOrderViolated


def test_param_validation():
    with pytest.raises(ParamOrderViolated):
        LayerParams(s=0.5, alpha=5.0, beta=5.0, gamma=5.5, delta=5.0)
    with pytest.raises(ParamOrderViolated):
        LayerParams(s=0.5, alpha=6.2, beta=5.0, gamma=5.5, delta=5.0)
    with pytest.raises(ParamOrderViolated):
        LayerParams(s=1.5, alpha=5.8, beta=5.0, gamma=5.5, delta=5.0)


def test_exponent_formulas(desk_params):
    cx = build_constants(desk_params)
    rt, lf = cx.right, cx.left
    assert rt.e_hi == pytest.approx(0.25)        # 2s/(delta-1), s=0.5, delta=5
    assert rt.e_lo == pytest.approx(1.0 / 4.5)
    assert lf.e_hi == pytest.approx(0.25)
    assert lf.e_lo == pytest.approx(1.0 / 4.8)
    assert rt.e_lo <= rt.e_hi and lf.e_lo <= lf.e_hi


def test_critical_point_value():
    # closed form at the outer rate 2*0.5/(5.5-1)
    cx = build_constants(LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5,
                                     delta=5.0, rho=2.1))
    assert cx.right.xbar == pytest.approx(0.521, abs=5e-4)
    assert 0.0 < cx.left.xbar < 1.0


def test_inner_anchor_floor():
    # when e^(1/B) <= 4 and the bridge constraint is slack, the anchor is 4
    p = LayerParams(s=0.9, alpha=3.3, beta=3.1, gamma=3.4, delta=3.2, rho=2.0)
    cx = build_constants(p)
    assert math.exp(1.0 / cx.right.e_lo) <= 4.0
    assert cx.a0 == 4.0


def test_anchor_bridge_compatibility(desk_params):
    cx = build_constants(desk_params)
    gap = sum(sc.c_out * cx.a0 ** (-sc.e_hi) for sc in (cx.right, cx.left))
    assert gap <= 1.8 + 1e-9
    assert cx.a0 > math.exp(1.0 / cx.right.e_lo)


def test_constant_ranges(desk_params):
    cx = build_constants(desk_params)
    for sc in (cx.right, cx.left):
        assert sc.c_out > 2.0
        assert np.all(sc.c_in > 2.0 - 1e-12) and np.all(sc.c_in < sc.c_out)


def test_scale_recursion(desk_params):
    cx = build_constants(desk_params)
    assert cx.lnc[0] == pytest.approx(math.exp(cx.rho) * cx.lnb[0], rel=1e-14)
    lna1 = cx.lnc[0] + 2 * math.log(2.0)
    assert cx.lnb[1] == pytest.approx(lna1 + math.log1p(math.exp(-lna1)),
                                      rel=1e-14)


def test_paper_mode_double_log():
    p = LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5, delta=5.0,
                    mode="paper")
    cx = build_constants(p)
    stats = measure_cutoff()
    assert cx.rho == pytest.approx(128.0 * stats.ratio)
    assert np.all(np.isfinite(cx.lnlnb))
    assert np.all(np.diff(cx.lnlnb) == pytest.approx(cx.rho, rel=1e-12))
    with pytest.raises(LogRangeOverflow):
        build_profile(p, cx)


def test_sufficiency_threshold_construction():
    p = threshold_params(0.5, rho_target=2.05)
    rho_star = sufficiency_rho(p.alpha, p.beta, p.gamma, p.delta,
                               measure_cutoff())
    assert p.rho == pytest.approx(rho_star, rel=1e-12)
    cx = build_constants(p)
    rep = cx.sufficiency_report()
    assert all(v for k, v in rep.items() if isinstance(v, bool))


@pytest.mark.parametrize("rho_target", [8e5, 0.0, -1.0])
def test_unattainable_threshold_is_a_typed_error(rho_target):
    """r ln r = rho_target / (32 eta_bar/eta_0) has no root in (1, 3] past
    32 (eta_bar/eta_0) 3 ln 3 ~ 7.2e5, nor for rho_target <= 0; the error
    names the attainable range."""
    hi = 32.0 * measure_cutoff().ratio * 3.0 * math.log(3.0)
    assert 7.0e5 < hi < 7.5e5
    with pytest.raises(ParamOrderViolated,
                       match="unattainable.*" + re.escape(f" {hi:.4g}]")):
        threshold_params(0.5, rho_target=rho_target)


def test_ramp_interpolant_endpoints(desk_profile):
    cx = desk_profile.cx
    sc = cx.right
    # at ln b_k the interpolant equals the inner rate; at ln c_k the outer
    phi_b = sc.phi(cx.lnb[0], np.array([cx.lnb[0]]))
    phi_c = sc.phi(cx.lnb[0], np.array([cx.lnc[0]]))
    assert phi_b[0] == pytest.approx(sc.e_hi, rel=1e-14)
    assert phi_c[0] == pytest.approx(sc.e_lo, rel=1e-12)
    mid = sc.phi(cx.lnb[0], np.array([0.5 * (cx.lnb[0] + cx.lnc[0])]))[0]
    assert sc.e_lo < mid < sc.e_hi


def test_ramp_ode_closed_form():
    f, rhs = vc.log_power_ode_closed_form(2.0, 4.0, 1.0, 1.0)
    assert float(f(0.0)) == pytest.approx(1.0)
    assert float(f(1.0)) == pytest.approx(math.log(2) / math.log(4))


def test_ramp_ode_residuals(rng):
    grid = np.linspace(0.01, 0.99, 100)
    for _ in range(5):
        a = 1.0 + 9.0 * rng.random()
        b = a + 0.5 + 10.0 * rng.random()
        mu = rng.choice([-2.5, 0.7, 3.0])
        f0 = rng.uniform(0.2, 2.0)
        rec = vc.check_log_power_ode(a, b, mu, f0, grid)
        assert rec.passed, (a, b, mu, f0, rec.worst_slack)


def test_ramp_ode_identity(desk_params, threshold_profile_pack,
                           paper_constants):
    """Both sides and every finite cell pass on the desk and the threshold
    profiles; paper mode has no finite cell to check."""
    for cx in (build_constants(desk_params), threshold_profile_pack[1]):
        rec = vc.check_ramp_ode_identity(cx)
        assert rec.passed, rec
        assert re.fullmatch(r"(right|left) cell \d+", rec.location)
    with pytest.raises(ValueError, match="desk mode"):
        vc.check_ramp_ode_identity(paper_constants)


def test_ramp_ode_identity_fails_on_a_wrong_exponent(desk_params,
                                                     monkeypatch):
    """A ramp exponent phi whose power 1/zeta is off by a relative 1e-3
    leaves a relative residual of 1e-3, far above the 1e-6 bound."""
    cx = build_constants(desk_params)

    def off_phi(self, lnb_k, L):
        return self.e_hi * np.exp((math.log(lnb_k) - np.log(L))
                                  * (1.0 + 1e-3) / self.zeta)

    monkeypatch.setattr(SideConstants, "phi", off_phi)
    rec = vc.check_ramp_ode_identity(cx)
    assert not rec.passed
    assert 1e-6 - rec.worst_slack == pytest.approx(1e-3, rel=1e-3)


def test_profile_values_and_junctions(desk_profile):
    prof = desk_profile
    x = np.array([-1e9, -500.0, 0.0, 700.0, 1e9])
    u = prof.eval(x)
    assert np.all(np.abs(u) < 1.0)
    assert np.all(np.diff(u) > 0)
    jm = prof.junction_mismatches()
    assert max(r["worst"] for r in jm) < 1e-10


def test_eval_keeps_input_shape(desk_profile):
    """0-d in gives 0-d out (eval_lk reads float(u(np.array(x)))), on the
    bridge and on both gap sides, and a 2-d batch keeps its shape."""
    prof = desk_profile
    a0 = prof.cx.a0
    xs = np.array([0.5 * a0, 3.0 * a0, -3.0 * a0])
    grid = np.array([[-3.0 * a0, -0.5 * a0, 0.0],
                     [0.5 * a0, 3.0 * a0, 1e9]])
    for m in range(5):
        for x in xs:
            v = prof.eval(np.float64(x), m)
            assert v.shape == ()
            assert v == prof.eval(np.array([x]), m)[0]
        v = prof.eval(grid, m)
        assert v.shape == (2, 3)
        assert np.array_equal(v.ravel(), prof.eval(grid.ravel(), m))


def test_profile_monotone_and_sufficiency_flags(desk_profile):
    rep = desk_profile.monotone_report(3000)
    assert rep["monotone"]
    # below the sufficiency threshold the report records which failed
    assert not all(v for k, v in rep["sufficiency"].items()
                   if isinstance(v, bool))


def test_anchor_values(desk_profile):
    """The gap at the cell anchors equals the pure-power closed forms."""
    cx = desk_profile.cx
    for k in (0, 1):
        lna = math.log(cx.a0) if k == 0 else cx.lnc[k - 1] + 2 * math.log(2)
        g = desk_profile.gap_jet_log(1, np.array([lna]), order=0)[0]
        rt, lf = cx.right, cx.left
        assert g.logm[0] == pytest.approx(
            math.log(rt.c_in[k]) - rt.e_hi * lna, rel=1e-13)
        lnd = cx.lnc[k] + math.log(2.0)
        g = desk_profile.gap_jet_log(1, np.array([lnd]), order=0)[0]
        assert g.logm[0] == pytest.approx(
            math.log(rt.c_out) - rt.e_lo * lnd, rel=1e-13)
        g = desk_profile.gap_jet_log(-1, np.array([lna]), order=0)[0]
        assert g.logm[0] == pytest.approx(
            math.log(lf.c_in[k]) - lf.e_hi * lna, rel=1e-13)


def test_profile_csv_export(tmp_path, desk_profile):
    """Tail rows carry u~ and its derivatives at x = +-e^L, and the piece
    and cell that `route` gives L, for every piece; bridge rows carry the
    bridge at x = sinh(ln_x_signed)."""
    prof = desk_profile
    out = tmp_path / "profile.csv"
    prof.export_csv(out)
    body = out.read_text().splitlines()
    assert body[0].split(",") == ["ln_x_signed", "utilde", "d1", "d2", "d3",
                                  "piece", "cell"]
    rows = np.array([[float(v) for v in r.split(",")] for r in body[1:]])
    assert rows.shape == (101 + 2 * 400, 7)
    bridge, tail = rows[:101], rows[101:]
    assert np.all(bridge[:, 5] == -1) and np.all(bridge[:, 6] == 0)
    for m in range(4):
        assert prof.eval(np.sinh(bridge[:, 0]), m) == pytest.approx(
            bridge[:, 1 + m], rel=1e-10)
    side, L = np.sign(tail[:, 0]), np.abs(tail[:, 0])
    refs = np.array([prof._refs[j] for j in prof.route(L)])
    assert np.array_equal(tail[:, 6], refs[:, 0])
    assert np.array_equal(tail[:, 5], refs[:, 1])
    # every piece route can return, the one at each junction, has rows on
    # both sides, and at least 100 rows per side have a materializable x
    # (229 here; 7 while the rows were linear in L)
    pieces = {prof._refs[j] for j in prof.route(prof._edges[:-1])}
    mat = L <= MAX_MATERIALIZABLE_LOG
    for sgn in (1.0, -1.0):
        assert set(map(tuple, refs[side == sgn])) == pieces
        assert np.count_nonzero(mat & (side == sgn)) >= 100
    for m in range(4):
        assert prof.eval(side[mat] * np.exp(L[mat]), m) == pytest.approx(
            tail[mat, 1 + m], rel=1e-12)


def test_eval_leaves_no_nan_entry_unwritten(desk_profile):
    """A NaN entry of a vector input evaluates to NaN at every order; the
    other entries are unchanged."""
    x = np.array([np.nan, 2e5, np.nan, -3.0, np.nan])
    for m in range(5):
        v = desk_profile.eval(x, m)
        assert np.all(np.isnan(v[::2])), (m, v)
        assert v[1] == desk_profile.eval(np.array([2e5]), m)[0]
        assert v[3] == desk_profile.eval(np.array([-3.0]), m)[0]
        assert np.isnan(desk_profile.eval(np.nan, m))


def test_smooth_join_identity(desk_profile):
    """Blending a function with itself reproduces it; endpoint cutoffs pick
    out each input."""
    from fraclayer.cutoffs import eta

    f1 = lambda x: 1.0 - 2.0 * x ** -0.25
    f2 = lambda x: 1.0 - 2.0 * x ** -0.3
    a, b = 10.0, 20.0
    for x in (10.5, 14.0, 19.5):
        th = eta((x - a) / (b - a))
        h = th * f1(x) + (1 - th) * f2(x)
        assert th * f1(x) + (1 - th) * f1(x) == pytest.approx(f1(x))
        lo = min(f1(x), f2(x))
        hi = max(f1(x), f2(x))
        assert lo - 1e-12 <= h <= hi + 1e-12


def test_swapping_the_wells_mirrors_the_sides(desk_params):
    """Swapping (alpha, beta) with (gamma, delta) swaps the two side records
    and mirrors the profile, bit for bit: u~(x) = -u~'(-x) on the tails."""
    p = desk_params
    q = LayerParams(s=p.s, alpha=p.gamma, beta=p.delta, gamma=p.alpha,
                    delta=p.beta, rho=p.rho)
    prof, mirr = build_profile(p), build_profile(q)
    cx, cy = prof.cx, mirr.cx
    assert cx.a0 == cy.a0 and np.array_equal(cx.lnc, cy.lnc)
    for a, b in ((cx.right, cy.left), (cx.left, cy.right)):
        assert a.sign == -b.sign
        for f in dataclasses.fields(a):
            if f.name != "sign":
                assert np.array_equal(getattr(a, f.name), getattr(b, f.name))
    L = np.linspace(prof.log_a0, prof._edges[-1], 997)
    for side in (1, -1):
        for u, v in zip(prof.gap_jet_L(side, L, 4),
                        mirr.gap_jet_L(-side, L, 4)):
            assert np.array_equal(u, v)
    x = np.exp(np.linspace(prof.log_a0, 600.0, 501))
    for m in range(5):
        assert np.array_equal(prof.eval(x, m),
                              (-1.0) ** (m + 1) * mirr.eval(-x, m))
