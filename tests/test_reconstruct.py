import dataclasses
import math

import numpy as np
import pytest

from fraclayer import reconstruct
from fraclayer.errors import OutOfRange
from fraclayer.quadrature import QuadConfig, eval_lk
from fraclayer.reconstruct import (PotentialTable, graded_nodes,
                                   invert_profile, profile_as_fn,
                                   reconstruct_potential,
                                   second_derivative_limit, slope_mass,
                                   verify_potential_regularity,
                                   verify_well_envelopes)


@pytest.fixture(scope="module")
def table(desk_profile_mod, kernel_half_mod):
    # deep enough that both envelope families show two extrema per side
    return reconstruct_potential(desk_profile_mod, kernel_half_mod,
                                 depth_decades=8.0)


@pytest.fixture(scope="module")
def desk_profile_mod():
    from fraclayer.construction import LayerParams, build_profile

    return build_profile(LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5,
                                     delta=5.0, rho=2.1))


@pytest.fixture(scope="module")
def kernel_half_mod():
    from fraclayer.kernels import fractional_kernel

    return fractional_kernel(0.5)


def test_inversion_identities(desk_profile_mod):
    prof = desk_profile_mod
    u0 = float(prof.eval(np.array([0.0]))[0])
    assert invert_profile(prof, u0) == pytest.approx(0.0, abs=1e-9)
    for r in (-0.95, -0.2, 0.4, 0.999):
        x = invert_profile(prof, r)
        assert float(prof.eval(np.array([x]))[0]) == pytest.approx(r,
                                                                   abs=1e-11)
    # forward then inverse at a cell anchor
    a0 = prof.cx.a0
    r = float(prof.eval(np.array([2 * a0]))[0])
    assert invert_profile(prof, r) == pytest.approx(2 * a0, rel=1e-9)
    with pytest.raises(OutOfRange):
        invert_profile(prof, 1.0)


class _EvalOnly:
    """A profile seen only through eval and cx, counting eval calls."""

    __slots__ = ("_prof", "cx", "calls")

    def __init__(self, prof):
        self._prof = prof
        self.cx = prof.cx
        self.calls = 0

    def eval(self, x, order=0):
        self.calls += 1
        return self._prof.eval(x, order)


@pytest.mark.parametrize("which", ["desk", "threshold"])
def test_inversion_over_graded_nodes(which, desk_profile_mod,
                                     threshold_profile_pack):
    prof = desk_profile_mod if which == "desk" else threshold_profile_pack[2]
    xs, calls = [], []
    for r in graded_nodes(8.0, 12):
        view = _EvalOnly(prof)
        x = invert_profile(view, float(r))
        calls.append(view.calls)
        xs.append(x)
        resid = abs(float(prof.eval(x)) - r)
        assert resid <= 1e-12 * max(1.0, abs(r)), (r, x, resid)
    assert np.all(np.diff(xs) > 0.0)
    # the bisection it replaced took 57-58 evaluations per node
    assert np.median(calls) <= 20
    assert max(calls) <= 40


def test_inversion_out_of_range(desk_profile_mod, monkeypatch):
    prof = desk_profile_mod
    for r in (-1.0, 1.0):
        with pytest.raises(OutOfRange):
            invert_profile(prof, r)
    # |x| <= sinh(20) reaches u~ = 0.9 but neither 0.99999 nor -0.999
    monkeypatch.setattr(reconstruct, "INVERT_MAX_LOG", 20.0)
    assert abs(invert_profile(prof, 0.9)) <= math.sinh(20.0)
    for r in (0.99999, -0.999):
        with pytest.raises(OutOfRange):
            invert_profile(prof, r)
    # sinh(5) < a0: the working domain lies inside the bridge
    monkeypatch.setattr(reconstruct, "INVERT_MAX_LOG", 5.0)
    with pytest.raises(OutOfRange):
        invert_profile(prof, 0.9)


def test_inversion_reads_only_eval_and_cx(desk_profile_mod):
    """Every profile value comes through eval, as the benchmark counts."""
    prof = desk_profile_mod
    a0 = prof.cx.a0
    for r in (-0.999999, -0.5, float(prof.eval(0.3 * a0)), 0.5, 0.999999):
        view = _EvalOnly(prof)
        assert invert_profile(view, r) == invert_profile(prof, r)
        assert view.calls > 0


def test_graded_nodes_density():
    r = graded_nodes(depth_decades=5.0, per_decade=12)
    gaps = 1.0 - r[r > 0.9]
    ratios = gaps[:-1] / gaps[1:]
    assert np.allclose(ratios, 10 ** (1 / 12), rtol=1e-12)


def test_chain_identity(table, desk_profile_mod, kernel_half_mod):
    """V'(r_i) is the operator value at the inverted point by construction."""
    u = profile_as_fn(desk_profile_mod)
    i = len(table.r) // 2
    ov = eval_lk(kernel_half_mod, u, float(table.x[i]), QuadConfig(tol=1e-5))
    assert table.V1[i] == pytest.approx(ov.value, abs=5 * ov.error + 1e-12)


def test_positivity_and_closure(table):
    assert table.interior_min() > 0.0
    assert table.closure_defect() <= 0.01


def test_regularity(table):
    rep = verify_potential_regularity(table)
    assert rep.passed


def test_regularity_fails_on_non_finite_curvature(table):
    """A V2 with no finite divided difference, or with one inf away from the
    fitted well ends, fails through the Lipschitz estimate: it used to raise
    from np.nanmax, or to pass with the inf left out of the estimate."""
    r = np.linspace(-0.99, 0.99, 50)
    zeros = np.zeros_like(r)
    nan = PotentialTable(r=r, x=zeros, V=zeros, V1=zeros,
                         V2=np.full_like(r, np.nan))
    V2 = table.V2.copy()
    V2[len(V2) // 2] = np.inf
    spiked = dataclasses.replace(table, V2=V2)
    for tab in (nan, spiked):
        rec = verify_potential_regularity(tab)
        assert not rec.passed and rec.worst_slack == -math.inf, rec
        assert rec.location == "lipschitz=inf"


def test_envelopes(table, desk_profile_mod):
    reps = verify_well_envelopes(table, desk_profile_mod.cx.params)
    for rep in reps:
        assert rep.passed, rep


def test_verdict_is_slack_sign(table, desk_profile_mod, kernel_half_mod,
                               monkeypatch):
    """Each record passes exactly when its slack is >= 0, failing or not."""
    flat = dataclasses.replace(table, V2=np.ones_like(table.V2))
    recs = [verify_potential_regularity(table),
            verify_potential_regularity(flat)]
    for tol in (0.3, 0.05):
        monkeypatch.setattr(reconstruct, "ENVELOPE_TOL", tol)
        recs += verify_well_envelopes(table, desk_profile_mod.cx.params)
    for rel_tol in (0.10, 1e-3):
        monkeypatch.setattr(reconstruct, "LIMIT_REL_TOL", rel_tol)
        recs += second_derivative_limit(desk_profile_mod, kernel_half_mod,
                                        [3e6, 1e7, 3e7, 1e8, 3e8, 1e9])
    assert [r.passed for r in recs] == [True, False] + [True] * 2 \
        + [False] * 2 + [True] * 2 + [False] * 2
    for rec in recs:
        assert rec.passed == (rec.worst_slack >= 0), rec


def test_even_profile_gives_even_potential(kernel_half_mod):
    """Symmetric construction parameters produce an even potential."""
    from fraclayer.construction import LayerParams, build_profile

    p = LayerParams(s=0.5, alpha=5.5, beta=5.0, gamma=5.5, delta=5.0, rho=2.1)
    prof = build_profile(p)
    tab = reconstruct_potential(prof, kernel_half_mod, depth_decades=3.0)
    mid = np.abs(tab.r) < 0.7
    r = tab.r[mid]
    V = tab.V[mid]
    Vm = np.interp(-r, r, V)
    assert np.max(np.abs(V - Vm)) < 5e-3 * np.max(tab.V)


def test_slope_mass(desk_profile_mod):
    assert slope_mass(desk_profile_mod, X=1e40) == pytest.approx(2.0,
                                                                 abs=1e-6)


def test_curvature_limit(desk_profile_mod, kernel_half_mod):
    reps = second_derivative_limit(desk_profile_mod, kernel_half_mod,
                                   [3e6, 1e7, 3e7, 1e8, 3e8, 1e9])
    # within 10 % of -side 2 (1 + 2s), each side's estimate has its sign
    for rep in reps:
        assert rep.passed
        assert rep.worst_slack >= 0


def test_csv_roundtrip(tmp_path, table):
    out = tmp_path / "table.csv"
    table.to_csv(out)
    rows = out.read_text().splitlines()
    assert rows[0] == "r,V,V1,V2"
    assert len(rows) == len(table.r) + 1
