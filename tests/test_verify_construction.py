import math

import numpy as np
import pytest

from fraclayer import verify_construction as vc
from fraclayer.construction import LayerParams, LayerProfile, build_constants
from fraclayer.jets import LogArray


def _random_tuples(rng, n=30):
    out = []
    for _ in range(n):
        s = rng.uniform(0.1, 0.9)
        beta = rng.uniform(2.0, 6.0)
        delta = rng.uniform(2.0, 6.0)
        out.append((s, beta + rng.uniform(1e-3, 0.999), beta,
                    delta + rng.uniform(1e-3, 0.999), delta))
    return out


def test_inequality_sweep_passes(rng):
    recs = vc.inequality_sweep(_random_tuples(rng))
    assert recs and all(r.passed for r in recs)


def test_equality_cases_detected():
    recs = vc.equality_case_records()
    assert all(r.passed for r in recs)
    sr = vc.exponent_ordering_slack(0.5, 4.0, 4.0)
    assert abs(sr) < 1e-14          # gamma = delta
    sr = vc.exponent_ordering_slack(0.5, 3.5, 2.0)
    assert abs(sr) < 1e-14          # delta = 2
    sr = vc.exponent_ordering_slack(0.5, 4.0, 3.0)
    assert sr > 1e-6                # strict otherwise


def test_reduced_touchpoints(paper_constants):
    recs = vc.touchpoint_reduced_records(paper_constants)
    assert all(r.passed for r in recs)


@pytest.mark.parametrize("mode", ["paper", "desk"])
def test_reduced_touchpoints_cover_all_cells(mode):
    """Every cell k = 0..k_max is checked, well past the default three."""
    cx = build_constants(LayerParams(s=0.5, alpha=5.8, beta=5.0, gamma=5.5,
                                     delta=5.0, mode=mode, k_max=13))
    recs = vc.touchpoint_reduced_records(cx)
    assert all(r.passed for r in recs)
    assert {r.location.split(",")[0] for r in recs
            if r.id.startswith("touch-exponent-algebra-")} == {
        f"k={k}" for k in range(14)}


def test_desk_touchpoints(desk_profile):
    recs = vc.touchpoint_desk_records(desk_profile)
    assert recs and all(r.passed for r in recs)


def test_profile_bounds(desk_profile, monkeypatch):
    monkeypatch.setattr(vc, "BOUND_SAMPLES", 800)
    recs = vc.profile_bound_records(desk_profile)
    assert recs and all(r.passed for r in recs)


def test_second_third_derivative_bounds(desk_profile, monkeypatch):
    monkeypatch.setattr(vc, "CURVATURE_SAMPLES", 400)
    recs = vc.second_derivative_bound_records(desk_profile)
    assert recs and all(r.passed for r in recs)


def test_fd_agreement(desk_profile, monkeypatch):
    monkeypatch.setattr(vc, "FD_POINTS", 10)
    recs = vc.fd_agreement_records(desk_profile)
    assert recs and all(r.passed for r in recs)


@pytest.mark.parametrize("seed", [10, 29])
def test_fd_agreement_on_cutoff_pieces(desk_profile, seed, monkeypatch):
    """These seeds sample ln 2-wide cutoff pieces where fixed steps of 1e-2
    were pre-asymptotic: at seed 10 the order-3 stencil in L (L ~ 77.4)
    erred by 1.1e-3 while its Richardson estimate read 1.2e-4, and at seed
    29 the order-2 stencil in x (L ~ 77.2) by 2.7e-5 relative against a
    tolerance of 1.4e-5."""
    monkeypatch.setattr(vc, "FD_SEED", seed)
    recs = vc.fd_agreement_records(desk_profile)
    assert recs and all(r.passed for r in recs), [
        (r.id, r.worst_slack) for r in recs if not r.passed]


@pytest.mark.parametrize("which", ["desk", "threshold"])
def test_fd_agreement_over_seeds(which, desk_profile, threshold_profile_pack,
                                 monkeypatch):
    prof = desk_profile if which == "desk" else threshold_profile_pack[2]
    for seed in range(20):
        monkeypatch.setattr(vc, "FD_SEED", seed)
        recs = vc.fd_agreement_records(prof)
        assert recs and all(r.passed for r in recs), (seed, [
            (r.id, r.worst_slack) for r in recs if not r.passed])


def test_highprec_oracle(desk_profile):
    recs = vc.highprec_agreement_records(desk_profile)
    assert recs and all(r.passed for r in recs)


def _failed(recs):
    return {r.id for r in recs if not r.passed}


def _scale_gap_jet_order(monkeypatch, m):
    """Make `gap_jet_log` report order m too large by a factor 1 + 1e-5."""
    exact = LayerProfile.gap_jet_log

    def gap_jet_log(self, side, L, order):
        g = list(exact(self, side, L, order))
        if order >= m:
            g[m] = LogArray(g[m].sign, g[m].logm + math.log1p(1e-5))
        return tuple(g)

    monkeypatch.setattr(LayerProfile, "gap_jet_log", gap_jet_log)


@pytest.mark.parametrize("m", [1, 2, 3, 4])
@pytest.mark.parametrize("which", ["desk", "threshold"])
def test_highprec_oracle_catches_a_1e5_error(monkeypatch, which, m,
                                             desk_profile,
                                             threshold_profile_pack):
    prof = desk_profile if which == "desk" else threshold_profile_pack[2]
    _scale_gap_jet_order(monkeypatch, m)
    assert {"highprec-derivative-oracle-right",
            "highprec-derivative-oracle-left"} <= _failed(
        vc.highprec_agreement_records(prof))


@pytest.mark.parametrize("m", [1, 2, 3])
def test_fd_oracle_catches_a_1e5_error(monkeypatch, m, desk_profile):
    """An error of 1e-5 relative in derivative order m of the log-position
    check (m = 1..3), or of the x-space check (m = 1, 2), fails an fd record.

    Order 4 is the high-precision oracle's job: there the FD tolerance
    holds the rounding floor 64 * 4^4 eps (|G| + 1) / h^4 at h <= 1e-2,
    which lies above 1e-5 of the derivative, and the same error passes; on
    the threshold profile order 3 passes for the same reason.
    """
    exact = vc._log_derivs_wrt_L

    def log_derivs(prof, side, L, order):
        d = exact(prof, side, L, order)
        d[m] = d[m] * (1.0 + 1e-5)
        return d

    with monkeypatch.context() as mp:
        mp.setattr(vc, "_log_derivs_wrt_L", log_derivs)
        assert {"fd-logpos-orders1234-right",
                "fd-logpos-orders1234-left"} <= _failed(
            vc.fd_agreement_records(desk_profile))
    if m <= 2:
        _scale_gap_jet_order(monkeypatch, m)
        assert {"fd-x-orders12-right", "fd-x-orders12-left"} <= _failed(
            vc.fd_agreement_records(desk_profile))


def test_ordering_chain_desk_and_paper(desk_profile, paper_constants):
    assert all(r.passed for r in vc.ordering_chain_records(desk_profile.cx))
    assert all(r.passed for r in vc.ordering_chain_records(paper_constants))
