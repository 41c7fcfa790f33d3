import math
import os
import subprocess
import sys
from pathlib import Path

import mpmath as mp
import numpy as np
import pytest

import fraclayer
from fraclayer.cutoffs import (BETA44, _smoothstep_upto, eta, eta_derivs,
                               eta_tilde, measure_cutoff, w_weight,
                               w_weight_argmax)
from fraclayer import verify_construction as vc

EPS = np.finfo(float).eps


def test_eta_plateaus_and_midpoint():
    x = np.array([0.0, 0.1, 0.25, 0.5, 0.75, 0.9, 1.0])
    v = eta(x)
    assert v[0] == 1.0 and v[2] == 1.0
    assert v[4] == 0.0 and v[-1] == 0.0
    assert v[3] == pytest.approx(0.5, abs=1e-14)
    for order in (1, 2, 3, 4):
        d = eta(np.array([0.25, 0.75]), order)
        assert np.all(d == 0.0)


def test_eta_slope_constraint():
    stats = measure_cutoff()
    x = np.linspace(0.0, 1.0, 20001)
    assert -4.0 < np.min(eta(x[(x > 0.25) & (x < 0.75)], 1)) < 0.0
    assert stats.eta_0 == 0.5
    assert stats.eta_bar >= 1.0


def test_smoothstep_matches_mpmath():
    """Orders 0..4 against 40-digit differentiation of the defining ratio."""
    q = mp.mpf("0.5")

    def S(r):
        a, b = mp.exp(-q / r), mp.exp(-q / (1 - r))
        return a / (a + b)

    r = np.concatenate([np.linspace(0.0, 1.0, 386)[1:-1],
                        [1e-3, 2e-3, 5e-3, 1e-2, 2e-2],
                        0.5 + np.array([-1e-6, -1e-9, 0.0, 1e-9, 1e-6]),
                        1.0 - np.array([2e-2, 1e-2, 5e-3, 2e-3, 1e-3])])
    with mp.workdps(40):
        ref = np.array([[float(d) for d in mp.diffs(S, mp.mpf(float(x)), 4)]
                        for x in r]).T
    for k in range(5):
        err = np.max(np.abs(_smoothstep_upto(r, k)[k] - ref[k]))
        assert err <= 1e-14 * np.max(np.abs(ref[k])), k
    steps = _smoothstep_upto(np.array([-1.0, 0.0, 1.0, 2.0]), 0)[0]
    assert np.all(steps == [0, 0, 1, 1])
    for k in range(1, 5):
        ends = _smoothstep_upto(np.array([0.0, 1e-300, 1.0]), k)[k]
        assert np.all(ends == 0.0)


def test_eta_endpoints_exact_and_orders_in_one_pass():
    assert eta(0.0) == 1.0 and eta(1.0) == 0.0
    assert float(eta(np.array(0.0))) == 1.0
    x = np.linspace(0.0, 1.0, 101)
    for k, v in enumerate(eta_derivs(x, 4)):
        assert np.array_equal(v, eta(x, k))
    with pytest.raises(ValueError):
        eta(x, 5)


def test_measure_cutoff_pinned():
    """The cutoff statistics the construction constants are built from."""
    stats = measure_cutoff()
    pinned = {"eta_bar": 3392.658365744336, "eta_0": 0.5,
              "ratio": 6785.316731488672}
    for name, want in pinned.items():
        assert getattr(stats, name) == pytest.approx(want, rel=1e-12), name


def test_cutoff_users_never_import_sympy():
    """The profile, the cutoff stats and the derivative barrier run on the
    closed-form cutoff derivatives alone."""
    code = "\n".join([
        "import sys",
        "import numpy as np",
        "from fraclayer.barriers import derivative_barrier",
        "from fraclayer.construction import LayerParams, build_profile",
        "from fraclayer.cutoffs import measure_cutoff",
        "prof = build_profile(LayerParams(s=0.5, alpha=5.8, beta=5.0,",
        "                                 gamma=5.5, delta=5.0, rho=2.1))",
        "x = np.exp(np.linspace(0.0, 80.0, 400))",
        "prof.eval(np.concatenate([-x, x]), 4)",
        "measure_cutoff()",
        "derivative_barrier(0.5, 5.8, 5.0, 5.5, 5.0, xbar=3.0)",
        "assert 'sympy' not in sys.modules, 'sympy was imported'",
    ])
    src = str(Path(fraclayer.__file__).resolve().parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(
        filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", code], env=env,
                         capture_output=True, text=True)
    assert out.returncode == 0, out.stderr


def test_eta_tilde_endpoints_and_monotone():
    assert float(eta_tilde(np.array([1.0]))[0]) == 0.0
    assert float(eta_tilde(np.array([0.0]))[0]) == pytest.approx(1.0, abs=1e-12)
    x = np.linspace(0, 1, 1001)
    assert np.all(np.diff(eta_tilde(x)) < 0)
    # density matches the stated quartic Beta normalization
    assert BETA44 == pytest.approx(1.0 / 140.0)
    mid = float(eta_tilde(np.array([0.3]), 1)[0])
    assert mid == pytest.approx(-0.3 ** 3 * 0.7 ** 3 / BETA44, rel=1e-13)


def test_weight_function_properties():
    for coef in (0.2222, 0.5, 1.2):
        xb = w_weight_argmax(coef)
        assert 0.0 < xb < 1.0
        xs = np.linspace(0, 1, 20001)
        w = w_weight(coef, xs)
        assert np.min(w) >= -1e-15
        wmax = float(w_weight(coef, np.array([xb]))[0])
        assert wmax >= np.max(w) - 1e-10
        assert float(w_weight(coef, np.array([0.0]))[0]) == pytest.approx(
            coef, abs=1e-12)
        assert abs(float(w_weight(coef, np.array([1.0]))[0])) < 1e-15


# points per piece, as fractions of its width; x = 2e29 on the threshold
# profile sits in cell 0's ramp-off piece, where its blended terms cancel
_PIECE_OFFSETS = (0.08, 0.5, 0.93)
_S1 = {1: [1], 2: [-1, 1], 3: [2, -3, 1], 4: [-6, 11, -6, 1]}


def _mp_gap_jet_errors(prof, side):
    """Relative errors of gap_jet_log orders 0..4 against 50-digit mpmath
    derivatives of the exact piece formulas, with the reported bounds."""
    cx = prof.cx
    sc = cx.right if side > 0 else cx.left
    pts = []
    for j, (k, piece) in enumerate(prof._refs):
        lo, hi = prof._edges[j], prof._edges[j + 1]
        if hi > lo:
            pts += [(lo + (hi - lo) * t, k, piece) for t in _PIECE_OFFSETS]
    if prof.cx.params.alpha < 5.5:     # the threshold profile
        pts.append((math.log(2e29),) + prof._refs[int(
            prof.route(np.array([math.log(2e29)]))[0])])
    L = np.array([p[0] for p in pts])
    jets = prof.gap_jet_log(side, L, order=4)
    _, bound = prof.gap_rounding(side, L, 4)
    errs = np.zeros((5, L.size))
    with mp.workdps(50):
        for i, (Li, k, piece) in enumerate(pts):
            f = vc._mp_piece_formula(cx, sc, k, piece)
            Lmp = mp.mpf(float(Li))
            Fd = list(mp.diffs(lambda t: f(Lmp + t), 0, 4))
            for m in range(5):
                # y^m g^(m) from the t-derivatives of F(t) = g(e^(L + t))
                ref = Fd[0] if m == 0 else mp.fsum(
                    c * Fd[j + 1] for j, c in enumerate(_S1[m]))
                got = jets[m].sign[i] * mp.e ** (
                    mp.mpf(float(jets[m].logm[i])) + m * Lmp)
                errs[m, i] = float(abs(got - ref) / abs(ref))
    return L, errs, bound


@pytest.mark.parametrize("which", ["desk", "threshold"])
def test_gap_jets_match_mpmath(which, desk_profile, threshold_profile_pack):
    """Orders 0..4 of the L-space gap jets against 50-digit mpmath at three
    points of every piece, both sides.

    Each error must stay under the profile's own rounding bound,
    4 eps kappa (1 + |base| + (k + R) |L|) from `gap_rounding`. Measured on
    4000 points per profile (x = +-e^L, L in [-6, 80]) the error reaches
    1.53 eps kappa (1 + |base| + (k + R) |L|), so the bound holds with a
    margin of 2.6. At x = 2e29 on the threshold profile kappa reads 6e2,
    1e4 and 2e5 at orders 2-4, and the bound grows with it: the digit loss
    of the cancelling blend, not an evaluation error.
    """
    prof = desk_profile if which == "desk" else threshold_profile_pack[2]
    for side in (1, -1):
        L, errs, bound = _mp_gap_jet_errors(prof, side)
        worst = np.unravel_index(np.argmax(errs / bound), errs.shape)
        assert np.all(errs <= bound), (side, worst, L[worst[1]],
                                       errs[worst], bound[worst])
        assert np.all(errs[0] <= 64 * EPS * (1.0 + L))


def test_gap_jet_log_result_surface(desk_profile):
    """What callers read of `gap_jet_log`: order + 1 entries, each with
    `.sign` and `.logm` of L's shape and `.to_float()`."""
    L = np.linspace(2.0, 60.0, 12).reshape(3, 4)
    base, d, _ = desk_profile.gap_jet_L(1, L, 4)
    for order in (0, 2, 4):
        g = desk_profile.gap_jet_log(1, L, order=order)
        assert len(g) == order + 1
        for m in range(order + 1):
            assert g[m].sign.shape == L.shape == g[m].logm.shape
            assert np.array_equal(g[m].to_float(),
                                  g[m].sign * np.exp(g[m].logm))
        assert np.all(g[0].sign > 0)
        assert np.array_equal(g[0].logm.ravel(), base + np.log(d[0]))
