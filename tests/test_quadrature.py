import tracemalloc
from dataclasses import replace

import numpy as np
import pytest

from fraclayer import quadrature
from fraclayer import profiles as pr
from fraclayer.errors import (NonIntegrable, PanelBudgetExceeded,
                              TruncationDominates)
from fraclayer.kernels import fractional_kernel, perturbed_kernel, symbol_constant
from fraclayer.panels import panel_integrals
from fraclayer.quadrature import (QuadConfig, _panel_sums,
                                  check_derivative_commutation,
                                  check_holder_transfer, eval_lk)

CFG = QuadConfig(tol=1e-6)


def test_constant_is_annihilated(kernel_half):
    ov = eval_lk(kernel_half, pr.constant(0.7), 1.3, CFG)
    assert abs(ov.value) < 1e-12


def test_plane_wave_symbol():
    for s in (0.25, 0.5, 0.75):
        kern = fractional_kernel(s)
        C = symbol_constant(s)
        for om in (0.5, 2.0):
            u = pr.cosine(om)
            ov = eval_lk(kern, u, 0.4, CFG)
            ref = -C * om ** (2 * s) * np.cos(om * 0.4)
            assert ov.value == pytest.approx(ref, rel=1e-4)


def test_error_budget_by_component(kernel_half):
    """The error is exactly the sum of its three parts, which bound the true
    error of a plane wave; the panel count follows the panel density."""
    wave = eval_lk(kernel_half, pr.cosine(2.0), 0.4, CFG)
    smooth = eval_lk(kernel_half, pr.tanh_profile(), 3.0, CFG)
    for ov in (wave, smooth):
        assert ov.error == ov.panel_err + ov.sing_err + ov.tail_err
        assert min(ov.panel_err, ov.sing_err, ov.tail_err) >= 0.0
        assert isinstance(ov.n_panels, int) and ov.n_panels > 0
    ref = -symbol_constant(0.5) * 2.0 * np.cos(2.0 * 0.4)
    assert abs(wave.value - ref) <= wave.error
    assert wave.tail_err > 0.0      # the oscillatory far field is charged
    dense_cfg = QuadConfig(tol=1e-6,
                           panels_per_decade=2 * CFG.panels_per_decade)
    denser = eval_lk(kernel_half, pr.tanh_profile(), 3.0, dense_cfg)
    assert denser.n_panels > smooth.n_panels


def test_tanh_self_convergence(kernel_half):
    u = pr.tanh_profile()
    coarse = eval_lk(kernel_half, u, 3.0, QuadConfig(tol=1e-9))
    dense = eval_lk(kernel_half, u, 3.0,
                    QuadConfig(tol=1e-9, panels_per_decade=12,
                               nodes_per_panel=16))
    assert abs(coarse.value - dense.value) <= coarse.error


def test_brute_force_pv_sum(kernel_half):
    """Independent trapezoid principal-value sum at 10x density."""
    u = pr.tanh_profile()
    x = 3.0
    z = np.geomspace(1e-6, 1e7, 400000)
    mid = 0.5 * (z[1:] + z[:-1])
    w = np.diff(z)
    vals = (u(x + mid) + u(x - mid) - 2 * u(np.array(x))) * kernel_half.k(mid)
    brute = float(np.sum(vals * w)) - 2.0 * float(
        (1.0 + 1.0 - 2 * u(np.array(x)))) * 0.0
    # constant-limit tail beyond the last node
    brute += (1.0 + (-1.0) - 2 * float(u(np.array(x)))) \
        * kernel_half.tail_integral(z[-1])
    ov = eval_lk(kernel_half, u, x, QuadConfig(tol=1e-9))
    assert ov.value == pytest.approx(brute, abs=1e-6)


def test_linearity(kernel_half):
    a, b = 0.6, -1.7
    u, v = pr.gaussian(), pr.tanh_profile()
    x = 0.8
    lu = eval_lk(kernel_half, u, x, CFG)
    lv = eval_lk(kernel_half, v, x, CFG)
    # a u + b v with the derivatives of both and the limits' combination as
    # c = 0 tail models
    combo = pr.ProfileFn(
        fn=lambda y: a * u(y) + b * v(y),
        derivs=tuple((lambda du, dv: lambda y: a * du(y) + b * dv(y))(du, dv)
                     for du, dv in zip(u.derivs, v.derivs)),
        tail=tuple(pr.PowerTail(a * p.limit + b * q.limit)
                   for p, q in zip(u.tail, v.tail)),
        features=u.features + v.features)
    lc = eval_lk(kernel_half, combo, x, QuadConfig(tol=1e-4))
    assert lc.value == pytest.approx(a * lu.value + b * lv.value,
                                     abs=3 * (abs(a) * lu.error
                                              + abs(b) * lv.error + lc.error
                                              + 1e-9))


def _shifted(u: pr.ProfileFn, c: float) -> pr.ProfileFn:
    """x -> u(x - c), with features and the oscillatory antiderivative
    moved accordingly."""
    tail = u.tail
    if isinstance(tail, pr.OscillatoryTail):
        U = tail.antiderivative
        tail = replace(tail, antiderivative=lambda y: U(np.asarray(y) - c))
    return replace(
        u, fn=lambda x: u.fn(np.asarray(x) - c),
        derivs=tuple((lambda d: (lambda x: d(np.asarray(x) - c)))(d)
                     for d in u.derivs),
        tail=tail, features=tuple((a + c, w) for a, w in u.features),
        name=f"{u.name}-shifted")


def test_translation_equivariance(kernel_half):
    """The shift moves the cosine's antiderivative with it: the far field's
    boundary term reads U at x + c -+ z1."""
    c = 1.3
    for u in (pr.gaussian(), pr.cosine(2.0)):
        base = eval_lk(kernel_half, u, 0.4, CFG)
        shifted = eval_lk(kernel_half, _shifted(u, c), 0.4 + c, CFG)
        assert shifted.value == pytest.approx(base.value, abs=1e-8)


def test_sign_at_maximum(kernel_half):
    ov = eval_lk(kernel_half, pr.gaussian(), 0.0, CFG)
    assert ov.value <= 1e-10


def test_non_integrable_raises():
    kern = fractional_kernel(0.75)   # 2s >= 1: Lipschitz data insufficient
    with pytest.raises(NonIntegrable):
        eval_lk(kern, pr.lipschitz_bump(), 0.2, CFG)


def test_truncation_dominates_raises():
    """tanh misses its bare limits by about 4e-9 at z1 = 10, which charges
    about 5e-9 of tail error against a tolerance of 1e-9."""
    kern = fractional_kernel(0.25)
    u = pr.ProfileFn(fn=lambda x: np.tanh(x),
                     tail=(pr.PowerTail(-1.0), pr.PowerTail(1.0)),
                     name="bare")
    with pytest.raises(TruncationDominates):
        eval_lk(kern, u, 0.0, QuadConfig(tol=1e-9, Z=10.0))


def test_commutation_gaussian_low_order():
    kern = fractional_kernel(0.25)
    rep = check_derivative_commutation(kern, pr.gaussian(), [-1.0, 0.0, 2.0],
                                       h=1e-3, cfg=CFG)
    assert rep.passed
    assert max(rep.discrepancies) < 1e-4


def test_commutation_constant(kernel_half):
    rep = check_derivative_commutation(kernel_half, pr.constant(0.3),
                                       [0.0, 1.0], h=1e-3, cfg=CFG)
    assert max(rep.discrepancies) < 1e-10


def test_commutation_plane_wave_high_order():
    kern = fractional_kernel(0.75)
    u = pr.cosine(1.0)
    rep = check_derivative_commutation(kern, u, [0.0, 0.5], h=1e-3, cfg=CFG)
    assert rep.passed
    # both sides equal the symbol derivative: C w^(2s+1) sin(w x)
    C = symbol_constant(0.75)
    du = u.derivative_profile()
    got = eval_lk(kern, du, 0.5, CFG).value
    ref = C * np.sin(0.5)
    assert got == pytest.approx(ref, rel=1e-4)


@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_derivative_profile_of_plane_wave(s):
    """u' = -w sin(w.) keeps an oscillatory tail whose antiderivative is the
    parent's u - mean, so L u' = -C(s) w^(2s) (-w sin(w x)) within error."""
    w = 2.0
    u = pr.cosine(w)
    du = u.derivative_profile()
    ys = np.linspace(-3.0, 3.0, 7)
    assert np.array_equal(du.tail.antiderivative(ys), u(ys))
    for x in (0.0, 0.4, 1.3):
        ov = eval_lk(fractional_kernel(s), du, x, CFG)
        ref = -symbol_constant(s) * w ** (2 * s) * (-w * np.sin(w * x))
        assert abs(ov.value - ref) <= ov.error


def test_holder_transfer_cap_and_preconditions():
    kern = fractional_kernel(0.25)
    u = pr.lipschitz_bump()
    rep = check_holder_transfer(kern, u, [(-0.5, 0.1), (0.0, 1.4)],
                                alpha=1.0, seminorm=1.0, cfg=CFG)
    assert rep.id == "holder-transfer-cap"
    assert rep.passed and np.isfinite(rep.worst_slack)
    for bad in ([(0.3, 0.3)], []):
        with pytest.raises(ValueError):
            check_holder_transfer(kern, u, bad, alpha=1.0, seminorm=1.0,
                                  cfg=CFG)
    const = pr.constant(0.2)
    rep2 = check_holder_transfer(kern, const, [(0.0, 1.0)], alpha=1.0,
                                 seminorm=1.0, cfg=CFG)
    # a constant profile has L u = 0 everywhere: every ratio is ~0
    assert rep2.worst_slack > 50.0 * kern.Lam - 1e-8


def test_holder_transfer_verdict_is_slack_sign(monkeypatch):
    kern = fractional_kernel(0.25)
    recs = []
    for m in (50.0, 1e-6):
        monkeypatch.setattr(quadrature, "HOLDER_CAP_MULTIPLE", m)
        recs.append(check_holder_transfer(
            kern, pr.lipschitz_bump(), [(-0.5, 0.1), (0.0, 1.4)], alpha=1.0,
            seminorm=1.0, cfg=CFG))
    assert [r.passed for r in recs] == [True, False]
    for rec in recs:
        assert rec.passed == (rec.worst_slack >= 0), rec


def test_perturbed_kernel_runs():
    kern = perturbed_kernel(0.5, 0.8, 1.2, wobble=0.7)
    ov = eval_lk(kern, pr.gaussian(), 0.3, QuadConfig(tol=1e-5))
    frac = eval_lk(fractional_kernel(0.5), pr.gaussian(), 0.3, CFG)
    assert np.isfinite(ov.value)
    # ellipticity ordering of the negative-definite value at the max
    ov0 = eval_lk(kern, pr.gaussian(), 0.0, QuadConfig(tol=1e-5))
    f0 = eval_lk(fractional_kernel(0.5), pr.gaussian(), 0.0, CFG)
    assert 0.8 * abs(f0.value) - 1e-4 <= abs(ov0.value) <= 1.2 * abs(f0.value) + 1e-4


def _traced(fn):
    """fn's result (or the exception it raised) and its tracemalloc peak."""
    tracemalloc.start()
    try:
        out = fn()
    except Exception as e:  # the caller asserts on it
        out = e
    finally:
        peak = tracemalloc.get_traced_memory()[1]
        tracemalloc.stop()
    return out, peak


def test_oscillatory_far_field_memory_is_bounded():
    """s = 0.1, w = 4 at tol 1e-12 lays out about 788k refined panels; the
    streamed panel sums keep the whole call under 32 MB (6 MB measured; one
    array of 808k panels took 414 MB)."""
    kern = fractional_kernel(0.1)
    u = pr.cosine(4.0)
    ov, peak = _traced(lambda: eval_lk(kern, u, 0.0, QuadConfig(tol=1e-12)))
    assert peak <= 32 * 2 ** 20, f"peak {peak / 2 ** 20:.1f} MB"
    ref = -symbol_constant(0.1) * 4.0 ** 0.2
    assert abs(ov.value - ref) <= 1e-9
    assert abs(ov.value - ref) <= ov.error
    assert ov.n_panels > 780_000


# Far fields above the 2^22 panel budget, one per tail rule: the perturbed
# kernel's first-order bound needs 6.1M refined panels at w = 1e5, the power
# kernel's second-order one 9.4M at w = 1e8.
_OVER_BUDGET = {1e5: (perturbed_kernel(0.1, 0.5, 1.5), CFG),
                1e8: (fractional_kernel(0.5), QuadConfig(tol=1e-12))}


@pytest.mark.parametrize("omega", [1e5, 1e8])
def test_panel_budget_raises_before_allocating(omega):
    """Far fields above the panel budget raise a typed error instead of
    laying out their panels."""
    kern, cfg = _OVER_BUDGET[omega]
    u = pr.cosine(omega)
    err, peak = _traced(lambda: eval_lk(kern, u, 0.0, cfg))
    assert isinstance(err, PanelBudgetExceeded), err
    assert "budget" in str(err)
    assert peak < 2 ** 20, f"peak {peak / 2 ** 20:.2f} MB"


# OpValues (value, panel_err, tail_err, n_panels) pinned from the earlier
# panel sums, which took the coarse and the refined panels as one array each.
# The tanh calls fit in one block of the streamed sums and stay bit-identical;
# the plane wave (9100 refined panels) spans 3 blocks and agrees up to
# summation order. Its pin comes from the streamed sums with _BLOCK raised
# above the panel count, so one block of one array each.
_TANH_PINNED = {
    "fractional": (-1.693428666007998, 9.103828801926284e-15, 0.0, 204),
    "tabulated-perturbation": (-1.8747331160901384, 1.0658141036401503e-14,
                               0.0, 204),
}


def test_streamed_panel_sums_match_single_array_sums():
    for kern in (fractional_kernel(0.5), perturbed_kernel(0.5, 0.5, 1.5)):
        ov = eval_lk(kern, pr.tanh_profile(), 0.7, CFG)
        assert (ov.value, ov.panel_err, ov.tail_err, ov.n_panels) == \
            _TANH_PINNED[kern.form]
    value, panel_err, tail_err, n_panels = (
        -4.6175150605639335, 8.881784197001252e-16, 2.4999999999999965e-10,
        9100)
    ov = eval_lk(fractional_kernel(0.25), pr.cosine(1.0), 0.4,
                 QuadConfig(tol=1e-9))
    assert ov.n_panels == n_panels
    assert ov.tail_err == tail_err
    scale = 1e-13 * max(1.0, abs(value))
    assert abs(ov.value - value) <= scale
    assert abs(ov.panel_err - panel_err) <= scale


def test_refined_panels_drop_midpoints_that_round_onto_an_edge():
    """The midpoint of [1, 1 + ulp] rounds to 1: the refined sum keeps the
    other panels, as the sorted, deduplicated refined edges would."""
    kern, u, x = fractional_kernel(0.5), pr.gaussian(), 0.3
    ux = float(u(np.array(x)))
    edges = np.array([1.0, np.nextafter(1.0, 2.0), 2.0, 4.0])
    coarse, fine, n_fine = _panel_sums(kern, u, x, ux, edges, 12)
    ref = np.unique(np.concatenate([edges, np.sqrt(edges[:-1] * edges[1:])]))
    assert n_fine == len(ref) - 1 == 5

    def increment(z):
        return (u(x + z) + u(x - z) - 2.0 * ux) * kern.k(z)

    assert fine == float(np.sum(panel_integrals(increment, ref[:-1], ref[1:],
                                                12)))


@pytest.mark.parametrize("tol", [1e-6, 1e-8])
@pytest.mark.parametrize("x", [0.0, 1.3])
@pytest.mark.parametrize("omega", [0.5, 2.0, 1e3, 1e5])
@pytest.mark.parametrize("s", [0.1, 0.3, 0.5, 0.7, 0.9])
def test_plane_wave_error_bounds_true_error(s, omega, x, tol):
    """|true - value| <= error over s, w, x and tol.

    Every case, s = 0.1 at tol = 1e-8 included, keeps its far field well
    inside the truncation radius and the panel budget (the largest,
    s = 0.9, w = 1e5, tol = 1e-8, lays out 52k refined panels); the budget's
    error path is tested above.
    """
    kern, u, cfg = fractional_kernel(s), pr.cosine(omega), QuadConfig(tol=tol)
    ov = eval_lk(kern, u, x, cfg)
    true = -symbol_constant(s) * omega ** (2 * s) * np.cos(omega * x)
    assert abs(true - ov.value) <= ov.error


@pytest.mark.parametrize("omega", [1e3, 1e5, 1e8])
@pytest.mark.parametrize("s", [0.1, 0.5, 0.9])
def test_singular_cell_resolves_high_frequencies(s, omega):
    """The default singular cell stays below a hundredth of T/2pi. At
    r0 = 1e-3 it spanned 16 periods of cos(1e5 x), and the values at x = 0
    erred by 30.8, 4.98 and 1.07 relative at s = 0.5, 0.75 and 0.9, each
    beyond the reported error."""
    ov = eval_lk(fractional_kernel(s), pr.cosine(omega), 0.0, CFG)
    true = -symbol_constant(s) * omega ** (2 * s)
    assert abs(true - ov.value) <= ov.error
    assert abs(true - ov.value) <= 2.5e-7 * abs(true)


def test_perturbed_kernel_keeps_the_first_order_far_field():
    """A tabulated multiplier has no K', so its oscillatory far field keeps
    the first-order bound: OpValues (value, panel_err, sing_err, tail_err,
    n_panels) pinned from before the boundary term was added. The s = 0.25
    value moved 4 ulps when tail_integral's ladder ran on past 40 rungs:
    its kernel mass beyond z1 then errs by 8e-18, not 1.8e-15, against the
    closed form."""
    pinned = {
        (0.5, 1.0, 0.4): (-3.2396113094065697, 2.220446049250313e-15,
                          8.292316983660776e-07, 2.5000000000000004e-07, 3180),
        (0.25, 2.0, 1.3): (6.740706720363189, 2.6645352591003757e-15,
                           8.353225311128818e-07, 2.500000000000002e-07,
                           66796),
    }
    for (s, w, x), want in pinned.items():
        ov = eval_lk(perturbed_kernel(s, 0.5, 1.5), pr.cosine(w), x, CFG)
        assert (ov.value, ov.panel_err, ov.sing_err, ov.tail_err,
                ov.n_panels) == want
