import itertools
import time
import tracemalloc

import numpy as np
import pytest
from scipy.linalg import circulant, toeplitz

from fraclayer.gridop import (PIECE_POINTS, GridOperator, GridProfile,
                              PowerTailTable, exterior_constant_weights,
                              exterior_power_vector, lag_weights)
from fraclayer.kernels import fractional_kernel, perturbed_kernel
from fraclayer.profiles import PowerTail


def _grid(n=64, L=8.0, values=None, rng=None):
    x = np.linspace(-L, L, n)
    if values is None:
        values = np.tanh(x)
    return GridProfile(x, values, PowerTail(-1.0), PowerTail(1.0))


def test_constant_grid_is_zero(kernel_half):
    g = _grid(values=np.full(64, 0.25),)
    g = GridProfile(g.x, np.full(64, 0.25), PowerTail(0.25),
                    PowerTail(0.25))
    vals = GridOperator(kernel_half, g).apply(g.values)
    assert np.max(np.abs(vals)) < 1e-12


def test_odd_profile_center_zero(kernel_half):
    n = 65
    x = np.linspace(-8, 8, n)
    g = GridProfile(x, np.tanh(x), PowerTail(-1.0), PowerTail(1.0))
    vals = GridOperator(kernel_half, g).apply(g.values)
    assert abs(vals[n // 2]) < 1e-12


def test_exterior_power_correction_direction(kernel_half):
    x = np.linspace(-8, 8, 64)
    base = GridProfile(x, np.tanh(x), PowerTail(-1.0), PowerTail(1.0))
    uplift = GridProfile(x, np.tanh(x), PowerTail(-1.0, 0.5, 1.0),
                         PowerTail(1.0, -0.5, 1.0))
    v0 = GridOperator(kernel_half, base).apply(base.values)
    v1 = GridOperator(kernel_half, uplift).apply(uplift.values)
    # lifted left exterior and lowered right exterior pull values down at the
    # right edge and up at the left edge
    assert v1[0] > v0[0]
    assert v1[-1] < v0[-1]


@pytest.mark.parametrize("L", [60.0, 200.0, 800.0])
@pytest.mark.parametrize("k", [14, 16])
def test_uniformity_check_accepts_fine_linspace_grids(L, k):
    from fraclayer.solver import make_grid

    kern = fractional_kernel(0.5)
    g = make_grid(L, 2 ** k)
    assert len(GridOperator(kern, g).w) == 2 ** k - 1
    x = g.x.copy()
    x[len(x) // 3] += 1e-6 * (x[1] - x[0])   # one interior node off the grid
    off = GridProfile(x, g.values)
    with pytest.raises(ValueError, match="uniform"):
        GridOperator(kern, off)


def test_lag_weights_match_interval(kernel_half):
    w = lag_weights(kernel_half, 0.5, 5)
    for l in range(1, 5):
        ref = kernel_half.interval_integral(l * 0.5 - 0.25, l * 0.5 + 0.25)
        assert w[l - 1] == pytest.approx(float(ref), rel=1e-13)


def test_perturbed_kernel_grid():
    kern = perturbed_kernel(0.5, 0.7, 1.3)
    g = _grid(n=48)
    vals = GridOperator(kern, g).apply(g.values)
    assert np.all(np.isfinite(vals))


def _multiplier(kern):
    """(mid, amp) of m(z) = mid + amp cos(ln z): amp = 0 for the power
    kernel, whose lam = Lam = 1, and m(1) - mid for the perturbed one."""
    mid = 0.5 * (kern.lam + kern.Lam)
    return mid, float(kern.k(1.0)) - mid


def _exterior_mass(kern, b, d, p):
    """I_p(d) = int_0^inf (b + w)^(-p) K(d + w) dw to 20 digits, b the
    edge's |y|. For K = z^(-r) it is b^(-p) d^(1-r) 2F1(p, 1; p + r;
    1 - d/b) / (p + r - 1); the perturbed multiplier mid + amp cos(ln z) =
    mid + amp Re z^(-i) adds amp times the real part at r - i."""
    import mpmath

    mid, amp = _multiplier(kern)
    with mpmath.workdps(20):
        b, d, p = mpmath.mpf(b), mpmath.mpf(d), mpmath.mpf(p)
        r = 1 + 2 * mpmath.mpf(kern.s)

        def power(rr):
            return b ** -p * d ** (1 - rr) / (p + rr - 1) * mpmath.hyp2f1(
                p, 1, p + rr, 1 - d / b)

        out = mid * power(r)
        if amp:
            out += amp * mpmath.re(power(r - 1j))
        return float(out)


@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  perturbed_kernel(0.5, 0.5, 2.0, wobble=1)],
                         ids=["fractional", "perturbed"])
def test_exterior_constant_weights_match_the_ladder_in_linear_time(kern):
    """One tail integral at the farthest node plus a running sum of the lag
    weights gives every node's exterior mass within 1e-12 relative of
    tail_integral at that node, from both ends, and a 2^16-node build takes
    under 0.5 s. Run through every rung of the perturbed kernel's ladder,
    the n distances made that build take 4.6-5.7 s (0.07 s now on a 2-vCPU
    x86_64 VM)."""
    n, h = 2 ** 16, 0.25
    x = (np.arange(n) - (n - 1) / 2) * h      # exactly uniform
    t0 = time.perf_counter()
    op = GridOperator(kern, GridProfile(x, np.tanh(x / 5)))
    took = time.perf_counter() - t0
    nodes = np.concatenate([np.arange(0, n, 4099), [n - 2, n - 1]])
    want = kern.tail_integral((nodes + 0.5) * h)
    np.testing.assert_allclose(op.wl[nodes], want, rtol=1e-12, atol=0)
    np.testing.assert_allclose(op.wr[n - 1 - nodes], want, rtol=1e-12,
                               atol=0)
    assert took < 0.5


def test_exterior_mass_oracle_matches_quadrature():
    import mpmath

    for kern in (fractional_kernel(0.25), perturbed_kernel(0.75, 0.5, 2.0)):
        mid, amp = _multiplier(kern)
        for b, d, p in ((200.1, 0.05, 0.06), (20.5, 40.0, 2.0)):
            with mpmath.workdps(20):
                quad = mpmath.quad(
                    lambda w: (b + w) ** -p * (d + w) ** (-1 - 2 * kern.s)
                    * (mid + amp * mpmath.cos(mpmath.log(d + w))),
                    [0, d, b, 1e3 * (b + d), mpmath.inf])
            assert _exterior_mass(kern, b, d, p) == pytest.approx(
                float(quad), rel=1e-14)


def test_exterior_power_vector_matches_mpmath():
    """c I_p against the 2F1 closed form to 1e-12 relative, at nodes 0, 1,
    10, n/2, n-2 and n-1, under both kernel forms: each side alone on a
    41-node grid and on criterion 9a's L = 200, n = 2048 grid, and both
    sides at once, with different exponents, on those and on a grid over
    [-20, 30], whose edges lie at different distances from the origin.
    Without its far tail the table errs by 4e-11; with 12 points a piece,
    by 2e-12."""
    for (lo, hi, n), s, p, sides in itertools.product(
            ((-20.0, 20.0, 41), (-200.0, 200.0, 2048), (-20.0, 30.0, 2048)),
            (0.25, 0.5, 0.75), (0.06, 0.29, 1.0, 2.0, 9.9),
            ((1,), (-1,), (1, -1))):
        if lo != -hi and len(sides) == 1:
            continue
        x = np.linspace(lo, hi, n)
        h = x[1] - x[0]
        nodes = [0, 1, 10, n // 2, n - 2, n - 1]
        # with both sides modelled, the left decays at another rate
        ps = {1: p, -1: p if len(sides) == 1 else 0.5 * p + 0.05}
        g = GridProfile(x, np.tanh(x), *(
            PowerTail(float(side), -0.7, ps[side]) if side in sides
            else PowerTail(float(side)) for side in (-1, 1)))
        for kern in (fractional_kernel(s),
                     perturbed_kernel(s, 0.5, 2.0, wobble=1.0)):
            want = np.zeros(len(nodes))
            for side in sides:
                edge = x[-1] + h / 2 if side > 0 else x[0] - h / 2
                want -= [0.7 * _exterior_mass(
                    kern, abs(edge), side * (edge - x[i]), ps[side])
                    for i in nodes]
            np.testing.assert_allclose(
                exterior_power_vector(kern, g)[nodes], want, rtol=1e-12,
                err_msg=f"{kern.form} s={s} p={p} sides={sides} n={n}")


@pytest.mark.parametrize("n, L", [(41, 20.0), (2048, 200.0)])
@pytest.mark.parametrize("s", [0.25, 0.75])
def test_table_dp_is_the_derivative_in_p(n, L, s):
    """PowerTailTable.dp matches the central difference of the table in p
    (step 1e-5) to 1e-7 relative at every node, on either side, though it
    leaves out the far tail's share (measured: 9.1e-10 at worst)."""
    x = np.linspace(-L, L, n)
    table = PowerTailTable(fractional_kernel(s), x)
    eps = 1e-5
    for p, side in itertools.product((0.29, 1.0, 2.5), (1, -1)):
        fd = (table(p + eps, side) - table(p - eps, side)) / (2.0 * eps)
        np.testing.assert_allclose(table.dp(p, side), fd, rtol=1e-7,
                                   err_msg=f"p={p} side={side}")


@pytest.mark.parametrize("values, p_left, p_right", [
    (np.zeros(8), 1.0, 1.0),
    (np.full(9, 1.5), 1.0, 1.0),
    (np.zeros(9), 1.0, 0.0),
    (np.zeros(9), -0.5, 1.0),
    (np.zeros(9), 1.0, float("nan")),
], ids=["shape", "range", "p-zero", "p-negative", "p-nan"])
def test_grid_profile_validation(values, p_left, p_right):
    """Mismatched shapes, values outside [-1, 1] and a far-field model with
    p <= 0 (or NaN) are rejected; PowerTail itself rejects the exponent."""
    x = np.linspace(-4.0, 4.0, 9)
    with pytest.raises(ValueError):
        GridProfile(x, values, PowerTail(-1.0, 0.3, p_left),
                    PowerTail(1.0, -0.3, p_right))


def test_power_model_needs_the_origin_inside_the_grid():
    """|y|^(-p) beyond the edge would pass its singularity at y = 0."""
    x = np.linspace(1.0, 5.0, 9)
    g = GridProfile(x, np.full(9, 0.5), PowerTail(0.5, 0.3, 1.0),
                    PowerTail(1.0))
    with pytest.raises(ValueError, match="origin"):
        exterior_power_vector(fractional_kernel(0.5), g)


def _array_bytes(obj) -> int:
    """Bytes of the ndarrays in obj, a dict or a tuple of them."""
    if isinstance(obj, np.ndarray):
        return obj.nbytes
    if isinstance(obj, (dict, tuple)):
        vals = obj.values() if isinstance(obj, dict) else obj
        return sum(_array_bytes(v) for v in vals)
    return 0


def test_refit_allocates_a_few_vectors():
    """update_exterior at n = 2^16 allocates under 4 MB, 8 n-vectors: the
    table's basis is built once, with the operator, and a refit forms no
    n x PIECE_POINTS array (the old 24-node rule took 26.6 MB, 53
    n-vectors). With power models on both sides the table holds one basis,
    under PIECE_POINTS + 4 n-vectors in all."""
    from fraclayer.solver import make_grid

    n = 2 ** 16
    g = make_grid(200.0, n)
    g.ext_left, g.ext_right = (PowerTail(-1.0, 0.5, 0.9),
                               PowerTail(1.0, -0.5, 0.9))
    op = GridOperator(fractional_kernel(0.5), g)
    g.ext_left, g.ext_right = (PowerTail(-1.0, 0.4, 0.6),
                               PowerTail(1.0, -0.4, 0.6))
    tracemalloc.start()
    try:
        op.update_exterior(g)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < 4 * 2 ** 20
    assert _array_bytes(vars(op._table)) < (PIECE_POINTS + 4) * 8 * n
    np.testing.assert_allclose(op.ext_power, exterior_power_vector(
        fractional_kernel(0.5), g), rtol=1e-14)


def _dense_reference(kern, g):
    """The dense assembly: M (n x n) and the offset."""
    n = len(g.x)
    h = g.x[1] - g.x[0]
    w = lag_weights(kern, h, n)
    M = toeplitz(np.concatenate([[0.0], w]))
    wl, wr = exterior_constant_weights(kern, h, w)
    M[np.arange(n), np.arange(n)] = -(M.sum(axis=1) + wl + wr)
    c = kern.second_moment_integral(h / 2) / h ** 2
    D = np.diff(np.eye(n), axis=0)      # Neumann second difference: -D^T D
    M -= c * D.T @ D
    offset = (g.ext_left.limit * wl + g.ext_right.limit * wr
              + exterior_power_vector(kern, g))
    return M, offset


@pytest.mark.parametrize("n", [3, 64, 257, 2048])
@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  perturbed_kernel(0.4, 0.5, 2.0)],
                         ids=["fractional", "perturbed"])
def test_fft_operator_matches_dense_toeplitz(kern, n):
    rng = np.random.default_rng(n)
    x = np.linspace(-30.0, 30.0, n)
    u = np.clip(np.tanh(x / 4) + 0.1 * rng.standard_normal(n), -1, 1)
    g = GridProfile(x, u, PowerTail(-1.0, 0.3, 1.3),
                    PowerTail(1.0, -0.4, 0.8))
    M, offset = _dense_reference(kern, g)
    op = GridOperator(kern, g)
    outflow = -np.diag(M)
    assert op.tau_bounds(0.0) == pytest.approx(
        (0.4 / np.max(outflow), 1.0 / (np.finfo(float).eps * np.min(outflow))),
        rel=1e-13)
    scale = np.max(outflow)
    np.testing.assert_allclose(op.apply(u), M @ u + offset, rtol=0,
                               atol=1e-12 * scale)
    np.testing.assert_allclose(op.jacobian_apply(u), M @ u, rtol=0,
                               atol=1e-12 * scale)
    v, w = rng.standard_normal((2, n))
    asym = v @ op.jacobian_apply(w) - w @ op.jacobian_apply(v)
    assert abs(asym) <= (1e-13 * op.outflow * np.linalg.norm(v)
                         * np.linalg.norm(w))


@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  fractional_kernel(0.9),
                                  perturbed_kernel(0.5, 0.5, 2.0)],
                         ids=["s0.5", "s0.9", "perturbed"])
def test_circulant_eigenvalues_are_positive(kern):
    """The outflow is the kernel mass beyond h/2, which bounds every lag
    weight sum of the embedding, so the preconditioner is never singular."""
    for n, L in ((64, 8.0), (2048, 200.0)):
        op = GridOperator(kern, _grid(n=n, L=L))
        assert np.min(op.eig) > 0.0


@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  perturbed_kernel(0.4, 0.5, 2.0)],
                         ids=["fractional", "perturbed"])
def test_circulant_solve_inverts_the_dense_circulant(kern, rng):
    """The m x m circulant of -L's linear part (periodic second difference,
    diagonal outflow) plus the shift, solved densely on the zero-padded
    vector and cut to the grid."""
    n = 64
    op = GridOperator(kern, _grid(n=n))
    m = op._m
    shift = 0.3
    col = np.zeros(m)
    col[0] = op.outflow + 2 * op.diag_coef + shift
    col[1:n] = -op.w
    col[m - n + 1:] = -op.w[::-1]
    col[[1, -1]] -= op.diag_coef
    v = rng.standard_normal(n)
    ref = np.linalg.solve(circulant(col), np.concatenate([v, np.zeros(m - n)]))
    got = op.precondition(v, shift)
    np.testing.assert_allclose(got, ref[:n], rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))
