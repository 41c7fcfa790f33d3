import numpy as np
import pytest
from scipy.linalg import circulant, toeplitz

from fraclayer.gridop import (ExteriorModel, GridOperator, GridProfile,
                              exterior_constant_weights,
                              exterior_power_vector, lag_weights)
from fraclayer.kernels import fractional_kernel, perturbed_kernel


def _grid(n=64, L=8.0, values=None, rng=None):
    x = np.linspace(-L, L, n)
    if values is None:
        values = np.tanh(x)
    return GridProfile(x, values, ExteriorModel(-1.0), ExteriorModel(1.0))


def test_constant_grid_is_zero(kernel_half):
    g = _grid(values=np.full(64, 0.25),)
    g = GridProfile(g.x, np.full(64, 0.25), ExteriorModel(0.25),
                    ExteriorModel(0.25))
    vals = GridOperator(kernel_half, g).apply(g.values)
    assert np.max(np.abs(vals)) < 1e-12


def test_odd_profile_center_zero(kernel_half):
    n = 65
    x = np.linspace(-8, 8, n)
    g = GridProfile(x, np.tanh(x), ExteriorModel(-1.0), ExteriorModel(1.0))
    vals = GridOperator(kernel_half, g).apply(g.values)
    assert abs(vals[n // 2]) < 1e-12


def test_exterior_power_correction_direction(kernel_half):
    x = np.linspace(-8, 8, 64)
    base = GridProfile(x, np.tanh(x), ExteriorModel(-1.0), ExteriorModel(1.0))
    uplift = GridProfile(x, np.tanh(x), ExteriorModel(-1.0, 0.5, 1.0),
                         ExteriorModel(1.0, -0.5, 1.0))
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


def test_exterior_power_vector_matches_per_node_calls():
    x = np.linspace(-20.0, 20.0, 41)
    g = GridProfile(x, np.tanh(x), ExteriorModel(-1.0, 0.3, 1.3),
                    ExteriorModel(1.0, -0.4, 0.8))
    h = x[1] - x[0]
    lo, hi = x[0] - h / 2, x[-1] + h / 2
    for kern in (fractional_kernel(0.4), perturbed_kernel(0.4, 0.5, 2.0)):
        each = [-0.4 * kern.power_tail_integral(hi - xi, xi, 0.8, 1.0)
                + 0.3 * kern.power_tail_integral(xi - lo, xi, 1.3, -1.0)
                for xi in x]
        np.testing.assert_allclose(exterior_power_vector(kern, g), each,
                                   rtol=1e-13)


def _dense_reference(kern, g):
    """The dense assembly: M (n x n) and the offset."""
    n = len(g.x)
    h = g.x[1] - g.x[0]
    w = lag_weights(kern, h, n)
    M = toeplitz(np.concatenate([[0.0], w]))
    wl, wr = exterior_constant_weights(kern, g)
    M[np.arange(n), np.arange(n)] = -(M.sum(axis=1) + wl + wr)
    c = kern.second_moment_integral(h / 2) / h ** 2
    idx = np.arange(1, n - 1)
    M[idx, idx] -= 2 * c
    M[idx, idx - 1] += c
    M[idx, idx + 1] += c
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
    g = GridProfile(x, u, ExteriorModel(-1.0, 0.3, 1.3),
                    ExteriorModel(1.0, -0.4, 0.8))
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


@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  fractional_kernel(0.9),
                                  perturbed_kernel(0.5, 0.5, 2.0)],
                         ids=["s0.5", "s0.9", "perturbed"])
def test_circulant_eigenvalues_are_positive(kern):
    """mean(-diag) is the kernel mass beyond h/2, which bounds every lag
    weight sum of the embedding, so the preconditioner is never singular."""
    for n, L in ((64, 8.0), (2048, 200.0)):
        op = GridOperator(kern, _grid(n=n, L=L))
        assert np.min(op.eig) > 0.0


@pytest.mark.parametrize("kern", [fractional_kernel(0.5),
                                  perturbed_kernel(0.4, 0.5, 2.0)],
                         ids=["fractional", "perturbed"])
def test_circulant_solve_inverts_the_dense_circulant(kern, rng):
    """The m x m circulant of -L's linear part (periodic second difference,
    diagonal mean(-diag)) plus the shift, solved densely on the zero-padded
    vector and cut to the grid."""
    n = 64
    op = GridOperator(kern, _grid(n=n))
    m = op._m
    shift = 0.3
    col = np.zeros(m)
    col[0] = np.mean(-op.diag) + 2 * op.diag_coef + shift
    col[1:n] = -op.w
    col[m - n + 1:] = -op.w[::-1]
    col[[1, -1]] -= op.diag_coef
    v = rng.standard_normal(n)
    ref = np.linalg.solve(circulant(col), np.concatenate([v, np.zeros(m - n)]))
    got = op.precondition(v, shift)
    np.testing.assert_allclose(got, ref[:n], rtol=0,
                               atol=1e-12 * np.max(np.abs(ref)))
