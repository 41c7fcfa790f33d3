import numpy as np
import pytest

from fraclayer import profiles
from fraclayer.barriers import (StepBarrier, TailBarrier,
                                asymptotic_operator_limit, derivative_barrier,
                                exact_power_bump, flatness_proxy,
                                lower_bound_barrier, step_barrier_operator,
                                step_constant_cap, verify_step_barrier)
from fraclayer.errors import (ExponentNotIntegrable, FlatnessViolated,
                              InvariantViolated)
from fraclayer.kernels import fractional_kernel
from fraclayer.profiles import PowerTail, ProfileFn


def test_step_barrier_invariant():
    with pytest.raises(InvariantViolated):
        StepBarrier(xbar=2.0, alpha=0.1, A=0.5, B=0.99, D=0.5)
    b = StepBarrier(xbar=2.0, alpha=0.1, A=0.5, B=0.5, D=0.6)
    assert b(np.array([-1.0]))[0] == 0.5
    assert b(np.array([1.0]))[0] == 0.6
    assert b(np.array([4.0]))[0] == 1.0 - 0.1 * 4.0 ** -0.5


def test_no_jump_barrier_closed_form(kernel_half):
    """With both levels at the tail value, the left half-line dominates and
    has the closed-form contribution -(1 - B - alpha x^-A) / (2s)."""
    alpha, A, xbar = 0.1, 1.0, 2.0
    lvl = 1.0 - alpha * xbar ** (-A)
    b = StepBarrier(xbar=xbar, alpha=alpha, A=A, B=lvl, D=lvl)
    x = 50.0 * xbar
    v = x * step_barrier_operator(kernel_half, b, x)   # x^(2s), 2s = 1
    first_piece = -(1.0 - b.B - alpha * x ** (-A))
    assert v <= first_piece + 0.3 * alpha * x ** (-A)
    assert v <= -(1.0 - b.B) * 0.5


def test_step_barrier_suite(kernel_half):
    b = StepBarrier(xbar=2.0, alpha=0.1, A=0.25, B=0.5, D=0.5)
    cap = step_constant_cap(0.5)
    rep = verify_step_barrier(kernel_half, b, [10.0, 100.0, 1000.0], cap)
    assert rep.negative and rep.passed
    with pytest.raises(ValueError):
        verify_step_barrier(kernel_half, b, [3.0], cap)


def test_exact_power_two_sided_bracket(kernel_half):
    tb = exact_power_bump(2.0, 1.0)
    xs = [1e3, 1e4, 1e5]
    up = asymptotic_operator_limit(kernel_half, tb, xs, "upper")
    assert up.passed
    lo_tb = TailBarrier(Cbar=0.5 * tb.Cbar, kappa=1.0, sigma=2.0, tau=2.0,
                        gamma_low=tb.gamma_low, body=tb.body)
    lo = asymptotic_operator_limit(kernel_half, lo_tb, xs, "lower")
    assert lo.passed
    assert lo.bound <= up.estimate <= up.bound


def test_compact_bump_limit_is_mass(kernel_half, monkeypatch):
    """Fast-decaying bump: both kappa terms vanish, the limit is the mass."""
    monkeypatch.setattr(profiles, "GAUSSIAN_WIDTH", 0.5)
    body = profiles.gaussian()
    tb = TailBarrier(Cbar=1e-10, kappa=1.5, sigma=3.0, tau=3.0,
                     gamma_low=float(body(np.array([1.5]))[0]), body=body)
    rep = asymptotic_operator_limit(kernel_half, tb, [300.0, 1e3, 3e3],
                                    "upper")
    mass = np.sqrt(np.pi) * 0.5
    assert rep.estimate == pytest.approx(mass, rel=0.05)


def test_flatness_violation_detected(kernel_half):
    from fraclayer.profiles import cosine

    wavy = cosine(1.0)
    tb = TailBarrier(Cbar=1.0, kappa=1.0, sigma=2.0, tau=2.0, gamma_low=0.5,
                     body=wavy)
    with pytest.raises(FlatnessViolated):
        asymptotic_operator_limit(kernel_half, tb, [10.0, 100.0, 1000.0],
                                  "upper")
    with pytest.raises(ValueError):
        asymptotic_operator_limit(kernel_half, tb, [], "upper")


def test_lower_bound_barrier_formulas():
    cap = step_constant_cap(0.5)
    b = lower_bound_barrier(0.5, 5.0, 2.0, 0.6, 0.8, 1.0, cap, 2.0)
    assert b.A == pytest.approx(0.25)
    assert b.B == 0.5 and b.D == 0.6
    expected = min((1 - 0.8) * 2.0 ** 0.25, 1.0 / (8 * cap),
                   (1.0 / 16.0) ** 0.25)
    assert b.alpha == pytest.approx(expected)
    with pytest.raises(ValueError):
        lower_bound_barrier(0.5, 5.0, 1.0, 0.6, 0.8, 1.0, cap, 2.0)


def test_lower_bound_barrier_near_one_profile():
    cap = step_constant_cap(0.5)
    b = lower_bound_barrier(0.5, 5.0, 4.0, 0.97, 0.999, 1.0, cap, 2.0)
    assert b.D <= 1.0 - b.alpha * b.xbar ** (-b.A)


def test_derivative_barrier_exponents():
    db = derivative_barrier(0.5, 5.0, 5.0 - 1e-12, 5.0, 5.0 - 1e-12, xbar=4.0)
    # equal exponents: tails are 1 + 2s/(beta-1) on both sides
    assert db.sigma == pytest.approx(1.0 + 1.0 / 4.0, rel=1e-9)
    assert db.tau == pytest.approx(1.0 + 1.0 / 4.0, rel=1e-9)
    assert derivative_barrier(0.5, 5.8, 5.0, 5.5, 5.0, xbar=6.0).gamma_low > 0
    with pytest.raises(ExponentNotIntegrable):
        derivative_barrier(0.5, 6.0, 5.0, 6.2, 5.0, xbar=4.0)


def test_derivative_barrier_exact_tails_and_smoothness():
    db = derivative_barrier(0.5, 5.8, 5.0, 5.5, 5.0, xbar=3.0)
    xs = np.array([-10.0, -4.0, 5.0, 12.0])
    vals = db.body(xs)
    refs = np.where(xs < 0, np.abs(xs) ** (-db.sigma), np.abs(xs) ** (-db.tau))
    assert np.allclose(vals, refs, rtol=1e-12)
    from fraclayer.analysis import fd_derivative

    # x = +-1.5 lie on the bump's transition, where its chain factor
    # (sgn x / xbar)^k carries the sign of x
    for x0 in (-2.4, -1.5, -0.7, 0.0, 1.5, 1.9, 2.6):
        for order, h0 in ((1, 1e-4), (2, 1e-3)):
            fd, est = fd_derivative(db.body, x0, order, h0=h0)
            an = float(db.body.deriv(order)(np.array([x0]))[0])
            assert abs(fd - an) <= max(1e-8, 10 * est), (x0, order)


@pytest.mark.parametrize("name", ["derivative-barrier", "power-bump"])
def test_derivative_tail_is_each_side_s_derivative(name):
    """Each side's model of u' is the derivative of that side's model
    limit + c |y|^(-p) of u, a central difference at y = -50 (left) and
    y = 50 (right), so a sign flipped on either side fails. The barrier's
    sides decay at different rates (sigma != tau)."""
    u = (derivative_barrier(0.5, 5.8, 5.0, 5.5, 5.0, xbar=3.0).body
         if name == "derivative-barrier" else profiles.power_tail_bump(2, 2))
    h = 1e-3
    for y, m, dm in zip((-50.0, 50.0), u.tail, u.derivative_profile().tail):
        def model(t):
            return m.limit + m.c * abs(t) ** -m.p

        assert isinstance(dm, PowerTail) and dm.limit == 0.0 and m.c != 0.0
        fd = (model(y + h) - model(y - h)) / (2.0 * h)
        assert dm.c * abs(y) ** -dm.p == pytest.approx(fd, rel=1e-6)


def test_step_cap_calibration_cached():
    c1 = step_constant_cap(0.5)
    c2 = step_constant_cap(0.5)
    assert c1 == c2 and c1 > 0
