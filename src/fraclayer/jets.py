"""Truncated derivative stacks (jets) over floats or signed-log numbers.

The layer profile mixes powers x^(-q) across dozens of orders of magnitude;
evaluating its pieces and their first four derivatives in (sign, log |value|)
representation avoids overflow/underflow entirely while reusing one set of
product/chain-rule formulas for both the float and the log backend.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

NEG_INF = -np.inf


class LogArray:
    """Signed values stored as sign in {-1, 0, 1} and ln |value|."""

    __slots__ = ("sign", "logm")

    def __init__(self, sign, logm):
        self.sign = np.asarray(sign, dtype=float)
        self.logm = np.asarray(logm, dtype=float)

    # -- construction ------------------------------------------------------

    @staticmethod
    def from_float(v) -> "LogArray":
        v = np.asarray(v, dtype=float)
        sign = np.sign(v)
        with np.errstate(divide="ignore"):
            logm = np.where(v == 0.0, NEG_INF, np.log(np.abs(v)))
        return LogArray(sign, logm)

    @staticmethod
    def from_log(logm) -> "LogArray":
        """Positive value given directly by its logarithm."""
        logm = np.asarray(logm, dtype=float)
        return LogArray(np.ones_like(logm), logm)

    def to_float(self):
        with np.errstate(over="ignore"):
            return self.sign * np.exp(self.logm)

    def __repr__(self):
        return f"LogArray(sign={self.sign!r}, logm={self.logm!r})"

    # -- arithmetic ---------------------------------------------------------

    @staticmethod
    def _lift(other):
        if isinstance(other, LogArray):
            return other
        return LogArray.from_float(other)

    def __mul__(self, other):
        o = self._lift(other)
        sign = self.sign * o.sign
        logm = np.where(sign == 0.0, NEG_INF, self.logm + o.logm)
        return LogArray(sign, logm)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = self._lift(other)
        sign = self.sign * o.sign
        logm = np.where(sign == 0.0, NEG_INF, self.logm - o.logm)
        return LogArray(sign, logm)

    def __rtruediv__(self, other):
        return self._lift(other).__truediv__(self)

    def __neg__(self):
        return LogArray(-self.sign, self.logm)

    def __add__(self, other):
        o = self._lift(other)
        s1, a = np.broadcast_arrays(self.sign, self.logm)
        s2, b = np.broadcast_arrays(o.sign, o.logm)
        s1, s2, a, b = np.broadcast_arrays(s1, s2, a, b)
        hi = np.maximum(a, b)
        lo = np.minimum(a, b)
        with np.errstate(invalid="ignore"):
            d = np.where(np.isneginf(hi), NEG_INF, lo - hi)
        same = s1 * s2 >= 0.0
        # same sign (or one zero): magnitudes add
        with np.errstate(divide="ignore", invalid="ignore"):
            mag_same = hi + np.log1p(np.exp(d))
            mag_diff = hi + np.log1p(-np.exp(d))
        sign_hi = np.where(a >= b, s1, s2)
        sign_same = np.where(s1 != 0.0, s1, s2)
        cancel = (~same) & (a == b)
        logm = np.where(same, mag_same, mag_diff)
        sign = np.where(same, sign_same, sign_hi)
        logm = np.where(cancel, NEG_INF, logm)
        sign = np.where(cancel, 0.0, sign)
        zero1 = s1 == 0.0
        zero2 = s2 == 0.0
        logm = np.where(zero1, b, np.where(zero2, a, logm))
        sign = np.where(zero1, s2, np.where(zero2, s1, sign))
        return LogArray(sign, logm)

    __radd__ = __add__

    def __sub__(self, other):
        return self.__add__(-self._lift(other))

    def __rsub__(self, other):
        return (-self).__add__(self._lift(other))

    def __pow__(self, p: float):
        if np.any(self.sign < 0):
            raise ValueError("power of a negative log value")
        return LogArray(np.where(self.sign == 0.0, 0.0, 1.0), self.logm * p)


class FloatOps:
    """Backend of plain numpy arithmetic."""

    @staticmethod
    def const(c):
        return float(c)

    @staticmethod
    def exp(v):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(v)

    @staticmethod
    def log(v):
        return np.log(v)

    @staticmethod
    def to_float(v):
        return v

    @staticmethod
    def from_log(logm):
        with np.errstate(over="ignore", under="ignore"):
            return np.exp(logm)


class LogOps:
    """Backend of signed-log arithmetic."""

    @staticmethod
    def const(c):
        return LogArray.from_float(float(c))

    @staticmethod
    def exp(v):
        arg = v.to_float() if isinstance(v, LogArray) else v
        return LogArray.from_log(np.asarray(arg, dtype=float))

    @staticmethod
    def log(v):
        if isinstance(v, LogArray):
            if np.any(v.sign <= 0):
                raise ValueError("log of non-positive value")
            return LogArray.from_float(v.logm)
        return LogArray.from_float(np.log(v))

    @staticmethod
    def to_float(v):
        return v.to_float() if isinstance(v, LogArray) else v

    @staticmethod
    def from_log(logm):
        return LogArray.from_log(logm)


FLOAT_OPS = FloatOps()
LOG_OPS = LogOps()


@dataclass
class Jet:
    """Value and first `order` derivatives with respect to the base variable."""

    f: tuple

    @property
    def order(self) -> int:
        return len(self.f) - 1

    def __getitem__(self, i):
        return self.f[i]

    def __add__(self, other):
        if isinstance(other, Jet):
            return Jet(tuple(a + b for a, b in zip(self.f, other.f)))
        return Jet((self.f[0] + other,) + self.f[1:])

    __radd__ = __add__

    def __neg__(self):
        return Jet(tuple(-a for a in self.f))

    def __sub__(self, other):
        if isinstance(other, Jet):
            return Jet(tuple(a - b for a, b in zip(self.f, other.f)))
        return Jet((self.f[0] - other,) + self.f[1:])

    def __rsub__(self, other):
        return (-self).__add__(other)

    def __mul__(self, other):
        if not isinstance(other, Jet):
            return Jet(tuple(a * other for a in self.f))
        n = min(self.order, other.order)
        comps = []
        for k in range(n + 1):
            acc = None
            for j in range(k + 1):
                term = math.comb(k, j) * (self.f[j] * other.f[k - j])
                acc = term if acc is None else acc + term
            comps.append(acc)
        return Jet(tuple(comps))

    __rmul__ = __mul__


def jet_var(x, order: int = 4) -> Jet:
    """The identity jet of the base variable."""
    one = np.ones_like(np.asarray(x, dtype=float)) if not isinstance(x, LogArray) \
        else LogArray.from_float(np.ones(np.broadcast(x.sign).shape))
    zero = one * 0.0 if not isinstance(x, LogArray) \
        else LogArray(np.zeros_like(one.sign), np.full_like(one.logm, NEG_INF))
    comps = [x, one] + [zero] * (order - 1)
    return Jet(tuple(comps[:order + 1]))


def jet_const(c, order: int = 4) -> Jet:
    return Jet((c,) + (0.0,) * order)


def jet_compose(outer: list, g: Jet) -> Jet:
    """Faa di Bruno to order 4: outer[i] is F^{(i)} evaluated at g[0]."""
    n = g.order
    F = outer
    g1 = g.f[1] if n >= 1 else None
    comps = [F[0]]
    if n >= 1:
        comps.append(F[1] * g1)
    if n >= 2:
        comps.append(F[2] * (g1 * g1) + F[1] * g.f[2])
    if n >= 3:
        comps.append(F[3] * (g1 * g1 * g1) + 3.0 * (F[2] * (g1 * g.f[2]))
                     + F[1] * g.f[3])
    if n >= 4:
        comps.append(F[4] * (g1 * g1 * g1 * g1)
                     + 6.0 * (F[3] * (g1 * g1 * g.f[2]))
                     + 3.0 * (F[2] * (g.f[2] * g.f[2]))
                     + 4.0 * (F[2] * (g1 * g.f[3]))
                     + F[1] * g.f[4])
    return Jet(tuple(comps))


def jet_exp(g: Jet, ops) -> Jet:
    E = ops.exp(g.f[0])
    return jet_compose([E] * (g.order + 1), g)


def jet_log(g: Jet, ops) -> Jet:
    g0 = g.f[0]
    inv = 1.0 / g0 if not isinstance(g0, LogArray) else LogArray.from_float(1.0) / g0
    outer = [ops.log(g0), inv, -(inv * inv), 2.0 * (inv * inv * inv),
             -6.0 * (inv * inv * inv * inv)]
    return jet_compose(outer[:g.order + 1], g)


def jet_pow(g: Jet, p: float, ops) -> Jet:
    """g(x)^p for positive g."""
    g0 = g.f[0]
    if isinstance(g0, LogArray):
        v = g0 ** p
        inv = LogArray.from_float(1.0) / g0
    else:
        v = g0 ** p
        inv = 1.0 / g0
    outer = [v]
    fac = 1.0
    cur = v
    for i in range(1, g.order + 1):
        fac *= (p - (i - 1))
        cur = cur * inv
        outer.append(fac * cur)
    return jet_compose(outer, g)


def hermite_bridge(a: float, b: float, left, right, mid: float | None = None):
    """Polynomial on [a, b] matching the float jet `left` at a and `right` at b.

    Each jet lists a value and its successive derivatives. An optional `mid`
    also pins the value at the midpoint (a + b) / 2, one degree higher. The
    confluent Vandermonde system is solved in the window variable
    xi = (2t - (a+b)) / (b-a) in [-1, 1].
    """
    from numpy.polynomial import Polynomial

    n = len(left) + len(right) - (1 if mid is None else 0)
    scale = 2.0 / (b - a)
    M = []
    rhs = []
    for t0, data in ((a, left), (b, right)):
        xi = (2.0 * t0 - (a + b)) / (b - a)
        for order, val in enumerate(data):
            row = np.zeros(n + 1)
            for j in range(order, n + 1):
                row[j] = math.perm(j, order) * xi ** (j - order) * scale ** order
            M.append(row)
            rhs.append(val)
    if mid is not None:
        M.append(np.eye(n + 1)[0])
        rhs.append(mid)
    coef = np.linalg.solve(np.array(M), np.array(rhs))
    return Polynomial(coef, domain=[a, b], window=[-1, 1])
