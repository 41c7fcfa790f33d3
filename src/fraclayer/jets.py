"""Truncated derivative stacks (jets), signed-log numbers, Hermite bridges.

`Jet` holds a value and its first derivatives; its product is Leibniz's
rule and `jet_compose` is Faa di Bruno's formula to order 4, both on plain
floats or numpy arrays. The layer profile composes its cutoffs with them and
evaluates every piece in L = ln y as a log magnitude times moderate floats
(`construction`). It hands its y-derivatives out as `LogArray`s, signed
values stored as (sign, ln |value|), which hold any magnitude the doubly
exponential scales produce and subtract without overflow.
`hermite_bridge` is the polynomial that joins two jets across an interval.
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

    def __sub__(self, other):
        return self.__add__(-self._lift(other))


@dataclass
class Jet:
    """Value and first `order` derivatives with respect to the base variable."""

    f: tuple

    @property
    def order(self) -> int:
        return len(self.f) - 1

    def __getitem__(self, i):
        return self.f[i]

    def __mul__(self, other: "Jet") -> "Jet":
        """Leibniz's rule, to the lower of the two orders."""
        n = min(self.order, other.order)
        return Jet(tuple(sum(math.comb(k, j) * (self.f[j] * other.f[k - j])
                             for j in range(k + 1)) for k in range(n + 1)))


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
