"""Truncated derivative stacks (jets), signed-log records, Hermite bridges.

A jet is a sequence [f, f', ..., f^(n)] of plain floats or numpy arrays.
`jet_compose` is Faa di Bruno's formula to order 4 and `leibniz` is the
product rule; the cutoffs, the layer profile's L-space pieces
(`construction`) and the derivative barrier's body (`barriers`) are built
from them. The profile hands its y-derivatives
out as `LogArray`s, signed values stored as (sign, ln |value|), which hold
any magnitude the doubly exponential scales produce.
`hermite_bridge` is the polynomial that joins two jets across an interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np


@dataclass(frozen=True)
class LogArray:
    """Signed values stored as sign in {-1, 0, 1} and ln |value|."""

    sign: np.ndarray
    logm: np.ndarray

    def to_float(self):
        with np.errstate(over="ignore"):
            return self.sign * np.exp(self.logm)


def leibniz(f, g) -> list:
    """Jet of the product f g, to the lower of the two orders."""
    n = min(len(f), len(g)) - 1
    return [sum(math.comb(k, j) * (f[j] * g[k - j]) for j in range(k + 1))
            for k in range(n + 1)]


def jet_compose(outer, g) -> list:
    """Faa di Bruno to order 4: outer[i] is F^{(i)} evaluated at g[0]."""
    n = len(g) - 1
    F = outer
    g1 = g[1] if n >= 1 else None
    comps = [F[0]]
    if n >= 1:
        comps.append(F[1] * g1)
    if n >= 2:
        comps.append(F[2] * (g1 * g1) + F[1] * g[2])
    if n >= 3:
        comps.append(F[3] * (g1 * g1 * g1) + 3.0 * (F[2] * (g1 * g[2]))
                     + F[1] * g[3])
    if n >= 4:
        comps.append(F[4] * (g1 * g1 * g1 * g1)
                     + 6.0 * (F[3] * (g1 * g1 * g[2]))
                     + 3.0 * (F[2] * (g[2] * g[2]))
                     + 4.0 * (F[2] * (g1 * g[3]))
                     + F[1] * g[4])
    return comps


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
