"""Gauss-Legendre panel quadrature: the one rule behind every integral.

Operator values, kernel masses, barrier masses, grid weights, well integrals
and the slope mass all integrate panel by panel with an n-point
Gauss-Legendre rule. This module is the only place that builds the rule.
"""

from __future__ import annotations

from functools import lru_cache

import numpy as np
from numpy.polynomial.legendre import leggauss


@lru_cache(maxsize=None)
def gauss_rule(n: int) -> tuple[np.ndarray, np.ndarray]:
    """n-point Gauss-Legendre nodes and weights on [-1, 1].

    Cached, so every caller shares one pair of arrays; both are read-only.
    """
    t, w = leggauss(n)
    t.flags.writeable = False
    w.flags.writeable = False
    return t, w


def panel_integrals(f, a, b, nodes: int) -> np.ndarray:
    """Integral of f over each panel [a, b] by the n-node rule.

    a and b broadcast to the panels' shape P; f is called once, on the
    abscissae array of shape P + (nodes,), and returns values that broadcast
    against it (f may add leading axes of its own, which the result keeps).
    Take the sum for the integral over the union of panels, or the running
    sum for a cumulative integral. The rule is exact on polynomials of
    degree up to 2 * nodes - 1.
    """
    t, w = gauss_rule(nodes)
    a = np.asarray(a, dtype=float)
    b = np.asarray(b, dtype=float)
    mid = 0.5 * (a + b)
    half = 0.5 * (b - a)
    x = mid[..., None] + half[..., None] * t
    return f(x) @ w * half
