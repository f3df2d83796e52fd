"""Adaptive Gauss-Legendre quadrature.

Integrands map a 1-d array of abscissae to values whose last axis matches
the abscissae; leading axes (if any) are integrated component-wise, which
lets callers evaluate a whole grid of transforms in one adaptive pass.
Complex values are fine.  Unbounded intervals are folded onto (0, 1) with
u = anchor +/- ((1-s)/s)^gamma, gamma set by the integrand's tail decay.
"""
from __future__ import annotations

import heapq
import itertools

import numpy as np
from numpy.polynomial.legendre import leggauss

from .errors import QuadratureFailure

_NODE_CACHE: dict[int, tuple[np.ndarray, np.ndarray]] = {}

DEFAULT_ABS_TOL = 1e-10
# folded tails beyond this distance from the anchor follow their power law
_FAR = 1e50


def _nodes(n: int):
    if n not in _NODE_CACHE:
        x, w = leggauss(n)
        _NODE_CACHE[n] = (x, w)
    return _NODE_CACHE[n]


def _panel(f, a: float, b: float, order: int):
    x, w = _nodes(order)
    half = 0.5 * (b - a)
    mid = 0.5 * (a + b)
    vals = np.asarray(f(mid + half * x))
    return half * np.tensordot(vals, w, axes=([-1], [0]))


def adaptive_quad(f, a: float, b: float, *, abs_tol: float = DEFAULT_ABS_TOL,
                  rel_tol: float = 1e-13, max_panels: int = 8192,
                  order: int = 15):
    """Integrate f over the finite interval [a, b].

    Bisects the panel with the worst embedded 15/31-point error estimate
    until the summed estimate is below tolerance.  Raises QuadratureFailure
    when the panel budget is exhausted or a panel can no longer be split in
    floating point.
    """
    if not (np.isfinite(a) and np.isfinite(b)):
        raise ValueError("adaptive_quad needs finite endpoints")
    if a == b:
        return 0.0 * _panel(f, 0.0, 1.0, 3)
    hi_order = 2 * order + 1
    counter = itertools.count()

    def make(lo, hi):
        coarse = _panel(f, lo, hi, order)
        fine = _panel(f, lo, hi, hi_order)
        err = float(np.max(np.abs(fine - coarse)))
        if not np.isfinite(err):
            raise QuadratureFailure(
                f"non-finite integrand on panel [{lo}, {hi}]")
        return err, next(counter), lo, hi, fine

    first = make(a, b)
    total = first[4]
    err_total = first[0]
    abs_total = float(np.max(np.abs(first[4])))
    # max-heap via negated error
    heap = [(-first[0], first[1], first[2], first[3], first[4])]
    n_panels = 1
    # the rounding floor grows with the number of panels summed
    while err_total > max(abs_tol, rel_tol * float(np.max(np.abs(total))),
                          64.0 * 2.2e-16 * abs_total):
        if n_panels >= max_panels:
            raise QuadratureFailure(
                f"panel budget {max_panels} exhausted (err~{err_total:.3g})",
                estimate=total, error=err_total)
        neg_err, _, lo, hi, val = heapq.heappop(heap)
        if hi - lo <= 4e-16 * max(abs(lo), abs(hi)):
            raise QuadratureFailure(
                f"cannot refine panel [{lo}, {hi}] further (err~{err_total:.3g})",
                estimate=total, error=err_total)
        mid = 0.5 * (lo + hi)
        left = make(lo, mid)
        right = make(mid, hi)
        total = total - val + left[4] + right[4]
        err_total = err_total + neg_err + left[0] + right[0]
        abs_total += (float(np.max(np.abs(left[4])))
                      + float(np.max(np.abs(right[4]))))
        heapq.heappush(heap, (-left[0], left[1], left[2], left[3], left[4]))
        heapq.heappush(heap, (-right[0], right[1], right[2], right[3], right[4]))
        n_panels += 1
    return total


def _half_line(f, end: float, sign: float, abs_tol: float,
               tail_exponent: float | None, kw):
    """Integrate f from end towards sign * inf.

    A unit-width buffer next to end is integrated in the original coordinate
    (so integrable endpoint singularities keep full float resolution); the
    rest is folded onto (0, 1) via u = end + sign (1 + ((1-s)/s)^gamma).  A
    tail f ~ |u|^-p becomes s^(gamma (p-1) - 1), bounded for gamma = 1/(p-1)
    when 1 < p < 2; otherwise gamma = 1.

    As p -> 1 much of the tail lies beyond the float range (for p = 1.001,
    half of it past |u| = 1e300) and x = ((1-s)/s)^gamma overflows.  Nodes
    with x > _FAR evaluate f at x = _FAR instead and scale it by the tail's
    power law (_FAR / x)^p, which makes the folded integrand the finite
    f(anchor + sign _FAR) gamma _FAR^p / (1-s)^2.
    """
    anchor = end + sign
    p = tail_exponent
    heavy = p is not None and 1.0 < p < 2.0
    gamma = 1.0 / (p - 1.0) if heavy else 1.0

    def g(s):
        r = (1.0 - s) / s
        with np.errstate(over="ignore"):
            x = r ** gamma
            jac = gamma * r ** (gamma - 1.0)
        if heavy:
            far = x > _FAR
            if far.any():
                x = np.where(far, _FAR, x)
                jac = np.where(far, gamma * _FAR ** p / r ** 2, jac)
        return np.asarray(f(anchor + sign * x)) * jac / s ** 2

    lo, hi = sorted((end, anchor))
    return (adaptive_quad(f, lo, hi, abs_tol=abs_tol / 2, **kw)
            + adaptive_quad(g, 0.0, 1.0, abs_tol=abs_tol / 2, **kw))


def quad_interval(f, lo: float, hi: float, *, abs_tol: float = DEFAULT_ABS_TOL,
                  tail_exponent: float | None = None, **kw):
    """Integrate f over an interval that may be unbounded on either side,
    where f ~ |u|^-tail_exponent."""
    left_inf = np.isinf(lo)
    right_inf = np.isinf(hi)
    if not left_inf and not right_inf:
        return adaptive_quad(f, lo, hi, abs_tol=abs_tol, **kw)
    if left_inf and right_inf:
        return (_half_line(f, 0.0, -1.0, abs_tol / 2, tail_exponent, kw)
                + _half_line(f, 0.0, 1.0, abs_tol / 2, tail_exponent, kw))
    if right_inf:
        return _half_line(f, lo, 1.0, abs_tol, tail_exponent, kw)
    return _half_line(f, hi, -1.0, abs_tol, tail_exponent, kw)
