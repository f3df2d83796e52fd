"""Embedded Runge-Kutta-Fehlberg 4(5) for complex flows confined to C+, over
lanes.

Each starting point is one lane: an independent integration with its own
time, step, accept/reject decisions and step budget.  An attempt makes one
rhs call per stage over the lanes whose earlier stages stayed valid, so a
lane's steps never depend on which other lanes share the solve (given an rhs
computed point by point).  The exact flows integrated here preserve the
upper half-plane, so a trial step whose stage points or result leave it (or
are not finite) is rejected and the step halved; a lane whose step falls
below min_step, or which uses up max_steps attempts, fails instead of
continuing through the boundary.
"""
from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import DomainError, StepUnderflow

# classic Fehlberg tableau
_A = (
    (),
    (1 / 4,),
    (3 / 32, 9 / 32),
    (1932 / 2197, -7200 / 2197, 7296 / 2197),
    (439 / 216, -8.0, 3680 / 513, -845 / 4104),
    (-8 / 27, 2.0, -3544 / 2565, 1859 / 4104, -11 / 40),
)
_B4 = (25 / 216, 0.0, 1408 / 2565, 2197 / 4104, -1 / 5, 0.0)
_B5 = (16 / 135, 0.0, 6656 / 12825, 28561 / 56430, -9 / 50, 2 / 55)


@dataclass(frozen=True)
class OdeConfig:
    abs_tol: float = 1e-10
    rel_tol: float = 1e-9
    min_step: float = 1e-12
    max_steps: int = 200000


def integrate_halfplane(rhs, y0, t_end, config: OdeConfig = OdeConfig()):
    """Integrate y' = rhs(y) from 0 to t_end >= 0 with y confined to C+.

    `y0` is a complex scalar or array, one lane per point, and `rhs` maps
    an array of points to an array of the same size.  `t_end` is a scalar
    or an array that broadcasts to y0's shape, one end time per lane; a
    lane ends where its own scalar call would.  Failed lanes are NaN; a
    scalar y0 returns a complex, or raises StepUnderflow if its lane fails.
    Every start must lie in C+ and every end time be >= 0 (DomainError
    otherwise); a lane with end time 0 returns its start.
    """
    starts = np.asarray(y0, dtype=complex)
    ends = np.broadcast_to(np.asarray(t_end, dtype=float), starts.shape)
    if not np.all(ends >= 0):
        raise DomainError("integration time must be nonnegative")
    y = starts.ravel().copy()
    if np.any(y.imag <= 0):
        raise DomainError("initial point must lie in the upper half-plane")
    t = ends.ravel().copy()
    # a trial step may overflow or leave C+; that rejects it, no more
    with np.errstate(all="ignore"):
        done = _march(rhs, y, t, ends.ravel(), config)
    if starts.shape:
        return np.where(done, y, complex("nan")).reshape(starts.shape)
    if not done[0]:
        raise StepUnderflow(
            f"integration from {complex(starts)} stopped at t = {t[0]:.6g} "
            f"of {float(ends):.6g}, y = {complex(y[0])}: step below "
            f"{config.min_step:g} or {config.max_steps} attempts used")
    return complex(y[0])


def _march(rhs, y, t_out, end, cfg):
    """Run every lane of y to its end time in place; returns the finished mask.

    Live lanes are kept compacted: `lanes` indexes y, and z, t, h and end
    hold their points, times, next steps and end times.  Every live lane
    makes one attempt per pass, so the pass count is each lane's attempt
    count.  A lane that stops writes its point to y and its time to t_out.
    """
    lanes = np.arange(y.size)
    z = y.copy()
    t = np.zeros(y.size)
    h = np.full(y.size, 0.01)  # clipped to each end on the first pass
    done = np.zeros(y.size, dtype=bool)
    for attempt in range(cfg.max_steps + 1):
        # retire lanes that reached their end or whose step fell below
        # min_step; the extra pass retires the lanes that finished on their
        # last try
        finished = t >= end
        h = np.minimum(h, end - t)
        stop = finished | (h < cfg.min_step)
        if stop.any():
            y[lanes[stop]], t_out[lanes[stop]] = z[stop], t[stop]
            done[lanes[finished]] = True
            go = ~stop
            lanes, z, t, h, end = lanes[go], z[go], t[go], h[go], end[go]
        if not lanes.size or attempt == cfg.max_steps:
            break
        k = np.empty((6, z.size), dtype=complex)
        ok = _stages(rhs, z, h, k)
        y5 = z + h * _combine(_B5, k)
        ok &= (y5.imag > 0) & np.isfinite(y5)
        err = np.abs(y5 - (z + h * _combine(_B4, k)))
        tol = cfg.abs_tol + cfg.rel_tol * np.maximum(np.abs(z), np.abs(y5))
        accept = ok & (err <= tol)
        t = np.where(accept, t + h, t)
        z = np.where(accept, y5, z)
        factor = np.where(err > 0, 0.9 * (tol / err) ** 0.2, 5.0)
        h = np.where(ok, h * np.clip(factor, 0.2, 5.0), 0.5 * h)
    y[lanes], t_out[lanes] = z, t
    return done


def _stages(rhs, z, h, k):
    """Fill the stage slopes k (6 x lanes) of one attempt from points z with
    steps h; returns the mask of lanes whose stages all stayed valid.

    A lane drops out at its first stage point outside C+ or not finite, or
    when the rhs call covering it raises.
    """
    ok = np.ones(z.size, dtype=bool)
    for s, row in enumerate(_A):
        stage = z + h * _combine(row, k) if row else z
        ok &= (stage.imag > 0) & np.isfinite(stage)
        live = np.flatnonzero(ok)
        if not live.size:
            break
        try:
            k[s, live] = rhs(stage[live])
        except (ArithmeticError, ValueError, DomainError):
            ok[live] = False
            break
    return ok


def _combine(coeffs, k):
    """sum_j coeffs[j] k[j], term by term so that each lane's sum is the
    same whatever lanes share the array."""
    acc = None
    for c, kj in zip(coeffs, k):
        if c:
            acc = c * kj if acc is None else acc + c * kj
    return acc
