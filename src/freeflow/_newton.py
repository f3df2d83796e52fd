"""Damped Newton iteration confined to the open upper half-plane, over lanes.

Each point of the seed array is one lane: an independent solve with its own
damping step, iteration count and convergence flag.  An iteration makes one
derivative call over the active lanes and one residual call per damping
level over the lanes still damping, so a lane's iterates never depend on
which other lanes share the solve (given residuals that are computed point
by point).
"""
from __future__ import annotations

import numpy as np

from .errors import NewtonDivergence, QuadratureFailure

MAX_ITER = 80
DAMPING = 0.5
MAX_DAMP = 45
# magnitudes at or above this count as overflow
_HUGE = 1e300
_NO_LANES = np.empty(0, dtype=np.intp)


def newton_halfplane(residual, derivative, seed, *, rtol: float = 1e-12,
                     scale=1.0, max_iter: int = MAX_ITER):
    """Solve residual(w) = 0 for w with Im w > 0, one lane per seed.

    `seed` is a complex scalar or array and `scale` broadcasts to its
    shape.  `residual(w, lanes)` gets the iterates of the active lanes and
    their flat indices into `seed` (a residual with per-lane targets reads
    `target[lanes]`); `derivative(w)` gets the iterates only.  A lane
    converges once |residual| <= rtol * max(1, |scale|).  Steps that would
    leave the half-plane or increase |residual| are damped by halving; a
    lane fails when it runs out of damping or iterations, or when its
    derivative vanishes.  Failed lanes are NaN; a scalar seed raises
    NewtonDivergence instead, with the seed and last iterate as its trace.
    """
    seeds = np.asarray(seed, dtype=complex)
    w = seeds.ravel().copy()
    tol = rtol * np.maximum(1.0, np.abs(np.broadcast_to(
        np.asarray(scale, dtype=float), seeds.shape).ravel()))
    # overflow during damped probing is routine, not a fault
    with np.errstate(all="ignore"):
        done = _iterate(residual, derivative, w, tol, max_iter)
    if seeds.shape:
        return np.where(done, w, complex("nan")).reshape(seeds.shape)
    if not done[0]:
        raise NewtonDivergence(
            f"no convergence from {complex(seeds)} in {max_iter} damped "
            f"iterations", trace=(complex(seeds), complex(w[0])))
    return complex(w[0])


def _iterate(residual, derivative, w, tol, max_iter):
    """Run every lane of w in place; returns the converged mask.

    Active lanes are kept compacted: `lanes` indexes w, and z, f, af
    (= |f|) and t hold their iterates, residuals and tolerances.  The
    arrays are compacted only when a lane retires, converged or failed.
    """
    lanes = np.arange(w.size)
    f = _probe(residual, w, lanes)
    af, t, z = np.abs(f), tol, w
    done = af <= t
    keep = (af < _HUGE) & ~done
    if not keep.all():
        lanes, z, f, af, t = lanes[keep], z[keep], f[keep], af[keep], t[keep]
    for _ in range(max_iter):
        if not lanes.size:
            break
        try:
            d = np.asarray(derivative(z), dtype=complex)
        except QuadratureFailure:
            d = np.full(lanes.size, complex("nan"))
        dw = f / d
        usable = (d != 0) & (np.abs(d) < _HUGE)
        if not usable.all():  # these lanes fail without a probe
            w[lanes] = z
            lanes, z, f, af, t, dw = (lanes[usable], z[usable], f[usable],
                                      af[usable], t[usable], dw[usable])
        # the full step, over every lane
        step = 1.0
        cand = z - step * dw
        fc = _probe(residual, cand, lanes)
        afc = np.abs(fc)
        accept = (afc < _HUGE) & ((afc < af) | (afc <= t))
        pending = _NO_LANES
        if accept.all():
            z, f, af = cand, fc, afc
        else:
            pending = np.flatnonzero(~accept)
            z, f, af = (np.where(accept, cand, z), np.where(accept, fc, f),
                        np.where(accept, afc, af))
            # damped steps, over the lanes whose full step was refused
            for _ in range(MAX_DAMP - 1):
                step *= DAMPING
                cand = z[pending] - step * dw[pending]
                fc = _probe(residual, cand, lanes[pending])
                afc = np.abs(fc)
                accept = (afc < _HUGE) & ((afc < af[pending])
                                          | (afc <= t[pending]))
                took = pending[accept]
                z[took], f[took], af[took] = (cand[accept], fc[accept],
                                              afc[accept])
                pending = pending[~accept]
                if not pending.size:
                    break
        # lanes still pending are out of damping and fail
        converged = af <= t
        if not pending.size and converged.all():
            w[lanes] = z
            done[lanes] = True
            return done
        if pending.size or converged.any():
            w[lanes] = z
            done[lanes[converged]] = True
            keep = ~converged
            keep[pending] = False
            lanes, z, f, af, t = (lanes[keep], z[keep], f[keep], af[keep],
                                  t[keep])
    w[lanes] = z
    return done


def _probe(residual, cand, lanes):
    """Residuals at candidate points; NaN outside C+ or where evaluation
    fails (e.g. grazing the cut), which damps like an overshoot instead of
    aborting the solve."""
    inside = cand.imag > 0
    if inside.all():
        try:
            return np.asarray(residual(cand, lanes), dtype=complex)
        except (ArithmeticError, ValueError, QuadratureFailure):
            return np.full(cand.size, complex("nan"))
    fc = np.full(cand.size, complex("nan"))
    if inside.any():
        try:
            fc[inside] = residual(cand[inside], lanes[inside])
        except (ArithmeticError, ValueError, QuadratureFailure):
            pass
    return fc
