"""Cauchy / Voiculescu transform calculus.

G(zeta) = int (zeta - u)^(-1) dmu, F = 1/G, and the Voiculescu transform
phi(z) = F^(-1)(z) - z which linearises free additive convolution.  The
functional inversions are damped Newton iterations confined to C+: F^(-1)
seeded at the asymptote F(w) ~ w, subordination seeded by fixed-point
iterates whose target descends to zeta from zeta + i.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._newton import newton_halfplane
from .errors import (DomainError, FreeflowError, NewtonDivergence,
                     OutsideInversionDomain)
from .measures import Measure
from .nevanlinna import AnalyticFn, boundary_density, to_analytic


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class CauchySampler:
    """Evaluator for G on C \\ R, backed by a Measure or a supplied function.

    Function-backed samplers declared on the upper half-plane are extended
    below the axis by the reflection G(conj zeta) = conj G(zeta).  Every
    integral over a measure runs at the quadrature's DEFAULT_ABS_TOL.
    """

    def __init__(self, source):
        if isinstance(source, Measure):
            self.measure: Measure | None = source
            self.fn: AnalyticFn | None = None
            mass = source.total_mass()
            if abs(mass - 1.0) > 1e-6:
                raise ValueError(
                    f"Cauchy transform needs a probability measure "
                    f"(mass = {mass:.6g})")
        else:
            self.measure = None
            self.fn = to_analytic(source)

    def __call__(self, zeta: complex) -> complex:
        zeta = complex(zeta)
        if zeta.imag == 0:
            raise DomainError("Cauchy transform is undefined on the real line")
        return complex(self.eval_array(zeta))

    def eval_array(self, zetas) -> np.ndarray:
        zetas = np.asarray(zetas, dtype=complex)
        if self.measure is not None:
            flat = zetas.ravel()

            def kernel(u):
                u = np.asarray(u)
                return 1.0 / (flat[:, None] - u[None, :])

            return np.asarray(self.measure.integrate(
                kernel, closed=("b", lambda e, b: e.cauchy(flat, b)))
            ).reshape(zetas.shape)
        upper = np.where(zetas.imag >= 0, zetas, np.conj(zetas))
        vals = self.fn.eval_array(upper)
        return np.where(zetas.imag >= 0, vals, np.conj(vals))

    def derivative(self, zeta):
        """G' at zeta (any array shape; a scalar gives a complex)."""
        zetas = np.asarray(zeta, dtype=complex)
        if self.measure is None:
            return self.fn.diff(zetas)
        flat = zetas.ravel()
        d = np.asarray(self.measure.integrate(
            lambda u: -1.0 / (flat[:, None] - np.asarray(u)[None, :]) ** 2,
            closed=("b", lambda e, b: e.cauchy_prime(flat, b)))
        ).reshape(zetas.shape)
        return d if d.shape else complex(d)


# ---------------------------------------------------------------------------
# inversion domains
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class InversionDomain:
    """Truncated cone {x + iy : y > 0, -gamma y < x < gamma y, |z| >= lam}."""
    gamma: float
    lam: float

    def __post_init__(self):
        if self.gamma <= 0 or self.lam <= 0:
            raise ValueError("gamma and lam must be positive")

    def contains(self, z: complex) -> bool:
        z = complex(z)
        return (z.imag > 0 and abs(z.real) < self.gamma * z.imag
                and abs(z) >= self.lam)


def _invert_f(g: CauchySampler, z, *, max_iter: int = 80):
    """Solve F(w) = z for w in C+ (F = 1/G), seeded at the asymptote w = z.

    Over an array of z every point is one Newton lane and a lane that
    fails is NaN; a scalar z raises NewtonDivergence instead.
    """
    targets = np.asarray(z, dtype=complex).ravel()

    def derivative(w):
        gw = g.eval_array(w)
        return -g.derivative(w) / (gw * gw)

    return newton_halfplane(
        lambda w, lanes: 1.0 / g.eval_array(w) - targets[lanes], derivative,
        z, scale=np.abs(z), max_iter=max_iter)


def voiculescu_transform(source, z: complex, *,
                         domain: InversionDomain | None = None) -> complex:
    """phi(z) = F^(-1)(z) - z via damped Newton on w -> 1/G(w)."""
    z = complex(z)
    if domain is not None and not domain.contains(z):
        raise OutsideInversionDomain(f"{z} outside Gamma({domain.gamma}, {domain.lam})")
    g = source if isinstance(source, CauchySampler) else CauchySampler(source)
    w = _invert_f(g, z)
    return w - z


_LAM_MAX = 4096.0
# the half-opening of the cone the probe reports
_GAMMA = 1.0


def estimate_inversion_domain(source, *, probe: str = "F") -> InversionDomain:
    """Probe where Newton inversion converges from the asymptotic seed.

    Doubles lambda, up to _LAM_MAX, until the three boundary rays of
    Gamma(_GAMMA, lam) invert, all three in one lane solve.  probe "F"
    inverts F = 1/G of the law `source` (a Measure or a CauchySampler);
    probe "subordination" solves w + phi(w) = zeta for the generator
    phi = `source`, as semigroup_marginal does.  The constants are
    estimates for reporting, not certified bounds.
    """
    if probe not in ("F", "subordination"):
        raise ValueError(f"unknown probe {probe!r}")
    if probe == "F" and not isinstance(source, CauchySampler):
        source = CauchySampler(source)
    t = _GAMMA / math.hypot(1.0, _GAMMA)
    rays = np.array([1j, (t + 1j) / abs(t + 1j), (-t + 1j) / abs(-t + 1j)])
    lam = 1.0
    while lam <= _LAM_MAX:
        zs = 1.05 * lam * rays
        try:
            ws = _invert_f(source, zs, max_iter=40) if probe == "F" \
                else subordinate(source, zs)
        except FreeflowError:  # an unevaluable probe fails like divergence
            ws = np.nan
        if not np.any(np.isnan(ws)):
            return InversionDomain(_GAMMA, lam)
        lam *= 2.0
    raise NewtonDivergence(
        f"no inversion domain found with gamma={_GAMMA} up to lam={_LAM_MAX}")


# ---------------------------------------------------------------------------
# boundary values
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class DensityTable:
    """Sampled density with a mass-deficit proxy for unresolved atoms."""
    grid: np.ndarray
    density: np.ndarray
    mass_deficit: float
    bad: np.ndarray = field(default_factory=lambda: np.array([], dtype=bool))


def stieltjes_invert(g, x_grid, eps: float = 1e-3) -> DensityTable:
    """density(x) ~ -(1/pi) Im G(x + i eps), Richardson-extrapolated in eps.

    Accepts a CauchySampler or anything to_analytic takes.  NaN entries
    are flagged per point rather than raised.
    """
    if eps <= 0:
        raise ValueError("eps must be positive")
    xs = np.asarray(x_grid, dtype=float)
    caller = g.eval_array if isinstance(g, CauchySampler) \
        else to_analytic(g).eval_array
    density = boundary_density(caller, xs, eps, math.pi)
    bad = ~np.isfinite(density)
    safe = np.where(bad, 0.0, density)
    mass = float(np.trapezoid(safe, xs))
    return DensityTable(xs, density, 1.0 - mass, bad)


# ---------------------------------------------------------------------------
# free convolution and semigroups
# ---------------------------------------------------------------------------

FIXED_POINT_STEPS = 20


def free_convolve(phi1, phi2) -> AnalyticFn:
    """Pointwise sum of Voiculescu transforms (linearisation of boxplus)."""
    f1, f2 = to_analytic(phi1), to_analytic(phi2)
    return AnalyticFn(lambda z: f1.eval_array(z) + f2.eval_array(z),
                      derivative=lambda z: f1.diff(z) + f2.diff(z))


def subordinate(phi, zeta, t: float = 1.0):
    """Solve w + t phi(w) = zeta for w in C+.

    Every lane is seeded by FIXED_POINT_STEPS iterates of
    w -> zeta + i 2^-k - t phi(w) from w = zeta + i, one array evaluation
    of phi per step k.  Im phi <= 0 on C+, so step k maps C+ into
    {Im w >= Im zeta + 2^-k}.  The map at zeta contracts slowly near R
    (Belinschi-Bercovici 2007); a target that descends to zeta from one
    height up brings the lane close to the root first.  The same bound
    makes the root in C+ the map's one fixed point, so it does not depend
    on the seed.  One Newton solve runs from there; a lane that fails it
    is NaN, and a scalar zeta raises NewtonDivergence instead.
    """
    zetas = np.asarray(zeta, dtype=complex)
    if np.any(zetas.imag <= 0):
        raise DomainError("subordination point must lie in C+")
    if t < 0:
        raise DomainError("t must be nonnegative")
    fn = to_analytic(phi)
    flat = zetas.ravel()
    w = flat.copy()
    if t > 0:
        w += 1j
        for k in range(FIXED_POINT_STEPS):
            w = flat + 1j * 0.5 ** k - t * fn.eval_array(w)
        w = newton_halfplane(
            lambda v, lanes: v + t * fn.eval_array(v) - flat[lanes],
            lambda v: 1.0 + t * fn.diff(v),
            w, scale=np.abs(flat))
    if zetas.shape:
        return w.reshape(zetas.shape)
    if np.isnan(w[0]):
        raise NewtonDivergence(f"subordination at {complex(zetas)} diverged")
    return complex(w[0])


def semigroup_marginal(phi, t: float, zeta):
    """G at time t of the free convolution semigroup generated by phi.

    Solves w + t phi(w) = zeta (the subordination equation for
    F^(-1)(z) = z + t phi(z)) and returns 1/w; t = 0 gives 1/zeta.  Over
    an array, NaN marks the points whose solve fails; a scalar raises.
    """
    return 1.0 / subordinate(phi, zeta, t)


def reconstruct_cauchy(phi, *, t: float = 1.0) -> CauchySampler:
    """CauchySampler of the law whose Voiculescu transform is t*phi."""
    fn = to_analytic(phi)
    # the sampler reflects below the axis, so G is needed on C+ only
    return CauchySampler(AnalyticFn(
        lambda zetas: semigroup_marginal(fn, t, zetas)))
