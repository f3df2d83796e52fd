"""Cauchy / Voiculescu transform calculus.

G(zeta) = int (zeta - u)^(-1) dmu, F = 1/G, and the Voiculescu transform
phi(z) = F^(-1)(z) - z which linearises free additive convolution.  The
functional inversions are damped Newton iterations confined to C+, seeded at
the asymptote F(w) ~ w; a stalled subordination solve is reseeded by
fixed-point iteration.
"""
from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from ._newton import newton_halfplane
from .errors import (DomainError, NewtonDivergence, OutsideInversionDomain)
from .measures import Measure
from .nevanlinna import AnalyticFn, to_analytic
from .quadrature import DEFAULT_ABS_TOL


# ---------------------------------------------------------------------------
# samplers
# ---------------------------------------------------------------------------

class CauchySampler:
    """Evaluator for G on C \\ R, backed by a Measure or a supplied function.

    Function-backed samplers declared on the upper half-plane are extended
    below the axis by the reflection G(conj zeta) = conj G(zeta).
    """

    def __init__(self, source, *, abs_tol: float = DEFAULT_ABS_TOL):
        self.abs_tol = abs_tol
        if isinstance(source, Measure):
            self.measure: Measure | None = source
            self.fn: AnalyticFn | None = None
            mass = source.total_mass(abs_tol=min(abs_tol, 1e-8))
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
        if self.measure is not None:
            return complex(self.measure.integrate(
                lambda u: 1.0 / (zeta - u), abs_tol=self.abs_tol))
        if zeta.imag > 0:
            return self.fn(zeta)
        return complex(np.conj(self.fn(np.conj(zeta))))

    def eval_array(self, zetas) -> np.ndarray:
        zetas = np.asarray(zetas, dtype=complex)
        if self.measure is not None:
            flat = zetas.ravel()

            def kernel(u):
                u = np.asarray(u)
                return 1.0 / (flat[:, None] - u[None, :])

            return np.asarray(
                self.measure.integrate(kernel, abs_tol=self.abs_tol)
            ).reshape(zetas.shape)
        upper = np.where(zetas.imag >= 0, zetas, np.conj(zetas))
        vals = self.fn.eval_array(upper)
        return np.where(zetas.imag >= 0, vals, np.conj(vals))

    def derivative(self, zeta: complex) -> complex:
        zeta = complex(zeta)
        if self.measure is not None:
            return complex(self.measure.integrate(
                lambda u: -1.0 / (zeta - u) ** 2, abs_tol=self.abs_tol))
        return self.fn.diff(zeta)


def cauchy_transform(m: Measure, zeta: complex,
                     *, abs_tol: float = DEFAULT_ABS_TOL) -> complex:
    """G(zeta) for a probability measure; conjugate-symmetric off R."""
    return CauchySampler(m, abs_tol=abs_tol)(zeta)


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


def _f_of(g: CauchySampler):
    def F(w):
        return 1.0 / g(w)

    def Fp(w):
        gw = g(w)
        return -g.derivative(w) / (gw * gw)

    return F, Fp


def _invert_f(g: CauchySampler, z: complex, *, rtol: float = 1e-12,
              max_iter: int = 80) -> complex:
    """Solve F(w) = z for w in C+, seeded at the asymptote w = z."""
    F, Fp = _f_of(g)
    return newton_halfplane(lambda w: F(w) - z, Fp, z, rtol=rtol,
                            scale=abs(z), max_iter=max_iter)


def voiculescu_transform(source, z: complex, *, domain: InversionDomain | None = None,
                         abs_tol: float = DEFAULT_ABS_TOL) -> complex:
    """phi(z) = F^(-1)(z) - z via damped Newton on w -> 1/G(w)."""
    z = complex(z)
    if domain is not None and not domain.contains(z):
        raise OutsideInversionDomain(f"{z} outside Gamma({domain.gamma}, {domain.lam})")
    g = source if isinstance(source, CauchySampler) else CauchySampler(source, abs_tol=abs_tol)
    w = _invert_f(g, z)
    return w - z


def estimate_inversion_domain(source, *, gamma: float = 1.0,
                              lam_max: float = 4096.0) -> InversionDomain:
    """Probe where Newton inversion converges from the asymptotic seed.

    Doubles lambda until the three boundary rays of Gamma(gamma, lam) invert;
    the constants are estimates for reporting, not certified bounds.
    """
    g = source if isinstance(source, CauchySampler) else CauchySampler(source)
    t = gamma / math.hypot(1.0, gamma)
    directions = [1j, (t + 1j) / abs(t + 1j), (-t + 1j) / abs(-t + 1j)]
    lam = 1.0
    while lam <= lam_max:
        try:
            for d in directions:
                _invert_f(g, 1.05 * lam * d, max_iter=40)
            return InversionDomain(gamma, lam)
        except NewtonDivergence:
            lam *= 2.0
    raise NewtonDivergence(
        f"no inversion domain found with gamma={gamma} up to lam={lam_max}")


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
    d_full = -np.asarray(caller(xs + 1j * eps)).imag / math.pi
    d_half = -np.asarray(caller(xs + 1j * (eps / 2.0))).imag / math.pi
    density = 2.0 * d_half - d_full
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
                      derivative=lambda z: f1.diff(z) + f2.diff(z),
                      name="sum")


def subordinate(phi, zeta: complex, t: float = 1.0, *,
                seed: complex | None = None, rtol: float = 1e-12) -> complex:
    """Solve w + t phi(w) = zeta for w in C+.

    Newton from w = zeta; if that stalls, Newton from FIXED_POINT_STEPS
    iterates of w -> zeta - t phi(w), a map of C+ into {Im w >= Im zeta}
    that converges from any seed, slowly near R (Belinschi-Bercovici 2007).
    """
    zeta = complex(zeta)
    if zeta.imag <= 0:
        raise DomainError("subordination point must lie in C+")
    if t < 0:
        raise DomainError("t must be nonnegative")
    fn = to_analytic(phi)
    if t == 0:
        return zeta

    def solve(w0):
        return newton_halfplane(
            lambda w: w + t * fn(w) - zeta,
            lambda w: 1.0 + t * fn.diff(w),
            w0, rtol=rtol, scale=abs(zeta))

    try:
        return solve(zeta if seed is None else seed)
    except NewtonDivergence:
        pass
    w = zeta
    for _ in range(FIXED_POINT_STEPS):
        w = zeta - t * fn(w)
    return solve(w)


def semigroup_marginal(phi, t: float, zeta: complex, *,
                       seed: complex | None = None) -> complex:
    """G at time t of the free convolution semigroup generated by phi.

    Solves w + t phi(w) = zeta (the subordination equation for
    F^(-1)(z) = z + t phi(z)) and returns 1/w; t = 0 gives 1/zeta.
    """
    w = subordinate(phi, zeta, t, seed=seed)
    return 1.0 / w


def reconstruct_cauchy(phi, *, t: float = 1.0) -> CauchySampler:
    """CauchySampler of the law whose Voiculescu transform is t*phi."""
    fn = to_analytic(phi)
    # the sampler reflects below the axis, so G is needed on C+ only
    return CauchySampler(to_analytic(
        lambda zeta: semigroup_marginal(fn, t, zeta)))
