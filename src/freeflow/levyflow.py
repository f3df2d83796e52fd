"""Flows with time-homogeneous Markov kernels and their generators.

A valid generator phi is a Nevanlinna function with phi(iy)/(iy) -> 0; the
flow solves dF_t/dt + phi(F_t) = 0 from F_0 = id.  Generators of the form
psi o Phi, with Psi a primitive of -psi whose image contains C+ and
Phi = Psi^(-1), conjugate the flow to horizontal translation:
F_t = Psi(Phi(z) + t).  The initial law is always the point mass at 0, so
the time-t marginal has G = 1/F_t and the transition kernel from x has
G = 1/(F_t - x).
"""
from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .cauchy import stieltjes_invert
from .conformal import (ConformalPair, ContainmentCertificate,
                        contains_halfplane_translate, normalize_for_halfplane)
from .errors import (DomainError, NotContaining, NotNevanlinna, OutsideImage,
                     StepUnderflow)
from .measures import Measure
from .nevanlinna import (INCONCLUSIVE_FRACTION, AnalyticFn, NevanlinnaSpec,
                         PowerForm, RationalNevanlinna, Verdict,
                         _principal_power, halfplane_grid,
                         is_nevanlinna_numeric, scan_im, to_analytic,
                         vanishing_at_infinity)
from .ode import OdeConfig, integrate_halfplane

# no second computation checks the generator route's lanes, so they run
# tighter than OdeConfig's defaults
GENERATOR_ODE = OdeConfig(abs_tol=1e-13, rel_tol=1e-12)


# ---------------------------------------------------------------------------
# closed power-family flows
# ---------------------------------------------------------------------------

def _power_flow(coeff: float, exponent: float, z, t: float):
    """F_t for phi = coeff z^exp (F_t^(-1) is the same map at -t).

    Solving F' = -coeff F^exp gives F^(1-exp) = z^(1-exp) - (1-exp) coeff t.
    The root is taken with the angle lifted to (0, 2 pi), which follows the
    flow's own branch (the trajectory never crosses the positive reals).
    """
    z = np.asarray(z, dtype=complex)
    q = 1.0 - exponent
    v = _principal_power(z, q) - q * coeff * t
    theta = np.angle(v)
    theta = np.where(theta <= 0, theta + 2.0 * math.pi, theta)
    out = np.abs(v) ** (1.0 / q) * np.exp(1j * theta / q)
    return out if out.shape else complex(out)


def _power_proxy(coeff: float, exponent: float, z, t: float):
    """phi o F_t^(-1) via principal powers (the analytic continuation on
    the initial domain, and the branch that exposes half-plane violations)."""
    z = np.asarray(z, dtype=complex)
    q = 1.0 - exponent
    base = _principal_power(z, q) + q * coeff * t
    out = coeff * _principal_power(base, exponent / q)
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# flow fields
# ---------------------------------------------------------------------------

@dataclass
class FlowField:
    """A generator phi with whatever structure makes its flow computable.

    kind: "constant", "power" (phi = coeff z^exp, which includes phi = r/z
    as (r, -1)), "psi-pair" (built from a primitive with image containing
    C+) or "generator" (phi given only as a function, whose flow is
    integrated lane by lane).
    """
    phi: AnalyticFn
    kind: str
    pair: ConformalPair | None = None
    power: tuple[float, float] | None = None
    const: complex | None = None
    certificate: ContainmentCertificate | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generator(cls, phi) -> "FlowField":
        form = phi.form if isinstance(phi, AnalyticFn) else phi
        if isinstance(form, (int, float, complex)):
            c = complex(form)
            if c.imag > 0:
                raise NotNevanlinna(f"constant generator {c} has Im > 0")
            ff = cls(to_analytic(c), "constant", const=c)
        elif isinstance(form, PowerForm):
            ff = cls(to_analytic(form), "power",
                     power=(form.coeff, form.exponent))
        elif isinstance(form, RationalNevanlinna) and form.a == 0.0 \
                and form.b == 0.0 and form.poles == (0.0,):
            # phi = r/z is the power field r z^(-1)
            ff = cls(to_analytic(form), "power",
                     power=(form.residues[0], -1.0))
        else:
            ff = cls(to_analytic(phi), "generator")
        ff.check_invariants()
        return ff

    # -- invariants -----------------------------------------------------------

    def check_invariants(self, *, grid=None) -> Verdict:
        verdict = is_nevanlinna_numeric(self.phi, grid=grid)
        if verdict.failed:
            raise NotNevanlinna(
                f"generator is not Nevanlinna (witness {verdict.witness})",
                witness=verdict.witness)
        if not vanishing_at_infinity(self.phi):
            raise DomainError("generator does not satisfy phi(iy)/(iy) -> 0")
        return verdict


# ---------------------------------------------------------------------------
# construction from psi (the nonlinear parametrisation)
# ---------------------------------------------------------------------------

def build_fal2(psi) -> FlowField:
    """Flow field with generator psi o Phi.

    psi may be a NevanlinnaSpec, RationalNevanlinna, PowerForm, or a complex
    constant with Im < 0 (the constant branch).  For non-constant psi the
    image of the primitive must contain a half-plane translate; the verdict
    certificate is stored on the result.
    """
    if isinstance(psi, (int, float, complex)):
        c = complex(psi)
        if c.imag >= 0 and c.imag != 0:
            raise NotNevanlinna(f"constant psi {c} maps outside C- ")
        if c.imag == 0:
            # real constants pass through the main branch via drift
            psi = NevanlinnaSpec(0.0, float(c.real), Measure())
        else:
            return FlowField(to_analytic(c), "constant", const=c)
    if isinstance(psi, PowerForm) and psi.coeff < 0:
        cert = contains_halfplane_translate(psi)
        if not cert.verdict:
            raise NotContaining("power form fails the containment criterion",
                                certificate=cert)
        q = psi.exponent + 1.0
        coeff = psi.coeff * (-q / psi.coeff) ** (psi.exponent / q)
        pair = ConformalPair.from_psi(psi)
        phi = PowerForm(float(np.real(coeff)), psi.exponent / q)
        ff = FlowField(to_analytic(phi), "power", pair=pair,
                       power=(phi.coeff, phi.exponent), certificate=cert)
        ff.check_invariants()
        return ff
    cert = contains_halfplane_translate(psi)
    if not cert.verdict:
        raise NotContaining(
            f"the image of the primitive contains no half-plane translate "
            f"({cert.condition})", certificate=cert)
    pair = normalize_for_halfplane(ConformalPair.from_psi(psi))
    phi = AnalyticFn(lambda ws: pair.psi(_no_nan(pair.Phi(ws), ws)),
                     name="psi-o-Phi")
    ff = FlowField(phi, "psi-pair", pair=pair, certificate=cert)
    # every phi evaluation is a Newton inversion here, so the invariant
    # check runs on a reduced grid; closed forms get the full one
    light = halfplane_grid(n_r=8, n_theta=8) if pair.kind == "generic" else None
    ff.check_invariants(grid=light)
    return ff


# ---------------------------------------------------------------------------
# flow evaluation
# ---------------------------------------------------------------------------

def flow_conformal(ff: FlowField, z, t: float):
    """F_t via the conformal conjugation, or by RKF45 lanes for a generator
    given only as a function; t may be negative where the image admits it
    (detected through inversion failures)."""
    if ff.kind == "constant":
        z = np.asarray(z, dtype=complex)
        out = z - ff.const * t
        return out if out.shape else complex(out)
    if ff.kind == "power":
        c, p = ff.power
        return _power_flow(c, p, z, t)
    if ff.kind == "psi-pair":
        return ff.pair.Psi(_no_nan(ff.pair.Phi(z), z) + t)
    if ff.kind == "generator":
        return _no_nan(_generator_flow(ff, z, t), z)
    raise ValueError(f"unknown flow kind {ff.kind}")


def _no_nan(z, w):
    """z, or OutsideImage naming the first point of w whose z is NaN."""
    bad = np.isnan(z)
    if np.any(bad):
        raise OutsideImage(f"inversion at {np.asarray(w)[bad].flat[0]} "
                           f"failed; the point is outside the image or "
                           f"numerically unreachable")
    return z


def _generator_flow(ff: FlowField, z, t: float):
    """F_t(z) for a generator given only as a function, NaN where a lane
    fails.

    One RKF45 call runs a lane per point: F' = -phi(F) over t, or the
    backward flow G' = phi(G) over |t| when t < 0.  A backward lane from a
    point outside F_|t|(C+) reaches the real axis before time |t| and
    fails, so that point is NaN.
    """
    zs = np.asarray(z, dtype=complex)
    phi = ff.phi
    sign = 1.0 if t >= 0 else -1.0
    out = integrate_halfplane(lambda y: -sign * phi.eval_array(y),
                              zs.ravel(), abs(t), GENERATOR_ODE)
    out = out.reshape(zs.shape)
    return out if out.shape else complex(out)


def flow_inverse(ff: FlowField, z, t: float):
    """F_t^(-1) = F_(-t); OutsideImage where z is not in F_t(C+)."""
    if t < 0:
        raise DomainError("flow_inverse needs t >= 0")
    return flow_conformal(ff, z, -t)


def flow_ode(ff: FlowField, z, t):
    """F_t by adaptive integration of F' = -phi(F), staying in C+.

    One integration lane per point of z (see integrate_halfplane); t is a
    scalar or an array of per-lane times that broadcasts to z's shape.
    Raises StepUnderflow if any lane fails, naming the first failed point.
    """
    if np.any(np.asarray(t) < 0):
        raise DomainError("flow_ode integrates forward time only")
    phi = ff.phi
    out = integrate_halfplane(lambda y: -phi.eval_array(y), z, t)
    bad = np.flatnonzero(np.isnan(out))
    if bad.size:
        t_bad = np.broadcast_to(t, np.shape(out)).flat[bad[0]]
        raise StepUnderflow(f"integration from {np.asarray(z).flat[bad[0]]} "
                            f"over t = {t_bad:g} failed; the flow leaves C+ "
                            f"or the step budget ran out")
    return out


# ---------------------------------------------------------------------------
# the FAL2 falsifier
# ---------------------------------------------------------------------------

DEFAULT_T_SAMPLES = (0.1, 0.5, 1.0, 5.0)


def fal2_check(phi, t_samples=DEFAULT_T_SAMPLES, *, grid=None,
               im_tol: float = 1e-8) -> Verdict:
    """Check that phi o F_t^(-1) keeps values in C- for each sampled t.

    A falsifier, not a prover: pass means no violation was found on the
    grid.  Fails carry (t, witness); inversion failures above the threshold
    without any witness give an inconclusive verdict.
    """
    ff = phi if isinstance(phi, FlowField) else FlowField.from_generator(phi)
    pts = halfplane_grid() if grid is None else np.asarray(grid, complex)
    # F_t^(-1) = Psi(Phi(.) - t): one inversion serves every t
    pre = ff.pair.Phi(pts) if ff.kind == "psi-pair" else None
    worst = None
    fail_frac = 0.0
    detail = {}
    for t in t_samples:
        vals, failures = _proxy_values(ff, pts, t, pre)
        # the non-finite share includes the inversion-failure slots
        k, max_im, bad_frac = scan_im(vals)
        detail[f"t={t:g}"] = {"maxIm": max_im,
                              "inversionFailures": int(failures)}
        if max_im > im_tol:
            if worst is None or max_im > worst[2]:
                worst = (t, complex(pts[k]), max_im)
        fail_frac = max(fail_frac, bad_frac)
    if worst is not None:
        return Verdict("fail", witness=worst[1], t=worst[0],
                       detail={"im": worst[2], **detail})
    if fail_frac > INCONCLUSIVE_FRACTION:
        return Verdict("inconclusive",
                       detail={"failureFraction": fail_frac, **detail})
    return Verdict("pass", detail={"certificate": "no-violation-found",
                                   **detail})


def _proxy_values(ff: FlowField, pts: np.ndarray, t: float, pre=None):
    """Values of phi o F_t^(-1) on pts plus the inversion-failure count.

    pre is Phi(pts) for a psi-pair field.
    """
    if ff.kind == "constant":
        return np.full(pts.shape, ff.const, dtype=complex), 0
    if ff.kind == "power":
        c, p = ff.power
        with np.errstate(all="ignore"):
            return np.asarray(_power_proxy(c, p, pts, t)), 0
    if ff.kind == "psi-pair":
        zz, f = pre - t, ff.pair.psi
    else:
        zz, f = _generator_flow(ff, pts, -t), ff.phi.eval_array
    ok = ~np.isnan(zz)
    out = np.full(pts.shape, complex("nan"))
    out[ok] = f(zz[ok])
    return out, int(np.count_nonzero(~ok))


# ---------------------------------------------------------------------------
# marginals, kernels, increments
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class KernelSlice:
    """Sampled transition density k(x, du) at time t (atoms unresolved)."""
    t: float
    x: float
    grid: np.ndarray
    density: np.ndarray
    mass_deficit: float
    bad: np.ndarray


def marginal_law(ff: FlowField, t: float, x_grid,
                 *, eps: float = 1e-3) -> KernelSlice:
    """Law of the flow at time t started from the point mass at 0."""
    return transition_kernel(ff, t, 0.0, x_grid, eps=eps)


def transition_kernel(ff: FlowField, t: float, x: float, u_grid,
                      *, eps: float = 1e-3) -> KernelSlice:
    """Markov kernel from x: Stieltjes inversion of 1/(F_t - x)."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    x = float(x)
    g = AnalyticFn(
        lambda zs: 1.0 / (np.asarray(flow_conformal(ff, zs, t)) - x))
    table = stieltjes_invert(g, np.asarray(u_grid, float), eps)
    return KernelSlice(t, x, table.grid, table.density,
                       table.mass_deficit, table.bad)


def increment_transform(ff: FlowField, s: float, t: float, z):
    """Voiculescu transform of the (s, t) increment law.

    phi_{mu_t}(z) - phi_{mu_s}(z) with phi_{mu_r}(z) = F_r^(-1)(z) - z,
    using F_{mu_r} = F_r for the point initial law.
    """
    if not 0 <= s <= t:
        raise DomainError("need 0 <= s <= t")
    a = np.asarray(flow_inverse(ff, z, t), dtype=complex)
    b = np.asarray(flow_inverse(ff, z, s), dtype=complex)
    out = a - b
    return out if out.shape else complex(out)
