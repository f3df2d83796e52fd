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
from dataclasses import dataclass, field

import numpy as np

from .cauchy import stieltjes_invert
from .conformal import (ConformalPair, ContainmentCertificate,
                        contains_halfplane_translate, normalize_for_halfplane)
from .errors import DomainError, NotContaining, NotNevanlinna, OutsideImage
from .measures import Measure
from .nevanlinna import (AnalyticFn, NevanlinnaSpec, PowerForm,
                         RationalNevanlinna, Verdict, halfplane_grid,
                         is_nevanlinna_numeric, to_analytic,
                         vanishing_at_infinity)
from .ode import OdeConfig, integrate_halfplane


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
    v = np.power(z, q) - q * coeff * t
    theta = np.angle(v)
    theta = np.where(theta <= 0, theta + 2.0 * math.pi, theta)
    out = np.abs(v) ** (1.0 / q) * np.exp(1j * theta / q)
    return out if out.shape else complex(out)


def _power_proxy(coeff: float, exponent: float, z, t: float):
    """phi o F_t^(-1) via principal powers (the analytic continuation on
    the initial domain, and the branch that exposes half-plane violations)."""
    z = np.asarray(z, dtype=complex)
    q = 1.0 - exponent
    base = np.power(z, q) + q * coeff * t
    out = coeff * np.power(base, exponent / q)
    return out if out.shape else complex(out)


# ---------------------------------------------------------------------------
# flow fields
# ---------------------------------------------------------------------------

@dataclass
class FlowField:
    """A generator phi with whatever structure makes its flow computable.

    kind: "constant", "power" (phi = coeff z^exp), "psi-pair" (built from a
    primitive with image containing C+) or "generator-pair" (converse
    factorization through a primitive of -1/phi).
    """
    phi: AnalyticFn
    kind: str
    pair: ConformalPair | None = None
    gen_pair: ConformalPair | None = None
    power: tuple[float, float] | None = None
    const: complex | None = None
    ode: OdeConfig = field(default_factory=OdeConfig)
    certificate: ContainmentCertificate | None = None

    # -- constructors -------------------------------------------------------

    @classmethod
    def from_generator(cls, phi, *, validate: bool = True,
                       ode: OdeConfig | None = None) -> "FlowField":
        ode = ode or OdeConfig()
        form = phi.form if isinstance(phi, AnalyticFn) else phi
        if isinstance(form, (int, float, complex)):
            c = complex(form)
            if c.imag > 0:
                raise NotNevanlinna(f"constant generator {c} has Im > 0")
            ff = cls(to_analytic(c), "constant", const=c, ode=ode)
        elif isinstance(form, PowerForm):
            ff = cls(to_analytic(form), "power",
                     power=(form.coeff, form.exponent), ode=ode)
        elif isinstance(form, RationalNevanlinna) and form.a == 0.0 \
                and form.b == 0.0 and form.poles == (0.0,):
            # phi = r/z: -1/phi = -z/r is an exact power form
            r = form.residues[0]
            gpair = ConformalPair.from_psi(PowerForm(-1.0 / r, 1.0))
            ff = cls(to_analytic(form), "generator-pair", gen_pair=gpair,
                     ode=ode)
        else:
            fn = to_analytic(phi)
            # converse factorization: a primitive of -1/phi plays Phi, and
            # its numeric inverse plays Psi
            eta = AnalyticFn(lambda z: -1.0 / fn.eval_array(z),
                             name="minus-reciprocal")
            gpair = ConformalPair.from_psi_blackbox(eta)
            ff = cls(fn, "generator-pair", gen_pair=gpair, ode=ode)
        if validate:
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

def build_fal2(psi, *, ode: OdeConfig | None = None,
               validate: bool = True) -> FlowField:
    """Flow field with generator psi o Phi.

    psi may be a NevanlinnaSpec, RationalNevanlinna, PowerForm, or a complex
    constant with Im < 0 (the constant branch).  For non-constant psi the
    image of the primitive must contain a half-plane translate; the verdict
    certificate is stored on the result.
    """
    ode = ode or OdeConfig()
    if isinstance(psi, (int, float, complex)):
        c = complex(psi)
        if c.imag >= 0 and c.imag != 0:
            raise NotNevanlinna(f"constant psi {c} maps outside C- ")
        if c.imag == 0:
            # real constants pass through the main branch via drift
            psi = NevanlinnaSpec(0.0, float(c.real), Measure())
        else:
            return FlowField(to_analytic(c), "constant", const=c, ode=ode)
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
                       power=(phi.coeff, phi.exponent), ode=ode,
                       certificate=cert)
        if validate:
            ff.check_invariants()
        return ff
    cert = contains_halfplane_translate(psi)
    if not cert.verdict:
        raise NotContaining(
            f"the image of the primitive contains no half-plane translate "
            f"({cert.condition})", certificate=cert)
    pair = normalize_for_halfplane(ConformalPair.from_psi(psi))
    phi = AnalyticFn(lambda ws: pair.psi(_invert(pair, ws)),
                     name="psi-o-Phi")
    ff = FlowField(phi, "psi-pair", pair=pair, ode=ode, certificate=cert)
    if validate:
        # every phi evaluation is a Newton inversion here, so the invariant
        # check runs on a reduced grid; closed forms get the full one
        light = halfplane_grid(n_r=8, n_theta=8) if pair.kind in (
            "generic", "blackbox") else None
        ff.check_invariants(grid=light)
    return ff


# ---------------------------------------------------------------------------
# flow evaluation
# ---------------------------------------------------------------------------

def flow_conformal(ff: FlowField, z, t: float):
    """F_t via the conformal conjugation; t may be negative where the
    image admits it (detected through inversion failures)."""
    if ff.kind == "constant":
        z = np.asarray(z, dtype=complex)
        out = z - ff.const * t
        return out if out.shape else complex(out)
    if ff.kind == "power":
        c, p = ff.power
        return _power_flow(c, p, z, t)
    if ff.kind == "psi-pair":
        return ff.pair.Psi(_invert(ff.pair, z) + t)
    if ff.kind == "generator-pair":
        # Phi is the primitive (gen_pair.Psi up to sign) and Psi its inverse
        return _invert(ff.gen_pair, ff.gen_pair.Psi(z) - t)
    raise ValueError(f"unknown flow kind {ff.kind}")


def _invert(pair: ConformalPair, w):
    """pair.Phi(w), raising OutsideImage if any point cannot be inverted."""
    z = pair.Phi(w)
    bad = np.isnan(z)
    if np.any(bad):
        raise OutsideImage(f"inversion at {np.asarray(w)[bad].flat[0]} "
                           f"failed; the point is outside the image or "
                           f"numerically unreachable")
    return z


def flow_inverse(ff: FlowField, z, t: float):
    """F_t^(-1) = F_(-t); OutsideImage where z is not in F_t(C+)."""
    if t < 0:
        raise DomainError("flow_inverse needs t >= 0")
    return flow_conformal(ff, z, -t)


def flow_ode(ff: FlowField, z: complex, t: float) -> complex:
    """F_t by adaptive integration of F' = -phi(F), staying in C+."""
    if t < 0:
        raise DomainError("flow_ode integrates forward time only")
    phi = ff.phi
    return integrate_halfplane(lambda y: -phi(y), complex(z), t, ff.ode)


def flow(ff: FlowField, z, t: float, *, route: str = "conformal"):
    if route == "conformal":
        return flow_conformal(ff, z, t)
    if route == "ode":
        return flow_ode(ff, z, t)
    raise ValueError(f"unknown route {route!r}; use 'conformal' or 'ode'")


# ---------------------------------------------------------------------------
# the FAL2 falsifier
# ---------------------------------------------------------------------------

DEFAULT_T_SAMPLES = (0.1, 0.5, 1.0, 5.0)


def fal2_check(phi, t_samples=DEFAULT_T_SAMPLES, *, grid=None,
               im_tol: float = 1e-8,
               inconclusive_fraction: float = 0.05) -> Verdict:
    """Check that phi o F_t^(-1) keeps values in C- for each sampled t.

    A falsifier, not a prover: pass means no violation was found on the
    grid.  Fails carry (t, witness); inversion failures above the threshold
    without any witness give an inconclusive verdict.
    """
    ff = phi if isinstance(phi, FlowField) else FlowField.from_generator(phi)
    pts = halfplane_grid() if grid is None else np.asarray(grid, complex)
    worst = None
    fail_frac = 0.0
    detail = {}
    for t in t_samples:
        vals, failures = _proxy_values(ff, pts, t)
        finite = np.isfinite(vals)
        bad_total = int(np.count_nonzero(~finite))  # includes failure slots
        imag = np.where(finite, vals.imag, -np.inf)
        k = int(np.argmax(imag))
        detail[f"t={t:g}"] = {"maxIm": float(imag[k]),
                              "inversionFailures": int(failures)}
        if imag[k] > im_tol:
            if worst is None or imag[k] > worst[2]:
                worst = (t, complex(pts[k]), float(imag[k]))
        fail_frac = max(fail_frac, bad_total / pts.size)
    if worst is not None:
        return Verdict("fail", witness=worst[1], t=worst[0],
                       detail={"im": worst[2], **detail})
    if fail_frac > inconclusive_fraction:
        return Verdict("inconclusive",
                       detail={"failureFraction": fail_frac, **detail})
    return Verdict("pass", detail={"certificate": "no-violation-found",
                                   **detail})


def _proxy_values(ff: FlowField, pts: np.ndarray, t: float):
    """Values of phi o F_t^(-1) on pts plus the inversion-failure count."""
    if ff.kind == "constant":
        return np.full(pts.shape, ff.const, dtype=complex), 0
    if ff.kind == "power":
        c, p = ff.power
        with np.errstate(all="ignore"):
            return np.asarray(_power_proxy(c, p, pts, t)), 0
    gpair = ff.gen_pair
    if ff.kind == "psi-pair":
        zz, f = ff.pair.Phi(pts) - t, ff.pair.psi
    elif gpair.kind == "power":
        # principal-branch composition: the analytic continuation from the
        # initial domain, which exposes violations that the half-plane
        # confined inverse branch would hide (e.g. next to a flow slit)
        c, p = gpair.psi_form.coeff, gpair.psi_form.exponent
        q = p + 1.0
        with np.errstate(all="ignore"):
            u = -(c / q) * np.power(pts, q) + t
            zz = np.power(-q * u / c, 1.0 / q)
            return ff.phi.eval_array(zz), 0
    else:
        zz, f = gpair.Phi(gpair.Psi(pts) + t), ff.phi.eval_array
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


def _flow_grid_fn(ff: FlowField, t: float, shift: float = 0.0):
    def g(zetas):
        zetas = np.asarray(zetas, dtype=complex)
        vals = flow_conformal(ff, zetas, t)
        return 1.0 / (np.asarray(vals) - shift)
    return g


def marginal_law(ff: FlowField, t: float, x_grid,
                 *, eps: float = 1e-3) -> KernelSlice:
    """Law of the flow at time t started from the point mass at 0."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    table = stieltjes_invert(AnalyticFn(_flow_grid_fn(ff, t)),
                             np.asarray(x_grid, float), eps)
    return KernelSlice(t, 0.0, table.grid, table.density, table.mass_deficit,
                       table.bad)


def transition_kernel(ff: FlowField, t: float, x: float, u_grid,
                      *, eps: float = 1e-3) -> KernelSlice:
    """Markov kernel from x: Stieltjes inversion of 1/(F_t - x)."""
    if t < 0:
        raise DomainError("t must be nonnegative")
    table = stieltjes_invert(AnalyticFn(_flow_grid_fn(ff, t, shift=float(x))),
                             np.asarray(u_grid, float), eps)
    return KernelSlice(t, float(x), table.grid, table.density,
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
