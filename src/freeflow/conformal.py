"""Primitives of Nevanlinna functions as conformal maps of C+.

For a Nevanlinna psi (nonzero), any primitive Psi of -psi is univalent on
C+ and its image is starlike at -infinity.  Rational psi with negative
leading coefficient map onto the complement of finitely many horizontal
half-lines (slits); the containment criterion decides when the image holds
a translate of the upper half-plane, which is what the flow construction
needs.
"""
from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field, replace

import numpy as np

from ._newton import newton_halfplane
from .errors import (DomainError, NotContaining, OutsideImage, PoleOnPath,
                     QuadratureFailure)
from .measures import Measure
from .nevanlinna import (AnalyticFn, NevanlinnaSpec, PowerForm,
                         RationalNevanlinna, _principal_power,
                         rational_to_canonical, to_analytic)

# fixed-point iterates behind the asymptotic Newton seed: from the bare root
# of the leading term, Newton leaves 1,330 of the 4,480 points of
# halfplane_grid() unconverged on a three-pole rational psi (a = -1.03,
# poles near -1.5, 0, 1.5); from three iterates it leaves none
SEED_ITERATES = 3

_MAX_SHIFT = 512.0


# ---------------------------------------------------------------------------
# the conformal pair
# ---------------------------------------------------------------------------

@dataclass
class ConformalPair:
    """A primitive Psi with derivative -psi, plus the numeric inverse Phi.

    Psi is the raw primitive (natural constant for closed forms, anchored
    Psi(i) = 0 for the generic route) plus `normalization`, the constant
    added so the image contains C+ once the containment test passes.
    """
    psi_form: object
    kind: str
    normalization: complex = 0.0
    _psi_fn: AnalyticFn = field(init=False, repr=False)

    def __post_init__(self):
        self._psi_fn = to_analytic(self.psi_form)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_psi(cls, psi) -> "ConformalPair":
        if isinstance(psi, (int, float, complex)):
            c = complex(psi)
            if c == 0:
                raise ValueError("psi = 0 has no univalent primitive")
            if c.imag > 0:
                raise ValueError("a Nevanlinna constant needs Im c <= 0")
            return cls(c, "constant")
        if isinstance(psi, PowerForm):
            return cls(psi, "power")
        if isinstance(psi, RationalNevanlinna):
            if not psi.poles and psi.a == 0.0:
                return cls(complex(psi.b), "constant")
            return cls(psi, "rational")
        if isinstance(psi, NevanlinnaSpec):
            if psi.alpha == 0.0 and psi.nu.is_empty:
                return cls(complex(psi.beta), "constant")
            if not psi.nu.pieces:
                # atoms-only measures are rational: use the closed form
                poles = tuple(a.position for a in psi.nu.atoms)
                order = np.argsort(poles)
                atoms = [psi.nu.atoms[k] for k in order]
                res = tuple(a.mass * (1.0 + a.position ** 2) for a in atoms)
                b = psi.beta + sum(a.mass * a.position for a in atoms)
                r = RationalNevanlinna(psi.alpha, b,
                                       tuple(a.position for a in atoms), res)
                return cls(r, "rational")
            return cls(psi, "generic")
        raise TypeError(f"unsupported psi description {type(psi).__name__}")

    # -- psi and Psi --------------------------------------------------------

    def psi(self, z):
        val = self._psi_fn.eval_array(z)
        return val if val.shape else complex(val)

    def _psi_raw(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return -self.psi_form * z
        if self.kind == "power":
            c, p = self.psi_form.coeff, self.psi_form.exponent
            q = p + 1.0
            return -(c / q) * _principal_power(z, q)
        if self.kind == "rational":
            r: RationalNevanlinna = self.psi_form
            acc = -0.5 * r.a * z * z - r.b * z
            for xi, al in zip(r.poles, r.residues):
                acc = acc - al * np.log(z - xi)
            return acc
        return self._psi_raw_spec(z)

    def _psi_raw_spec(self, z: np.ndarray) -> np.ndarray:
        """-[alpha (z^2 + 1)/2 + beta (z - i) + int K(z, u) nu(du)].

        K(z, u) is the primitive of the canonical kernel (1 + u s)/(s - u)
        from i to z.  A smooth finite piece of nu contributes
        (z - i) m1 + L(z) - L(i) in closed form, L the log integral of
        (1 + u^2) rho and m1 = -Re C(i) as in eval_grid; L(i) and Re C(i)
        are cached on the piece's ChebyshevU expansion (`at_i`).  Atoms and
        the other pieces share one quadrature over the whole grid.
        """
        spec: NevanlinnaSpec = self.psi_form
        if np.any(z.imag <= 0):
            raise DomainError("the generic primitive needs Im z > 0")
        flat = z.ravel()
        acc = 0.5 * spec.alpha * (flat ** 2 + 1.0) + spec.beta * (flat - 1j)
        if not spec.nu.is_empty:
            def closed(e, _):
                log_i, re_c_i = e.at_i
                return e.log_cauchy(flat) - log_i - (flat - 1j) * re_c_i
            acc = acc + spec.nu.integrate(
                lambda u: _kernel_primitive(flat[:, None], u),
                closed=("c", closed))
        return -acc.reshape(z.shape)

    def Psi(self, z):
        """Primitive of -psi (plus the stored normalization constant)."""
        z = np.asarray(z, dtype=complex)
        out = self._psi_raw(z) + self.normalization
        return out if out.shape else complex(out)

    # -- inversion -----------------------------------------------------------

    def Phi(self, w, *, seed=None):
        """Numeric inverse: the z in C+ with Psi(z) = w.

        Closed forms invert in numpy.  Otherwise every point is one lane of
        a single damped Newton solve, seeded from that point alone: by
        `seed` where the caller gives one (scalar or array; NaN means
        none), else by _asymptotic_seed.  Lanes that fail walk the dogleg
        continuation together, so no value depends on the order of the
        points or on earlier calls.  A point that cannot be inverted is NaN;
        a scalar w raises OutsideImage instead.
        """
        ws = np.asarray(w, dtype=complex)
        if self.kind == "constant":
            z = (self.normalization - ws) / self.psi_form
        elif self.kind == "power":
            z = self._phi_power(ws - self.normalization)
        else:
            flat = ws.ravel()
            if seed is None:
                seeds = self._asymptotic_seed(flat)
            else:
                seeds = np.broadcast_to(np.asarray(seed, dtype=complex),
                                        ws.shape).flatten()
                missing = np.isnan(seeds)
                if missing.any():
                    seeds[missing] = self._asymptotic_seed(flat[missing])
            z = self._solve(flat, seeds)
            bad = np.isnan(z)
            if bad.any():
                z[bad] = self._phi_continuation(flat[bad])
            z = z.reshape(ws.shape)
        if ws.shape:
            return z
        if np.isnan(z):
            raise OutsideImage(
                f"no preimage of {complex(ws)} found in C+; the point is "
                f"outside the image or numerically unreachable")
        return complex(z)

    def _phi_power(self, w: np.ndarray) -> np.ndarray:
        c, p = self.psi_form.coeff, self.psi_form.exponent
        q = p + 1.0
        v = -q * w / c
        # the closed lower edge theta = 0 is the continuous boundary z > 0;
        # the sector apex v = 0 is a boundary point
        theta = np.arctan2(v.imag, v.real)
        theta = np.where(theta < 0, theta + 2.0 * math.pi, theta)
        z = np.abs(v) ** (1.0 / q) * np.exp(1j * theta / q)
        return np.where((v != 0) & (theta < q * math.pi), z, complex("nan"))

    def _solve(self, w: np.ndarray, seed: np.ndarray) -> np.ndarray:
        """One lane-wise Newton solve Psi(z) = w; NaN where a lane fails."""
        # the generic primitive is a quadrature and carries error near
        # its absolute tolerance
        rtol = 1e-12 if self.kind == "rational" else 1e-9
        return newton_halfplane(lambda z, lanes: self.Psi(z) - w[lanes],
                                lambda z: -self.psi(z), seed, rtol=rtol,
                                scale=np.maximum(1.0, np.abs(w)))

    def _asymptotic_seed(self, w: np.ndarray) -> np.ndarray:
        """Seeds from the leading term L(z) = c z^k / k of Psi at infinity.

        k = 2 when psi's leading coefficient is negative, k = 1 when it
        vanishes and the drift beta + int u nu(du) is negative.  Psi = w is
        rewritten as L(z) = w - (Psi - L)(z); from the C+ root of L(z) = w,
        SEED_ITERATES fixed-point iterates follow, and a lane keeps an
        iterate only while it stays in C+.  Without a leading term (psi
        with no growth) every seed is NaN.
        """
        form = self.psi_form
        lead = drift = 0.0
        if self.kind == "rational":
            lead, drift = form.a, form.b
        elif self.kind == "generic":
            lead = form.alpha
            if lead == 0:
                drift = form.beta + form.nu.moment(1)
        if lead < 0:
            k, c = 2, -lead
        elif -math.inf < drift < 0:
            k, c = 1, -drift
        else:
            return np.full(w.shape, complex("nan"))

        def root(v):
            return 1j * np.sqrt(-2.0 * v / c) if k == 2 else v / c

        z = root(w)
        # a root on or below the real axis is lifted just above it
        z = np.where(z.imag > 0, z, z.real + 1e-3j)
        live = np.arange(w.size)
        with np.errstate(all="ignore"):
            for _ in range(SEED_ITERATES):
                zl = z[live]
                try:
                    new = root(w[live] - self.Psi(zl) + c * zl ** k / k)
                except QuadratureFailure:
                    break
                keep = new.imag > 0
                z[live[keep]] = new[keep]
                live = live[keep]
        return z

    def _phi_continuation(self, w: np.ndarray) -> np.ndarray:
        """Walk left doglegs from the anchor; starlike images admit them.

        All lanes walk in lockstep, one lane solve per dogleg step; a lane
        that fails a step waits for the next refinement.  NaN where every
        refinement fails.
        """
        z0 = 1j
        w0 = complex(self.Psi(z0))
        reach = 5.0 + 2.0 * np.maximum(np.abs(w), abs(w0))
        corners = [np.full(w.shape, w0), w0 - reach,
                   w.real - reach + 1j * w.imag, w]
        z = np.full(w.shape, complex("nan"))
        for n_steps in (24, 96, 384):
            todo = np.flatnonzero(np.isnan(z))
            walk = np.full(todo.size, z0)
            for a, b in zip(corners, corners[1:]):
                for k in range(1, n_steps + 1):
                    live = ~np.isnan(walk)
                    if not live.any():
                        break
                    ends = todo[live]
                    walk[live] = self._solve(
                        a[ends] + (b[ends] - a[ends]) * k / n_steps,
                        walk[live])
            z[todo] = walk
            if not np.isnan(z).any():
                break
        return z


def primitive_eval(pair: ConformalPair, z: complex):
    """Psi(z); boundary reals are allowed for rational psi away from poles."""
    zs = np.asarray(z, dtype=complex)
    if pair.kind == "rational":
        poles = np.asarray(pair.psi_form.poles)
        flat = np.atleast_1d(zs)
        on_axis = flat.imag == 0
        if poles.size and np.any(on_axis):
            dmin = np.min(np.abs(flat[on_axis, None] - poles[None, :]))
            if dmin < 1e-9:
                raise PoleOnPath("boundary evaluation within 1e-9 of a pole")
    return pair.Psi(zs)


# |d| below which log1p(d)/d - 1 is summed as a series: numpy's complex
# log1p is log(1 + d), which loses the digits of d that 1 + d rounds away
_SERIES_D = 1e-3


def _kernel_primitive(z: np.ndarray, u: np.ndarray) -> np.ndarray:
    """K(z, u) = int_i^z (1 + u s)/(s - u) ds for z in C+ and real u.

    In closed form K = u (z - i) + (1 + u^2) log1p(d) with
    d = (z - i)/(i - u); written as (z - i)[(-i - u)(log1p(d)/d - 1) - i]
    it has no cancellation between the two terms as |u| grows.
    """
    dz = z - 1j
    d = dz / (1j - u)
    with np.errstate(invalid="ignore", divide="ignore"):
        q = np.log1p(d) / d - 1.0
    small = np.abs(d) < _SERIES_D
    if small.any():
        ds = d[small]
        q[small] = ds * (-1.0 / 2 + ds * (1.0 / 3 + ds * (
            -1.0 / 4 + ds * (1.0 / 5 - ds / 6))))
    return dz * ((-1j - u) * q - 1j)


# ---------------------------------------------------------------------------
# slit images of rational psi
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class SlitImage:
    """Complement description: half-lines {p + i q_j | p >= p_j}."""
    slits: tuple[tuple[float, float], ...]  # (height q_j, tip p_j)


def slit_image(r: RationalNevanlinna) -> SlitImage:
    """Heights are -pi * sum of residues to the right; tips minimise Re Psi.

    Requires a < 0 so that psi decreases from +inf to -inf across each of
    the N+1 real intervals; the single sign change is found by bisection
    and the tip is Re Psi there (Re Psi is strictly convex per interval).
    """
    if not r.a < 0:
        raise ValueError("slit description needs a strictly negative "
                         "leading coefficient")
    pair = ConformalPair.from_psi(r)
    poles = list(r.poles)
    n = len(poles)
    tail = list(itertools.accumulate(reversed(r.residues)))
    heights = [-math.pi * s for s in reversed(tail)] + [0.0]

    def psi_real(x: float) -> float:
        return float(np.real(r.evaluate(complex(x, 0.0))))

    slits = []
    for j in range(n + 1):
        left = poles[j - 1] if j > 0 else None
        right = poles[j] if j < n else None
        root = _bisect_decreasing(psi_real, left, right)
        tip = float(np.real(pair.Psi(complex(root, 0.0))))
        slits.append((heights[j], tip))
    return SlitImage(tuple(slits))


def _bisect_decreasing(f, left: float | None, right: float | None) -> float:
    """Root of a strictly decreasing f on (left, right); None is an open end.

    Each end of the bracket is placed from a reference, the other end or 0
    when that one is open: a closed end steps inside by 1e-12 max(1, its
    distance to the reference), an open one doubles its gap from the
    reference until f takes the sign of its side.
    """
    def bracket(end, other, side):
        ref = 0.0 if other is None else other
        if end is not None:
            return end + side * 1e-12 * max(1.0, abs(end - ref))
        gap = 1.0
        while side * f(ref - side * gap) <= 0:
            gap *= 2.0
        return ref - side * gap

    a, b = bracket(left, right, 1.0), bracket(right, left, -1.0)
    scale = max(1.0, abs(a), abs(b))
    while b - a > 1e-12 * scale:
        mid = 0.5 * (a + b)
        if f(mid) > 0:
            a = mid
        else:
            b = mid
    return 0.5 * (a + b)


# ---------------------------------------------------------------------------
# containment of a half-plane translate
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class ContainmentCertificate:
    verdict: bool
    m2_plus: float
    alpha: float
    drift: float  # beta + int u nu(du), the decisive quantity when alpha = 0
    condition: str


def contains_halfplane_translate(psi) -> ContainmentCertificate:
    """Decide whether Psi(C+) contains a translate of C+.

    yes iff [int_0^inf u^2 nu < inf and alpha < 0] or [that moment finite,
    alpha = 0 and beta + int u nu(du) < 0]; infinities honoured through the
    tail metadata.
    """
    spec = _canonical(psi)
    m2_plus = spec.nu.moment(2, positive_part_only=True)
    if not math.isfinite(m2_plus):
        return ContainmentCertificate(
            False, m2_plus, spec.alpha, math.nan,
            "second moment of the positive part diverges")
    drift = spec.beta + spec.nu.moment(1)
    if spec.alpha < 0:
        return ContainmentCertificate(True, m2_plus, spec.alpha, drift,
                                      "alpha < 0")
    if drift < -1e-9:
        return ContainmentCertificate(True, m2_plus, spec.alpha, drift,
                                      "alpha = 0 and drift < 0")
    return ContainmentCertificate(False, m2_plus, spec.alpha, drift,
                                  "alpha = 0 and drift >= 0")


def _canonical(psi) -> NevanlinnaSpec:
    if isinstance(psi, NevanlinnaSpec):
        return psi
    if isinstance(psi, RationalNevanlinna):
        return rational_to_canonical(psi)
    if isinstance(psi, PowerForm):
        return psi.canonical_spec()
    if isinstance(psi, (int, float)):
        return NevanlinnaSpec(0.0, float(psi), Measure())
    raise TypeError(f"no canonical form for {type(psi).__name__}")


def normalize_for_halfplane(pair: ConformalPair) -> ConformalPair:
    """Return a pair whose normalized image contains C+.

    Closed forms with containment already have the property (top slit at
    height 0; power sectors open past pi), so they keep normalization 0.
    The generic route shifts by the height of the image's top boundary
    ray: Im Psi is nondecreasing along horizontal boundary lines (psi is
    Nevanlinna), so the supremum sits just right of the support of nu, and
    one near-boundary evaluation estimates it.  A small probe grid then
    verifies invertibility, doubling the shift on failure up to _MAX_SHIFT.
    """
    if pair.kind in ("rational", "power", "constant"):
        return pair
    spec: NevanlinnaSpec = pair.psi_form
    lo, hi = spec.nu.support_hull()
    x_right = hi + 1.0 if math.isfinite(hi) else 1e3
    delta = 1e-4
    q_top = None
    for d in (delta, 1e-2):
        try:
            q_top = float(np.imag(pair.Psi(complex(x_right, d))))
            break
        except QuadratureFailure:
            continue
    if q_top is None:
        raise NotContaining("cannot trace the top boundary ray")
    shift = max(0.0, q_top + 1e-3 + 0.02 * abs(q_top))
    probes = np.array([complex(re, im) for re in (-3.0, 0.0, 3.0)
                       for im in (0.2, 5.0)])
    while shift <= _MAX_SHIFT:
        shifted = replace(pair, normalization=pair.normalization - 1j * shift)
        if not np.any(np.isnan(shifted.Phi(probes))):
            return shifted if shift > 0 else pair
        shift = max(1.0, 2.0 * shift)
    raise NotContaining(
        f"no vertical translate up to {_MAX_SHIFT} makes the image contain C+")
