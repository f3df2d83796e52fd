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
from .errors import (DomainError, NewtonDivergence, NotContaining,
                     OutsideImage, PoleOnPath, QuadratureFailure)
from .measures import Measure
from .nevanlinna import (NevanlinnaSpec, PowerForm, RationalNevanlinna,
                         rational_to_canonical)
from .quadrature import DEFAULT_ABS_TOL, segment_quad


# ---------------------------------------------------------------------------
# continuation cache
# ---------------------------------------------------------------------------

class ContinuationCache:
    """Seed store for repeated inversions.

    Only a seed accelerator; outcomes never depend on its contents because
    failures fall back to the full continuation path.
    """

    def __init__(self, capacity: int = 256):
        self.capacity = capacity
        self._entries: list[tuple[complex, complex]] = []

    def nearest(self, w: complex):
        entries = self._entries
        if not entries:
            return None
        return min(entries, key=lambda e: abs(e[0] - w))

    def insert(self, w: complex, z: complex):
        self._entries.append((w, z))
        if len(self._entries) > self.capacity:
            del self._entries[: len(self._entries) - self.capacity]


# ---------------------------------------------------------------------------
# the conformal pair
# ---------------------------------------------------------------------------

@dataclass
class ConformalPair:
    """A primitive Psi with derivative -psi, plus the numeric inverse Phi.

    Psi is the raw primitive (natural constant for closed forms, anchored
    Psi(i) = 0 for the generic and black-box routes) plus `normalization`,
    the constant added so the image contains C+ once the containment test
    passes.
    """
    psi_form: object
    kind: str
    normalization: complex = 0.0
    abs_tol: float = DEFAULT_ABS_TOL
    cache: ContinuationCache = field(default_factory=ContinuationCache)
    # anchors (z, Psi_raw(z)) for the black-box path quadrature; seeded at
    # the normalization point Psi_raw(i) = 0
    _anchors: ContinuationCache = field(default_factory=ContinuationCache)

    # -- construction -----------------------------------------------------

    @classmethod
    def from_psi(cls, psi, *, abs_tol: float = DEFAULT_ABS_TOL) -> "ConformalPair":
        if isinstance(psi, (int, float, complex)):
            c = complex(psi)
            if c == 0:
                raise ValueError("psi = 0 has no univalent primitive")
            if c.imag > 0:
                raise ValueError("a Nevanlinna constant needs Im c <= 0")
            return cls(c, "constant", abs_tol=abs_tol)
        if isinstance(psi, PowerForm):
            return cls(psi, "power", abs_tol=abs_tol)
        if isinstance(psi, RationalNevanlinna):
            if not psi.poles and psi.a == 0.0:
                return cls(complex(psi.b), "constant", abs_tol=abs_tol)
            return cls(psi, "rational", abs_tol=abs_tol)
        if isinstance(psi, NevanlinnaSpec):
            if psi.alpha == 0.0 and psi.nu.is_empty:
                return cls(complex(psi.beta), "constant", abs_tol=abs_tol)
            if not psi.nu.pieces:
                # atoms-only measures are rational: use the closed form
                poles = tuple(a.position for a in psi.nu.atoms)
                order = np.argsort(poles)
                atoms = [psi.nu.atoms[k] for k in order]
                res = tuple(a.mass * (1.0 + a.position ** 2) for a in atoms)
                b = psi.beta + sum(a.mass * a.position for a in atoms)
                r = RationalNevanlinna(psi.alpha, b,
                                       tuple(a.position for a in atoms), res)
                return cls(r, "rational", abs_tol=abs_tol)
            return cls(psi, "generic", abs_tol=abs_tol)
        raise TypeError(f"unsupported psi description {type(psi).__name__}")

    @classmethod
    def from_psi_blackbox(cls, fn, *, abs_tol: float = DEFAULT_ABS_TOL) -> "ConformalPair":
        """Pair for a black-box Nevanlinna psi given only as an evaluator."""
        return cls(fn, "blackbox", abs_tol=abs_tol)

    # -- psi and Psi --------------------------------------------------------

    def psi(self, z):
        z = np.asarray(z, dtype=complex)
        if self.kind == "constant":
            val = self.psi_form * np.ones_like(z)
        elif self.kind in ("power", "rational"):
            val = self.psi_form.evaluate(z)
        elif self.kind == "blackbox":
            val = self.psi_form.eval_array(z)
        else:
            val = self.psi_form.eval_grid(z, abs_tol=self.abs_tol)
        val = np.asarray(val)
        return val if val.shape else complex(val)

    def _psi_nodes(self, s):
        """-psi on quadrature nodes, for the black-box path primitive."""
        return -self.psi_form.eval_array(s)

    def _psi_raw_vectorized(self, z: np.ndarray) -> np.ndarray:
        if self.kind == "constant":
            return -self.psi_form * z
        if self.kind == "power":
            c, p = self.psi_form.coeff, self.psi_form.exponent
            q = p + 1.0
            return -(c / q) * np.power(z, q)
        if self.kind == "rational":
            r: RationalNevanlinna = self.psi_form
            acc = -0.5 * r.a * z * z - r.b * z
            for xi, al in zip(r.poles, r.residues):
                acc = acc - al * np.log(z - xi)
            return acc
        if self.kind == "generic":
            return self._psi_raw_spec(z)
        raise AssertionError("no closed form for black-box psi")

    def _psi_raw_spec(self, z: np.ndarray) -> np.ndarray:
        """-[alpha (z^2 + 1)/2 + beta (z - i) + int K(z, u) nu(du)].

        K(z, u) is the primitive of the canonical kernel (1 + u s)/(s - u)
        from i to z, so the whole grid costs one quadrature over nu.
        """
        spec: NevanlinnaSpec = self.psi_form
        if np.any(z.imag <= 0):
            raise DomainError("the generic primitive needs Im z > 0")
        flat = z.ravel()
        acc = 0.5 * spec.alpha * (flat ** 2 + 1.0) + spec.beta * (flat - 1j)
        if not spec.nu.is_empty:
            acc = acc + spec.nu.integrate(
                lambda u: _kernel_primitive(flat[:, None], u),
                abs_tol=self.abs_tol)
        return -acc.reshape(z.shape)

    def _psi_raw_path(self, z: complex) -> complex:
        """Black-box route: path quadrature from the nearest anchor.

        C+ is convex and psi is analytic there, so a straight segment from
        any cached anchor gives the same primitive value; anchoring at the
        nearest one keeps segments short when flows evaluate nearby points.
        """
        z = complex(z)
        if z.imag <= 0:
            raise DomainError("the quadrature primitive needs Im z > 0")
        hit = self._anchors.nearest(z)
        z0, w0 = (1j, 0.0)
        if hit is not None and abs(hit[0] - z) < abs(z - 1j):
            z0, w0 = hit
        if z == z0:
            return complex(w0)
        val = w0 + segment_quad(self._psi_nodes, z0, z, abs_tol=self.abs_tol)
        self._anchors.insert(z, complex(val))
        return complex(val)

    def Psi(self, z):
        """Primitive of -psi (plus the stored normalization constant)."""
        z = np.asarray(z, dtype=complex)
        if self.kind == "blackbox":
            if z.shape:
                flat = np.array([self._psi_raw_path(p) for p in z.ravel()])
                return flat.reshape(z.shape) + self.normalization
            return self._psi_raw_path(complex(z)) + self.normalization
        out = self._psi_raw_vectorized(z) + self.normalization
        return out if out.shape else complex(out)

    def psi_prime_of_Psi(self, z):
        """d/dz Psi = -psi; the Newton derivative for inversion."""
        val = np.asarray(self.psi(np.asarray(z, dtype=complex)))
        return -val if val.shape else -complex(val)

    # -- inversion -----------------------------------------------------------

    def Phi(self, w, *, seed: complex | None = None):
        """Numeric inverse: the z in C+ with Psi(z) = w.

        Over an array, each point is solved from the previous point's
        preimage, and a point that cannot be inverted gives NaN; a scalar
        w raises instead.
        """
        ws = np.asarray(w, dtype=complex)
        if ws.shape:
            out = np.full(ws.size, complex("nan"))
            for k, wk in enumerate(ws.ravel()):
                try:
                    out[k] = seed = self.Phi(wk, seed=seed)
                except (OutsideImage, NewtonDivergence, DomainError):
                    pass
            return out.reshape(ws.shape)
        w = complex(w)
        if self.kind == "constant":
            z = (self.normalization - w) / self.psi_form
            return z
        if self.kind == "power":
            return self._phi_power(w - self.normalization)
        return self._phi_newton(w, seed)

    def _phi_power(self, w: complex) -> complex:
        c, p = self.psi_form.coeff, self.psi_form.exponent
        q = p + 1.0
        v = -q * w / c
        if v == 0:
            raise OutsideImage("sector apex is a boundary point")
        # the closed lower edge theta = 0 is the continuous boundary z > 0
        theta = math.atan2(v.imag, v.real)
        if not 0.0 <= theta < q * math.pi:
            theta += 2.0 * math.pi
            if not 0.0 <= theta < q * math.pi:
                raise OutsideImage(
                    f"{w} outside the image sector of opening {q} pi")
        return abs(v) ** (1.0 / q) * complex(math.cos(theta / q),
                                             math.sin(theta / q))

    def _solve_inverse(self, w: complex, seed: complex) -> complex:
        """One Newton solve Psi(z) = w from a given seed."""
        def derivative(z):
            return -complex(self.psi(z))

        scale = max(1.0, abs(w))
        if self.kind != "blackbox":
            # the generic primitive carries quadrature error near abs_tol
            rtol = 1e-9 if self.kind == "generic" else 1e-12
            return newton_halfplane(lambda z: complex(self.Psi(z)) - w,
                                    derivative, seed, rtol=rtol, scale=scale)
        # pin the quadrature anchor for the whole solve so the residual is
        # self-consistent at the Newton tolerance
        z0 = complex(seed)
        w0 = complex(self.Psi(z0))

        def residual(z):
            inc = segment_quad(self._psi_nodes, z0, z, abs_tol=self.abs_tol)
            return w0 + complex(inc) - w

        z = newton_halfplane(residual, derivative, z0, rtol=1e-9, scale=scale)
        self._anchors.insert(z, w - self.normalization)
        return z

    def _phi_newton(self, w: complex, seed: complex | None) -> complex:
        seeds = []
        if seed is not None:
            seeds.append(seed)
        hit = self.cache.nearest(w)
        if hit is not None:
            seeds.append(hit[1])
        for s in seeds:
            try:
                z = self._solve_inverse(w, s)
                self.cache.insert(w, z)
                return z
            except NewtonDivergence:
                continue
        z = self._phi_continuation(w)
        self.cache.insert(w, z)
        return z

    def _phi_continuation(self, w: complex) -> complex:
        """Walk a left dogleg from the anchor; starlike images admit it."""
        z0 = 1j
        w0 = complex(self.Psi(z0))
        reach = 5.0 + 2.0 * max(abs(w), abs(w0))
        corners = [w0, w0 - reach, complex(w.real - reach, w.imag), w]
        last_err: NewtonDivergence | None = None
        for n_steps in (24, 96, 384):
            z = z0
            try:
                for a, b in zip(corners, corners[1:]):
                    for k in range(1, n_steps + 1):
                        z = self._solve_inverse(a + (b - a) * k / n_steps, z)
                return z
            except NewtonDivergence as exc:
                last_err = exc
        raise OutsideImage(
            f"inversion at {w} diverged; the point is outside the image or "
            f"numerically unreachable") from last_err


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


def invert_primitive(pair: ConformalPair, w: complex,
                     *, seed: complex | None = None) -> complex:
    """Phi(w) in C+; OutsideImage when Newton cannot reach the target."""
    return pair.Phi(w, seed=seed)


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

    def ray_bound(self, q: float, *, tol: float = 1e-9) -> float:
        """d_Omega-style query: sup of the free ray at height q."""
        for height, tip in self.slits:
            if abs(q - height) <= tol:
                return tip
        return math.inf


def slit_image(r: RationalNevanlinna, *, bisect_tol: float = 1e-12) -> SlitImage:
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
        root = _bisect_decreasing(psi_real, left, right, bisect_tol)
        tip = float(np.real(pair.Psi(complex(root, 0.0))))
        slits.append((heights[j], tip))
    return SlitImage(tuple(slits))


def _bisect_decreasing(f, left: float | None, right: float | None,
                       tol: float) -> float:
    """Root of a strictly decreasing f on (left, right), ends may be open."""
    if left is None and right is None:
        a, b = -1.0, 1.0
        while f(a) <= 0:
            a *= 2.0
        while f(b) >= 0:
            b *= 2.0
    elif left is None:
        gap = 1.0
        b = right - 1e-12 * max(1.0, abs(right))
        while f(right - gap) <= 0:
            gap *= 2.0
        a = right - gap
    elif right is None:
        gap = 1.0
        a = left + 1e-12 * max(1.0, abs(left))
        while f(left + gap) >= 0:
            gap *= 2.0
        b = left + gap
    else:
        width = right - left
        a = left + 1e-12 * max(1.0, width)
        b = right - 1e-12 * max(1.0, width)
    scale = max(1.0, abs(a), abs(b))
    while b - a > tol * scale:
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


def contains_halfplane_translate(psi, *, abs_tol: float = DEFAULT_ABS_TOL,
                                 zero_tol: float = 1e-9) -> ContainmentCertificate:
    """Decide whether Psi(C+) contains a translate of C+.

    yes iff [int_0^inf u^2 nu < inf and alpha < 0] or [that moment finite,
    alpha = 0 and beta + int u nu(du) < 0]; infinities honoured through the
    tail metadata.
    """
    spec = _canonical(psi)
    m2_plus = spec.nu.moment(2, positive_part_only=True, abs_tol=abs_tol)
    if not math.isfinite(m2_plus):
        return ContainmentCertificate(
            False, m2_plus, spec.alpha, math.nan,
            "second moment of the positive part diverges")
    if spec.alpha < 0:
        return ContainmentCertificate(
            True, m2_plus, spec.alpha, spec.beta + spec.nu.moment(1, abs_tol=abs_tol),
            "alpha < 0")
    drift = spec.beta + spec.nu.moment(1, abs_tol=abs_tol)
    if drift < -zero_tol:
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


def normalize_for_halfplane(pair: ConformalPair,
                            *, max_shift: float = 512.0) -> ConformalPair:
    """Return a pair whose normalized image contains C+.

    Closed forms with containment already have the property (top slit at
    height 0; power sectors open past pi), so they keep normalization 0.
    The generic route shifts by the height of the image's top boundary
    ray: Im Psi is nondecreasing along horizontal boundary lines (psi is
    Nevanlinna), so the supremum sits just right of the support of nu, and
    one near-boundary evaluation estimates it.  A small probe grid then
    verifies invertibility, doubling the shift on failure.
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
    while shift <= max_shift:
        shifted = replace(pair, normalization=pair.normalization - 1j * shift,
                          cache=ContinuationCache())
        if not np.any(np.isnan(shifted.Phi(probes))):
            return shifted if shift > 0 else pair
        shift = max(1.0, 2.0 * shift)
    raise NotContaining(
        f"no vertical translate up to {max_shift} makes the image contain C+")
