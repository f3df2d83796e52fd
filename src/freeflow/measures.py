"""Finite positive measures on the real line: atoms plus density pieces.

A measure is a tuple of point masses and absolutely continuous pieces.
Unbounded pieces carry a tail exponent p, meaning density ~ |u|^(-p) as
|u| -> infinity, which makes moment finiteness decidable before any
quadrature is attempted.
"""
from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property
from typing import Callable, Sequence

import numpy as np
from numpy.polynomial.polynomial import polyval

from .errors import MissingTailMetadata
from .quadrature import DEFAULT_ABS_TOL, adaptive_quad, quad_interval

_TWO_PI = 2.0 * math.pi


@dataclass(frozen=True)
class Atom:
    position: float
    mass: float

    def __post_init__(self):
        if not (self.mass > 0):
            raise ValueError(f"atom mass must be positive, got {self.mass}")
        if not np.isfinite(self.position):
            raise ValueError("atom position must be finite")


@dataclass(frozen=True)
class DensityPiece:
    """Absolutely continuous piece supported on [lo, hi].

    density must accept ndarray input and return nonnegative values of the
    same shape.  tail_exponent is required for moment queries whenever the
    support is unbounded.
    """
    lo: float
    hi: float
    density: Callable[[np.ndarray], np.ndarray]
    tail_exponent: float | None = None

    def __post_init__(self):
        if not self.lo < self.hi:
            raise ValueError(f"need lo < hi, got [{self.lo}, {self.hi}]")

    @property
    def unbounded(self) -> bool:
        return np.isinf(self.lo) or np.isinf(self.hi)

    @cached_property
    def expansion(self) -> "ChebyshevU | None":
        """Chebyshev-U expansion of the density, fitted on first use; None
        when the piece is unbounded or not smooth (see ChebyshevU.fit)."""
        return None if self.unbounded else ChebyshevU.fit(
            self.density, self.lo, self.hi)


# dropped coefficients may sum to _CHOP_ULPS n eps of the l1 norm: each one
# carries the samples' rounding (more where rho rounds u - centre by an edge)
_CHOP_ULPS = 8


@dataclass(frozen=True)
class ChebyshevU:
    """rho(u) = sqrt(1 - x^2) sum_k b_k U_k(x) on [lo, hi], x = (u - mid)/half
    with mid and half the centre and half-width; c holds the coefficients
    of (1 + u^2) rho.

    With zeta = (z - mid)/half and J = zeta - sqrt(zeta - 1) sqrt(zeta + 1),
    a Cauchy-type integral over the piece is a power series in J (Olver and
    Nadakuditi, arXiv:1203.1958): O(len(a)) work per point however close z
    is to the support.  tail bounds the truncation error of cauchy and of
    log_cauchy(z) - log_cauchy(i) over either weight; tail_b, the smaller
    bound over b alone, leaves out the factor 1 + max u^2 that c carries.
    """
    lo: float
    hi: float
    b: np.ndarray
    c: np.ndarray
    tail: float
    tail_b: float

    @classmethod
    def fit(cls, density, lo: float, hi: float) -> "ChebyshevU | None":
        """DST-II, by FFT, of rho at n = 64, 128, 256 theta-midpoints until
        the dropped coefficients fit in the upper half; None if they never
        do (a kink, a jump, or an edge where rho does not vanish like a
        square root: the coefficients then decay only algebraically)."""
        mid, half = 0.5 * (lo + hi), 0.5 * (hi - lo)
        # a dropped b_k moves cauchy over b by up to pi b_k, c by up to
        # (1 + max u^2) b_k, and log_cauchy by pi half more
        scale = math.pi * max(1.0, 2.0 * half) * (1.0 + (abs(mid) + half) ** 2)
        for n in (64, 128, 256):
            m = np.arange(1, n + 1)
            f = density(mid + half * np.cos(math.pi * (m - 0.5) / n))
            spec = np.conj(np.fft.fft(np.asarray(f, dtype=float), 2 * n))
            b = (2.0 / n) * (np.exp(0.5j * math.pi * m / n) * spec[m]).imag
            b[-1] *= 0.5
            rest = np.cumsum(np.abs(b[::-1]))[::-1]
            dropped = scale * rest
            tol = _CHOP_ULPS * n * np.finfo(float).eps * dropped[0]
            # NaN counts as not negligible, so it never passes as resolved
            keep = max(1, int(np.count_nonzero(~(dropped <= tol))))
            if keep <= n // 2:
                b, xb = b[:keep], _times_x(b[:keep])
                c = ((1.0 + mid * mid) * np.append(b, [0.0, 0.0])
                     + 2.0 * mid * half * np.append(xb, 0.0)
                     + half * half * _times_x(xb))
                return cls(lo, hi, b, c, float(dropped[keep]),
                           math.pi * float(rest[keep]))
        return None

    def _joukowski(self, z):
        # zeta -/+ 1 from z - hi and z - lo, exact next to an edge
        half = 0.5 * (self.hi - self.lo)
        root = np.sqrt((z - self.hi) / half) * np.sqrt((z - self.lo) / half)
        # J = zeta - root = 1/(zeta + root): no cancellation as |z| grows
        return 1.0 / ((z - 0.5 * (self.lo + self.hi)) / half + root), root

    def cauchy(self, z, a: np.ndarray):
        """int w(u)/(z - u) du = pi sum_k a_k J^(k+1); a is b or c."""
        j, _ = self._joukowski(z)
        return math.pi * j * polyval(j, a)

    def cauchy_prime(self, z, a: np.ndarray):
        """d/dz of cauchy(z, a), from dJ/dzeta = -J/root."""
        j, root = self._joukowski(z)
        return (-2.0 * math.pi / (self.hi - self.lo)) * (j / root) * polyval(
            j, a * np.arange(1, a.size + 1))

    def log_cauchy(self, z, a: np.ndarray):
        """int w(u) log(z - u) du, up to a constant: (pi half/2) times
        a_0 (J^2/2 - log J) + sum_k>=1 a_k (J^(k+2)/(k+2) - J^k/k)."""
        j, _ = self._joukowski(z)
        # the coefficient of J^m, m >= 1, is (a_(m-2) - a_m)/m
        padded = np.concatenate([[0.0, 0.0], a, [0.0, 0.0]])
        e = (padded[1:-2] - padded[3:]) / np.arange(1, a.size + 2)
        return (0.25 * math.pi * (self.hi - self.lo)) * (
            j * polyval(j, e) - a[0] * np.log(j))


def _times_x(a: np.ndarray) -> np.ndarray:
    """Coefficients of x sum_k a_k U_k, from x U_k = (U_(k-1) + U_(k+1))/2."""
    return 0.5 * (np.append(0.0, a) + np.append(a[1:], [0.0, 0.0]))


@dataclass(frozen=True)
class Measure:
    atoms: tuple[Atom, ...] = ()
    pieces: tuple[DensityPiece, ...] = ()

    def __post_init__(self):
        atoms = tuple(a if isinstance(a, Atom) else Atom(*a) for a in self.atoms)
        object.__setattr__(self, "atoms", atoms)
        object.__setattr__(self, "pieces", tuple(self.pieces))
        positions = [a.position for a in atoms]
        if len(set(positions)) != len(positions):
            raise ValueError("atom positions must be pairwise distinct")

    # -- integration ----------------------------------------------------

    def integrate(self, f, *, abs_tol: float = DEFAULT_ABS_TOL, closed=None):
        """Return sum_atoms mass*f(u) + sum_pieces int f(u) density(u) du.

        f maps an abscissa array to values with the abscissa axis last, so
        vector-valued integrands (a grid of transforms) work in one pass.
        closed, if given, is a pair (weight, fn): weight is "b" (rho) or
        "c" ((1 + u^2) rho), and fn maps a piece's ChebyshevU expansion and
        that weight's coefficients to the same integral in closed form.  It
        replaces quadrature on each piece whose bound for that weight
        (tail_b or tail) is at most abs_tol / n_pieces.
        """
        total = None
        if self.atoms:
            pos = np.array([a.position for a in self.atoms])
            w = np.array([a.mass for a in self.atoms])
            vals = np.asarray(f(pos))
            total = np.tensordot(vals, w, axes=([-1], [0]))
        n = max(1, len(self.pieces))
        for piece in self.pieces:
            exp = None if closed is None else piece.expansion
            coef, bound = (None, math.inf) if exp is None else (
                (exp.b, exp.tail_b) if closed[0] == "b" else (exp.c, exp.tail))
            if bound <= abs_tol / n:
                part = closed[1](exp, coef)
            else:
                part = _integrate_piece(f, piece, abs_tol / n)
            total = part if total is None else total + part
        if total is None:
            return 0.0
        return total

    def total_mass(self, *, abs_tol: float = DEFAULT_ABS_TOL) -> float:
        # int rho = (pi/2) half b_0: only U_0 has a nonzero weighted mean
        val = self.integrate(
            lambda u: np.ones_like(u), abs_tol=abs_tol,
            closed=("b", lambda e, b: 0.25 * math.pi * (e.hi - e.lo) * b[0]))
        return float(np.real(val))

    def moment(self, k: int, positive_part_only: bool = False,
               *, abs_tol: float = DEFAULT_ABS_TOL) -> float:
        """k-th moment, k in {0, 1, 2}; +/-inf when tail metadata says so."""
        if k not in (0, 1, 2):
            raise ValueError("only moments k in {0, 1, 2} are supported")
        plus_inf = False
        minus_inf = False
        finite = 0.0
        for a in self.atoms:
            if positive_part_only and a.position <= 0:
                continue
            finite += a.mass * a.position ** k
        for piece in self.pieces:
            lo, hi = piece.lo, piece.hi
            if positive_part_only:
                if hi <= 0:
                    continue
                lo = max(lo, 0.0)
            for side, unbounded in ((-1, np.isinf(lo)), (+1, np.isinf(hi))):
                if not unbounded:
                    continue
                if piece.tail_exponent is None:
                    raise MissingTailMetadata(
                        f"piece [{piece.lo}, {piece.hi}] has no tail exponent")
                if piece.tail_exponent <= k + 1:
                    if k % 2 == 1 and side < 0:
                        minus_inf = True
                    else:
                        plus_inf = True
            if plus_inf or minus_inf:
                continue
            dens = piece.density

            def g(u, _d=dens, _k=k):
                return u ** _k * np.asarray(_d(u))

            # u^k density(u) decays like |u|^(k - tail_exponent)
            tail = (piece.tail_exponent - k
                    if np.isinf(lo) or np.isinf(hi) else None)
            finite += float(np.real(quad_interval(g, lo, hi, abs_tol=abs_tol,
                                                  tail_exponent=tail)))
        if plus_inf and minus_inf:
            raise ValueError("moment is indeterminate: both tails diverge")
        if plus_inf:
            return math.inf
        if minus_inf:
            return -math.inf
        return finite

    # -- convenience -----------------------------------------------------

    def scaled(self, c: float) -> "Measure":
        if not c > 0:
            raise ValueError("scale factor must be positive")
        atoms = tuple(Atom(a.position, c * a.mass) for a in self.atoms)
        pieces = tuple(
            DensityPiece(p.lo, p.hi,
                         (lambda u, _d=p.density, _c=c: _c * np.asarray(_d(u))),
                         p.tail_exponent)
            for p in self.pieces)
        return Measure(atoms, pieces)

    def support_hull(self) -> tuple[float, float]:
        lo, hi = math.inf, -math.inf
        for a in self.atoms:
            lo, hi = min(lo, a.position), max(hi, a.position)
        for p in self.pieces:
            lo, hi = min(lo, p.lo), max(hi, p.hi)
        return lo, hi

    @property
    def is_empty(self) -> bool:
        return not self.atoms and not self.pieces

    # -- parsing (a measure is read from a JSON spec, never written) -----

    @classmethod
    def from_json_dict(cls, data: dict) -> "Measure":
        """{"atoms": [{"u", "mass"}], "ac": [{"lo", "hi", "density",
        "tailExponent"?, "points"?}]}, density a builtin name."""
        atoms = tuple(Atom(float(d["u"]), float(d["mass"]))
                      for d in data.get("atoms", ()))
        return cls(atoms, tuple(_piece_from_json(e) for e in data.get("ac", ())))


def _integrate_piece(f, piece: DensityPiece, abs_tol: float):
    """int f(u) density(u) du over one piece with no closed form.

    Finite pieces are integrated in theta with u = mid + half cos(theta):
    square-root edges (and inverse square-root ones) become smooth
    endpoints.  The Jacobian half sin(theta) multiplies the 1-d density
    weights, never the (points x nodes) values of f.  Unbounded sides are
    folded with the piece's tail exponent, so a heavy tail stays smooth.
    """
    dens = piece.density
    if piece.unbounded:
        def g(u):
            return np.asarray(f(u)) * np.asarray(dens(u))

        return quad_interval(g, piece.lo, piece.hi, abs_tol=abs_tol,
                             tail_exponent=piece.tail_exponent)
    mid = 0.5 * (piece.lo + piece.hi)
    half = 0.5 * (piece.hi - piece.lo)

    def g_theta(theta):
        u = mid + half * np.cos(theta)
        weight = np.asarray(dens(u)) * (half * np.sin(theta))
        return np.asarray(f(u)) * weight

    return adaptive_quad(g_theta, 0.0, math.pi, abs_tol=abs_tol)


def _num_in(x) -> float:
    if isinstance(x, str):
        s = x.strip().lower()
        if s in ("inf", "+inf", "infinity"):
            return math.inf
        if s == "-inf":
            return -math.inf
        return float(s)
    return float(x)


# -- builtin densities ----------------------------------------------------

def semicircle_density(t: float = 1.0):
    """Wigner semicircle of variance t on [-2 sqrt t, 2 sqrt t]."""
    def dens(u):
        u = np.asarray(u)
        return np.sqrt(np.clip(4.0 * t - u * u, 0.0, None)) / (_TWO_PI * t)
    return dens


def _sqrt_neg(u):
    u = np.asarray(u)
    return np.sqrt(np.clip(-u, 0.0, None)) / (_TWO_PI * (1.0 + u * u))


def _inv_sqrt_neg(u):
    u = np.asarray(u, dtype=float)
    return 1.0 / (_TWO_PI * np.sqrt(np.clip(-u, 1e-300, None)) * (1.0 + u * u))


def table_density(points: Sequence[Sequence[float]]):
    """Piecewise-linear density through (u, value) pairs; zero outside."""
    pts = sorted((float(u), float(v)) for u, v in points)
    us = np.array([p[0] for p in pts])
    vs = np.array([p[1] for p in pts])
    if np.any(vs < 0):
        raise ValueError("table density values must be nonnegative")

    def dens(u):
        return np.interp(np.asarray(u), us, vs, left=0.0, right=0.0)

    return dens


_NAME_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*(?:\((.*)\))?\s*$")


def _piece_from_json(entry: dict) -> DensityPiece:
    lo = _num_in(entry["lo"])
    hi = _num_in(entry["hi"])
    tail = entry.get("tailExponent")
    tail = None if tail is None else float(tail)
    name = entry["density"]
    m = _NAME_RE.match(name)
    if not m:
        raise ValueError(f"unrecognized density spec {name!r}")
    base, args = m.group(1), m.group(2)
    if base == "semicircle":
        t = float(args) if args else 1.0
        return DensityPiece(lo, hi, semicircle_density(t), tail)
    if base == "sqrtNeg":
        return DensityPiece(lo, hi, _sqrt_neg, tail if tail is not None else 1.5)
    if base == "invSqrtNeg":
        return DensityPiece(lo, hi, _inv_sqrt_neg,
                            tail if tail is not None else 2.5)
    if base == "table":
        return DensityPiece(lo, hi, table_density(entry["points"]), tail)
    raise ValueError(f"unknown builtin density {base!r}")


# -- constructors used throughout the package -----------------------------

def dirac(position: float, mass: float = 1.0) -> Measure:
    return Measure(atoms=(Atom(position, mass),))


def atomic(pairs: Sequence[tuple[float, float]]) -> Measure:
    return Measure(atoms=tuple(Atom(u, m) for u, m in pairs))


def semicircle_measure(t: float = 1.0) -> Measure:
    r = 2.0 * math.sqrt(t)
    return Measure(pieces=(DensityPiece(-r, r, semicircle_density(t)),))


def cauchy_law(scale: float = 1.0) -> Measure:
    """Cauchy law with density scale / (pi (scale^2 + u^2))."""
    def dens(u):
        u = np.asarray(u)
        return scale / (math.pi * (scale * scale + u * u))
    return Measure(pieces=(DensityPiece(-math.inf, math.inf, dens, 2.0),))
