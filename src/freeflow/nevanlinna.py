"""Nevanlinna functions: analytic maps of C+ into the closed lower half-plane.

Convention used throughout the package: a Nevanlinna function phi maps the
open upper half-plane into C- union R and has the canonical form

    phi(z) = alpha z + beta + int (1 + u z)/(z - u) nu(du),

with alpha <= 0, beta real and nu a finite positive measure.  The measure is
recovered from boundary values as

    nu(du) = lim_eps  -Im phi(u + i eps) / (pi (1 + u^2)) du,

with a 1/pi weight: the 1/(2 pi) sometimes quoted is inconsistent with the
canonical form above, as the identity phi(i) = alpha i + beta - i nu(R)
shows (take phi = -i, whose nu is the standard Cauchy law of total mass 1).
"""
from __future__ import annotations

import json
import math
import re
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .errors import (DomainError, EvaluatorFailure, ExtrapolationUnstable,
                     NotNevanlinna)
from .measures import Atom, DensityPiece, Measure, cauchy_law, table_density
from .quadrature import DEFAULT_ABS_TOL


# ---------------------------------------------------------------------------
# representations
# ---------------------------------------------------------------------------

@dataclass(frozen=True)
class NevanlinnaSpec:
    """Canonical triple (alpha, beta, nu)."""
    alpha: float
    beta: float
    nu: Measure

    def __post_init__(self):
        if self.alpha > 0:
            raise ValueError(f"alpha must be <= 0, got {self.alpha}")

    def evaluate(self, z: complex, *, abs_tol: float = DEFAULT_ABS_TOL) -> complex:
        return complex(self.eval_grid(z, abs_tol=abs_tol))

    def eval_grid(self, zs, *, abs_tol: float = DEFAULT_ABS_TOL) -> np.ndarray:
        """Evaluate on an array of points.

        As (1 + u z)/(z - u) = u + (1 + u^2)/(z - u), a smooth finite piece
        of nu adds m1 + C(z) in closed form, C the Cauchy integral of
        (1 + u^2) rho and m1 = int u rho = -Re C(i).  Atoms and the other
        pieces share one adaptive quadrature pass over the whole grid.
        """
        zs = np.asarray(zs, dtype=complex)
        flat = zs.ravel()
        if np.any(flat.imag <= 0):
            raise DomainError("evaluation requires Im z > 0 for every point")
        acc = self.alpha * flat + self.beta
        if flat.size and not self.nu.is_empty:
            def kernel(u):
                u = np.asarray(u)
                return (1.0 + flat[:, None] * u[None, :]) / (flat[:, None] - u[None, :])

            def closed(e, c):
                return e.cauchy(flat, c) - e.cauchy(1j, c).real
            acc = acc + self.nu.integrate(kernel, abs_tol=abs_tol,
                                          closed=("c", closed))
        return acc.reshape(zs.shape)


@dataclass(frozen=True)
class RationalNevanlinna:
    """a z + b + sum_k residues[k] / (z - poles[k]) with a <= 0, residues > 0."""
    a: float
    b: float
    poles: tuple[float, ...] = ()
    residues: tuple[float, ...] = ()

    def __post_init__(self):
        object.__setattr__(self, "poles", tuple(float(p) for p in self.poles))
        object.__setattr__(self, "residues",
                           tuple(float(r) for r in self.residues))
        if self.a > 0:
            raise ValueError(f"leading coefficient must be <= 0, got {self.a}")
        if len(self.poles) != len(self.residues):
            raise ValueError("poles and residues must have equal length")
        if any(r <= 0 for r in self.residues):
            raise ValueError("residues must be strictly positive")
        if any(q <= p for p, q in zip(self.poles, self.poles[1:])):
            raise ValueError("poles must be strictly increasing")

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        acc = self.a * z + self.b
        for xi, al in zip(self.poles, self.residues):
            acc = acc + al / (z - xi)
        return acc if acc.shape else complex(acc)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        acc = self.a * np.ones_like(z)
        for xi, al in zip(self.poles, self.residues):
            acc = acc - al / (z - xi) ** 2
        return acc if acc.shape else complex(acc)


def _principal_power(z, p: float) -> np.ndarray:
    """z**p on the principal branch, arg z in (-pi, pi]: np.power's product
    for integer p, a square root for half-integer p, else |z|^p e^(i p arg z),
    each faster and more accurate than numpy's exp(p log z).  Works on a 1-d
    array, so that a 0-d z rounds as its lane of an array call does."""
    z = np.asarray(z, dtype=complex)
    if p == int(p):
        return np.power(z, p)
    flat = np.atleast_1d(z)
    n = 2.0 * p
    if n == int(n):
        out = np.sqrt(flat)
        if n == -1:
            out = 1.0 / out
        elif n != 1:
            out = np.power(out, int(n))
    else:
        out = np.abs(flat) ** p * np.exp(1j * p * np.angle(flat))
    return out.reshape(z.shape)


@dataclass(frozen=True)
class PowerForm:
    """psi(z) = coeff * z**exponent with the principal branch on C \\ (-inf, 0].

    Nevanlinna cases: coeff < 0 with exponent in (0, 1], and coeff > 0 with
    exponent in (-1, 0).
    """
    coeff: float
    exponent: float

    def __post_init__(self):
        c, p = self.coeff, self.exponent
        ok = (c < 0 and 0 < p <= 1) or (c > 0 and -1 < p < 0)
        if not ok:
            raise ValueError(
                f"coeff={c}, exponent={p} is not a Nevanlinna power form")

    def evaluate(self, z):
        z = np.asarray(z, dtype=complex)
        val = self.coeff * _principal_power(z, self.exponent)
        return val if val.shape else complex(val)

    def derivative(self, z):
        z = np.asarray(z, dtype=complex)
        val = (self.coeff * self.exponent
               * _principal_power(z, self.exponent - 1.0))
        return val if val.shape else complex(val)

    def canonical_spec(self) -> NevanlinnaSpec:
        """Exact canonical triple of the power form.

        For exponent p in (-1, 1), p != 0: alpha = 0, beta = coeff cos(pi p/2)
        and nu has density |coeff sin(pi p)| |u|^p / (pi (1 + u^2)) on u < 0
        (tail exponent 2 - p).  For psi = coeff z the triple is (coeff, 0, 0).
        """
        c, p = self.coeff, self.exponent
        if p == 1.0:
            return NevanlinnaSpec(c, 0.0, Measure())
        beta = c * math.cos(0.5 * math.pi * p)
        amp = abs(c * math.sin(math.pi * p)) / math.pi

        def dens(u, _amp=amp, _p=p):
            u = np.asarray(u, dtype=float)
            mag = np.clip(-u, 1e-300, None)
            return _amp * mag ** _p / (1.0 + u * u)

        piece = DensityPiece(-math.inf, 0.0, dens, tail_exponent=2.0 - p)
        return NevanlinnaSpec(0.0, beta, Measure(pieces=(piece,)))


def constant_spec(c: complex) -> NevanlinnaSpec:
    """Canonical triple of a constant Nevanlinna function (Im c <= 0)."""
    c = complex(c)
    if c.imag > 0:
        raise ValueError("a Nevanlinna constant needs Im c <= 0")
    if c.imag == 0:
        return NevanlinnaSpec(0.0, c.real, Measure())
    return NevanlinnaSpec(0.0, c.real, cauchy_law().scaled(-c.imag))


# ---------------------------------------------------------------------------
# black-box analytic functions
# ---------------------------------------------------------------------------

@dataclass
class AnalyticFn:
    """Carrier for a black-box analytic function.

    `evaluator` maps an array of any shape, 0-d included, to an array of
    the same shape; scalar calls go through it too.  `form` is the
    PowerForm, RationalNevanlinna or complex constant the evaluator
    computes, if any; FlowField.from_generator dispatches on it.
    """
    evaluator: Callable
    derivative: Callable | None = None
    name: str | None = None
    form: PowerForm | RationalNevanlinna | complex | None = None

    def __call__(self, z: complex) -> complex:
        return complex(self.evaluator(np.asarray(z, dtype=complex)))

    def eval_array(self, zs) -> np.ndarray:
        return np.asarray(self.evaluator(np.asarray(zs, dtype=complex)),
                          dtype=complex)

    def diff(self, z, h: float = 1e-6):
        """f' at z (any array shape; a scalar gives a complex): the given
        derivative, else a central difference with step h max(1, |z|)."""
        z = np.asarray(z, dtype=complex)
        if self.derivative is not None:
            d = np.asarray(self.derivative(z), dtype=complex)
        else:
            step = h * np.maximum(1.0, np.abs(z))
            d = (self.eval_array(z + step)
                 - self.eval_array(z - step)) / (2.0 * step)
        return d if d.shape else complex(d)


def const_fn(c: complex) -> AnalyticFn:
    c = complex(c)
    return AnalyticFn(lambda z: c * np.ones_like(z),
                      derivative=lambda z: 0.0 * np.asarray(z, dtype=complex),
                      name=f"const({c.real:g},{c.imag:g})", form=c)


def neg_pow(rho: float) -> AnalyticFn:
    form = PowerForm(-1.0, float(rho))
    return AnalyticFn(form.evaluate, derivative=form.derivative,
                      name=f"negPow({rho:g})", form=form)


def pow_fn(theta: float) -> AnalyticFn:
    form = PowerForm(1.0, float(theta))
    return AnalyticFn(form.evaluate, derivative=form.derivative,
                      name=f"pow({theta:g})", form=form)


def rational_fn(r: RationalNevanlinna) -> AnalyticFn:
    return AnalyticFn(r.evaluate, derivative=r.derivative, name="rational",
                      form=r)


def spec_fn(spec: NevanlinnaSpec, *, abs_tol: float = DEFAULT_ABS_TOL) -> AnalyticFn:
    return AnalyticFn(lambda zs: spec.eval_grid(zs, abs_tol=abs_tol),
                      name="nevanlinna-spec")


def to_analytic(obj) -> AnalyticFn:
    """Coerce any supported function description to an AnalyticFn.

    A bare callable is taken to accept scalars only and is lifted to
    arrays point by point.
    """
    if isinstance(obj, AnalyticFn):
        return obj
    if isinstance(obj, PowerForm):
        return AnalyticFn(obj.evaluate, derivative=obj.derivative,
                          name=f"power({obj.coeff:g},{obj.exponent:g})",
                          form=obj)
    if isinstance(obj, RationalNevanlinna):
        return rational_fn(obj)
    if isinstance(obj, NevanlinnaSpec):
        return spec_fn(obj)
    if isinstance(obj, (int, float, complex)):
        return const_fn(complex(obj))
    if callable(obj):
        return AnalyticFn(np.vectorize(obj, otypes=[complex]))
    raise TypeError(f"cannot interpret {obj!r} as an analytic function")


# ---------------------------------------------------------------------------
# operations
# ---------------------------------------------------------------------------

def rational_to_canonical(r: RationalNevanlinna) -> NevanlinnaSpec:
    """Change of representation: residue alpha_k at xi_k becomes an atom of
    mass alpha_k / (1 + xi_k^2), with beta = b - sum m_k xi_k."""
    atoms = []
    beta = r.b
    for xi, al in zip(r.poles, r.residues):
        m = al / (1.0 + xi * xi)
        atoms.append(Atom(xi, m))
        beta -= m * xi
    return NevanlinnaSpec(r.a, beta, Measure(atoms=tuple(atoms)))


def halfplane_grid(n_r: int = 64, n_theta: int = 64) -> np.ndarray:
    """Log-polar sampling of C+ (radii 1e-3..1e3) refined toward the axis."""
    radii = np.logspace(-3.0, 3.0, n_r)
    base = math.pi * (np.arange(n_theta) + 0.5) / n_theta
    near_axis = []
    for k in (1e-2, 1e-3, 1e-4):
        near_axis.extend([math.pi * k, math.pi * (1.0 - k)])
    thetas = np.sort(np.concatenate([base, near_axis]))
    z = radii[:, None] * np.exp(1j * thetas[None, :])
    return z.ravel()


@dataclass(frozen=True)
class Verdict:
    """Outcome of a numeric falsifier: pass / fail(witness) / inconclusive."""
    status: str
    witness: complex | None = None
    t: float | None = None
    detail: dict = field(default_factory=dict)

    @property
    def passed(self) -> bool:
        return self.status == "pass"

    @property
    def failed(self) -> bool:
        return self.status == "fail"


# largest share of non-finite samples a falsifier's pass tolerates; above it
# the verdict is inconclusive
INCONCLUSIVE_FRACTION = 0.05
_IM_TOL = 1e-9


def scan_im(vals: np.ndarray) -> tuple[int, float, float]:
    """(index of the largest finite Im, that Im, share of non-finite values);
    the largest Im is -inf when no value is finite."""
    finite = np.isfinite(vals)
    imag = np.where(finite, vals.imag, -np.inf)
    k = int(np.argmax(imag))
    return k, float(imag[k]), int(np.count_nonzero(~finite)) / vals.size


def is_nevanlinna_numeric(f, grid=None) -> Verdict:
    """Sample Im f over C+; fail carries a witness, pass is necessary-only."""
    fn = to_analytic(f)
    zs = halfplane_grid() if grid is None else np.asarray(grid, dtype=complex)
    try:
        vals = fn.eval_array(zs)
    except Exception as exc:  # pinpoint the offending z for the caller
        for z in zs:
            try:
                fn(z)
            except Exception:
                raise EvaluatorFailure(f"evaluator failed at {z}", point=z) from exc
        raise EvaluatorFailure(str(exc)) from exc
    worst, max_im, nan_frac = scan_im(vals)
    if max_im > _IM_TOL:
        return Verdict("fail", witness=complex(zs[worst]),
                       detail={"im": max_im, "nanFraction": nan_frac})
    if nan_frac > INCONCLUSIVE_FRACTION:
        return Verdict("inconclusive", detail={"nanFraction": nan_frac})
    return Verdict("pass", detail={"certificate": "necessary-condition-only",
                                   "points": int(vals.size),
                                   "maxIm": max_im,
                                   "nanFraction": nan_frac})


# largest octave ratio |phi(2iy)/(2iy)| / |phi(iy)/(iy)| that still counts
# as decay over the last octaves: y^(rho-1) gives 2^(rho-1), 0.933 at
# rho = 0.9, while a ratio levelling off at a nonzero value tends to 1
_OCTAVE_DECAY = 0.98


def vanishing_at_infinity(fn: AnalyticFn, *, tol: float = 1e-4) -> bool:
    """Numeric test of phi(iy)/(iy) -> 0 along a dyadic ladder.

    A fixed-height threshold alone misclassifies slowly decaying generators
    (|phi(iy)/iy| ~ y^(rho-1) is still above 1e-4 at y = 1e6 for rho near 1),
    so monotone decay to below half the initial magnitude also passes,
    provided the decay continues over the last three octaves.
    """
    ys = 2.0 ** np.arange(6, 23)
    vals = np.abs(fn.eval_array(1j * ys) / (1j * ys))
    if not np.all(np.isfinite(vals)):
        return False
    if vals[-1] <= tol:
        return True
    ratios = vals[1:] / vals[:-1]
    return bool(np.all(ratios < 1.0)) and vals[-1] <= 0.5 * vals[0] \
        and bool(np.all(ratios[-3:] <= _OCTAVE_DECAY))


def default_recovery_grid() -> np.ndarray:
    """Dense core with logarithmic tails out to |u| = 1e4."""
    core = np.linspace(-8.0, 8.0, 961)
    tail = np.logspace(math.log10(8.02), 4.0, 64)
    return np.concatenate([-tail[::-1], core, tail])


@dataclass(frozen=True)
class RecoveryResult:
    alpha: float
    beta: float
    nu: Measure
    grid: np.ndarray
    density: np.ndarray
    mass: float
    implied_mass: float
    mass_deficit: float
    flags: tuple[str, ...] = ()


def boundary_density(evaluate, xs: np.ndarray, eps: float,
                     weight) -> np.ndarray:
    """-Im f(x + i eps)/weight, Richardson-extrapolated over (eps, eps/2).

    evaluate maps an array of points to f there; weight is pi for a
    Cauchy transform G and pi (1 + x^2) for the nu of a Nevanlinna f.
    """
    d_full = -np.asarray(evaluate(xs + 1j * eps)).imag / weight
    d_half = -np.asarray(evaluate(xs + 1j * (eps / 2.0))).imag / weight
    return 2.0 * d_half - d_full


def recover_parameters(f, *, u_grid=None, eps: float = 1e-3) -> RecoveryResult:
    """Recover (alpha, beta, nu) of a black-box Nevanlinna function.

    alpha comes from a Richardson-extrapolated f(iv)/(iv) ladder, or is 0
    when that does not settle but vanishing_at_infinity(f) holds; the density
    of nu from boundary values -Im f(u + i eps)/(pi (1 + u^2)) extrapolated
    over (eps, eps/2), and beta from Re f(i) minus the (purely imaginary, so
    vanishing) contribution of the recovered table at i.  Atoms are not
    resolved; they surface as a mass deficit plus a warning flag.
    """
    fn = to_analytic(f)
    probe = is_nevanlinna_numeric(fn, halfplane_grid(n_r=10, n_theta=8))
    if probe.failed:
        raise NotNevanlinna(
            f"Im f = {probe.detail['im']:.3g} > {_IM_TOL:g} at "
            f"z = {probe.witness}", witness=probe.witness)
    fi = fn(1j)
    if abs(fi.imag) < 1e-12:
        # a Nevanlinna function attaining a real value is that constant
        return RecoveryResult(0.0, fi.real, Measure(), np.array([]),
                              np.array([]), 0.0, 0.0, 0.0,
                              flags=("real-constant",))

    v = 2.0 ** np.arange(6, 21)
    ratios = fn.eval_array(1j * v) / (1j * v)
    ext = 2.0 * ratios[1:] - ratios[:-1]
    tail_jump = abs(ext[-1] - ext[-2])
    if np.isfinite(tail_jump) and tail_jump <= 1e-4 * max(1.0, abs(ext[-1])):
        alpha_hat = min(float(ext[-1].real), 0.0)
    elif vanishing_at_infinity(fn):
        # f(iv)/(iv) ~ v^(rho - 1) decays too slowly for a first-order step
        alpha_hat = 0.0
    else:
        raise ExtrapolationUnstable(
            f"alpha ladder did not settle (last jump {tail_jump:.3g})")

    grid = default_recovery_grid() if u_grid is None else np.asarray(u_grid, float)
    density = boundary_density(fn.eval_array, grid, eps,
                               math.pi * (1.0 + grid * grid))

    mass = float(np.trapezoid(density, grid))
    implied = alpha_hat - fi.imag
    deficit = implied - mass

    kernel_i = (1.0 + grid * 1j) / (1j - grid)
    table_at_i = np.trapezoid(kernel_i * density, grid)
    beta_hat = float(fi.real - table_at_i.real)

    flags = []
    if abs(deficit) > max(0.02, 0.05 * abs(implied)):
        flags.append("unresolved-mass")
    clipped = np.clip(density, 0.0, None)
    nu_hat = Measure(pieces=(DensityPiece(
        float(grid[0]), float(grid[-1]),
        table_density(list(zip(grid.tolist(), clipped.tolist()))),
        None, "table"),))
    return RecoveryResult(alpha_hat, beta_hat, nu_hat, grid, density, mass,
                          implied, deficit, tuple(flags))


def validate_derivative(fn: AnalyticFn, rng: np.random.Generator,
                        n: int = 20, rel_tol: float = 1e-5) -> bool:
    """Check a declared derivative against central differences."""
    if fn.derivative is None:
        return True
    for _ in range(n):
        z = complex(rng.uniform(-3, 3), rng.uniform(0.3, 3))
        h = 1e-5 * max(1.0, abs(z))
        fd = (fn(z + h) - fn(z - h)) / (2 * h)
        dv = complex(fn.derivative(z))
        if abs(dv - fd) > rel_tol * max(1.0, abs(dv)):
            return False
    return True


# ---------------------------------------------------------------------------
# parsing of named function specs (CLI surface)
# ---------------------------------------------------------------------------

_CALL_RE = re.compile(r"^\s*([A-Za-z_]\w*)\s*\((.*)\)\s*$", re.S)


def _split_args(text: str) -> list[str]:
    parts, depth, cur = [], 0, []
    for ch in text:
        if ch in "[(":
            depth += 1
        elif ch in "])":
            depth -= 1
        if ch == "," and depth == 0:
            parts.append("".join(cur))
            cur = []
        else:
            cur.append(ch)
    if cur:
        parts.append("".join(cur))
    return [p.strip() for p in parts if p.strip()]


def parse_named_form(text: str):
    """Parse 'negPow(r)', 'pow(t)', 'const(re,im)', 'rational(...)' or JSON.

    JSON objects are dispatched on their keys: alpha/beta/nu gives a
    NevanlinnaSpec, a/b/poles/residues a RationalNevanlinna.
    """
    text = text.strip()
    if text.startswith("@"):
        with open(text[1:], "r", encoding="utf-8") as fh:
            text = fh.read().strip()
    if text.startswith("{"):
        data = json.loads(text)
        return form_from_json(data)
    m = _CALL_RE.match(text)
    if not m:
        raise ValueError(f"unrecognized function spec {text!r}")
    head, body = m.group(1), m.group(2)
    if head == "negPow":
        return PowerForm(-1.0, float(body))
    if head == "pow":
        return PowerForm(1.0, float(body))
    if head == "const":
        re_part, im_part = (float(v) for v in _split_args(body))
        return complex(re_part, im_part)
    if head == "rational":
        kwargs = {}
        for item in _split_args(body):
            key, _, val = item.partition("=")
            kwargs[key.strip()] = json.loads(val)
        return RationalNevanlinna(
            float(kwargs.get("a", 0.0)), float(kwargs.get("b", 0.0)),
            tuple(kwargs.get("poles", ())), tuple(kwargs.get("residues", ())))
    raise ValueError(f"unknown function constructor {head!r}")


def form_from_json(data: dict):
    if "alpha" in data:
        return NevanlinnaSpec(float(data["alpha"]), float(data["beta"]),
                              Measure.from_json_dict(data["nu"]))
    if "poles" in data or "a" in data:
        return RationalNevanlinna(float(data.get("a", 0.0)),
                                  float(data.get("b", 0.0)),
                                  tuple(data.get("poles", ())),
                                  tuple(data.get("residues", ())))
    raise ValueError("JSON object is neither a NevanlinnaSpec nor a "
                     "RationalNevanlinna")
