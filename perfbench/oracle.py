"""Reference values for the benchmark's correctness checks.

Everything here is closed form or a fixed quadrature rule written out in
numpy; nothing calls freeflow, so a fault in the library's quadrature,
Newton or ODE layers cannot hide in its own reference.  Checks compare the
library's outputs with these references and report (error, tolerance).
"""
from __future__ import annotations

import math

import numpy as np


# -- semicircle law and its free convolutions --------------------------------

def semicircle_cauchy(z, var=1.0):
    """G(z) = (z - sqrt(z^2 - 4 var)) / (2 var) of the semicircle law.

    The square root is the branch analytic off [-2 sqrt(var), 2 sqrt(var)]
    with sqrt(z^2 - 4 var) ~ z at infinity.
    """
    z = np.asarray(z, dtype=complex)
    r = 2.0 * math.sqrt(var)
    root = np.sqrt(z - r) * np.sqrt(z + r)
    return (z - root) / (2.0 * var)


def semicircle_density(x, var=1.0):
    """sqrt(4 var - x^2) / (2 pi var) on its support, 0 outside."""
    x = np.asarray(x, dtype=float)
    return np.sqrt(np.clip(4.0 * var - x * x, 0.0, None)) / (2.0 * math.pi * var)


def semicircle_cauchy_density(x, c, var=1.0):
    """Density of semicircle(var) boxplus Cauchy(c): -Im G_sc(x + ic) / pi."""
    x = np.asarray(x, dtype=float)
    return -np.imag(semicircle_cauchy(x + 1j * c, var)) / math.pi


def regularized_density(cauchy_fn, x, eps):
    """-Im[2 G(x + i eps/2) - G(x + i eps)] / pi: the Stieltjes inversion at
    height eps with one Richardson step, as the library computes it."""
    x = np.asarray(x, dtype=float)
    full = cauchy_fn(x + 1j * eps)
    half = cauchy_fn(x + 0.5j * eps)
    return -np.imag(2.0 * half - full) / math.pi


# -- flows and primitives ------------------------------------------------------

def power_flow(z, t):
    """F_t(z) = z + t sqrt(2z) + t^2/2, the flow of psi = -z (principal root)."""
    z = np.asarray(z, dtype=complex)
    return z + t * np.sqrt(2.0 * z) + 0.5 * t * t


def rational_primitive(a, b, poles, residues, z):
    """-a z^2/2 - b z - sum_k r_k log(z - xi_k): a primitive of
    -(a z + b + sum_k r_k / (z - xi_k)) on C+."""
    z = np.asarray(z, dtype=complex)
    acc = -0.5 * a * z * z - b * z
    for xi, r in zip(poles, residues):
        acc = acc - r * np.log(z - xi)
    return acc


def gauss_chebyshev2(n):
    """Nodes and weights of int_{-1}^{1} g(x) sqrt(1 - x^2) dx ~ sum w g(x)."""
    k = np.arange(1, n + 1)
    theta = k * math.pi / (n + 1)
    return np.cos(theta), (math.pi / (n + 1)) * np.sin(theta) ** 2


def generic_primitive(alpha, beta, var, mass, z, n=4096):
    """A primitive of -psi for psi = alpha z + beta + int (1+uz)/(z-u) nu(du),
    nu = mass * semicircle(var).

    Uses the exact kernel: int (1+uz)/(z-u) dz = u z + (1+u^2) log(z-u),
    integrated against nu with a fixed Gauss-Chebyshev rule of the second
    kind (the semicircle weight is the rule's own weight function).
    """
    z = np.asarray(z, dtype=complex)
    x, w = gauss_chebyshev2(n)
    u = 2.0 * math.sqrt(var) * x
    flat = z.reshape(-1, 1)
    kernel = u * flat + (1.0 + u * u) * np.log(flat - u)
    nu_part = mass * (2.0 / math.pi) * (kernel @ w)
    out = -(0.5 * alpha * z * z + beta * z + nu_part.reshape(z.shape))
    return out


# -- error measures --------------------------------------------------------------
# Points the library returned as non-finite are counted as failed points by
# the caller; the errors below are taken over the finite ones.

def abs_errs(got, want):
    """|got - want| at the finite points of got."""
    got = np.asarray(got)
    return np.abs(got - np.asarray(want))[np.isfinite(got)]


def rel_errs(got, want):
    """|got - want| / max(1, |want|) at the finite points of got."""
    got = np.asarray(got, dtype=complex)
    want = np.asarray(want, dtype=complex)
    return (np.abs(got - want) / np.maximum(1.0, np.abs(want)))[np.isfinite(got)]


def l1_err(x, got, want):
    """Trapezoid L1 distance of two sampled densities on the grid x."""
    got = np.asarray(got)
    keep = np.isfinite(got)
    diff = np.abs(got[keep] - np.asarray(want)[keep])
    return float(np.trapezoid(diff, np.asarray(x)[keep]))


def constant_offset_errs(got, want):
    """Relative errors of got against want + c, with the additive constant c
    fitted at the first point (primitives are defined up to one)."""
    got = np.asarray(got, dtype=complex).ravel()
    want = np.asarray(want, dtype=complex).ravel()
    if not got.size:
        return np.zeros(0)
    return rel_errs(got, want + (got[0] - want[0]))
