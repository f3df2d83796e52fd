import math

import numpy as np
import pytest

from freeflow.cauchy import (CauchySampler, DensityTable, InversionDomain,
                             cauchy_transform, estimate_inversion_domain,
                             free_convolve, reconstruct_cauchy,
                             semigroup_marginal, stieltjes_invert, subordinate,
                             voiculescu_transform)
from freeflow.errors import DomainError, OutsideInversionDomain
from freeflow.measures import atomic, cauchy_law, dirac, semicircle_measure
from freeflow.nevanlinna import AnalyticFn, const_fn

RNG = np.random.default_rng(42)


def semicircle_g(zeta):
    """Closed form G(zeta) = (zeta - sqrt(zeta^2 - 4))/2, branch G ~ 1/zeta."""
    zeta = np.asarray(zeta, dtype=complex)
    root = np.sqrt(zeta * zeta - 4.0)
    root = np.where((root / zeta).real < 0, -root, root)
    return 0.5 * (zeta - root)


def gamma_points(gamma, lam, n=20):
    ys = np.linspace(1.05 * lam, 4 * lam, n)
    xs = RNG.uniform(-0.5, 0.5, n) * gamma * ys
    return xs + 1j * ys


# -- Cauchy transform ---------------------------------------------------------

def test_point_mass():
    for zeta in (2j, -1 + 1j, 0.5 - 2j):
        assert cauchy_transform(dirac(1.5), zeta) == pytest.approx(
            1.0 / (zeta - 1.5), abs=1e-12)


def test_semicircle_against_closed_form():
    m = semicircle_measure(1.0)
    expect = semicircle_g(2j)
    assert expect == pytest.approx(1j * (2 - math.sqrt(8)) / 2, abs=1e-12)
    assert cauchy_transform(m, 2j) == pytest.approx(expect, abs=1e-9)


def test_cauchy_law_closed_form():
    m = cauchy_law()
    # G(zeta) = 1/(zeta + i) on C+
    assert cauchy_transform(m, 2j) == pytest.approx(-1j / 3.0, abs=1e-8)


def test_real_argument_rejected():
    with pytest.raises(DomainError):
        cauchy_transform(dirac(0.0), 1.0)


def test_non_probability_rejected():
    with pytest.raises(ValueError):
        cauchy_transform(dirac(0.0, 0.5), 1j)


def test_conjugate_symmetry():
    sampler = CauchySampler(semicircle_measure(1.0))
    for zeta in gamma_points(1.0, 0.5, 10):
        assert sampler(np.conj(zeta)) == pytest.approx(
            np.conj(sampler(zeta)), abs=1e-10)


def test_maps_upper_to_lower():
    sampler = CauchySampler(semicircle_measure(1.0))
    for zeta in gamma_points(2.0, 0.3, 15):
        assert sampler(zeta).imag < 0


def test_tail_normalisation():
    sampler = CauchySampler(semicircle_measure(1.0))
    y = 1e4
    assert sampler(1j * y) * 1j * y == pytest.approx(1.0, abs=1e-3)


# -- Voiculescu transform -------------------------------------------------------

def test_voiculescu_point_mass():
    for z in (4j, 1 + 5j):
        assert voiculescu_transform(dirac(1.5), z) == pytest.approx(1.5, abs=1e-10)


def test_voiculescu_semicircle():
    # phi(z) = 1/z for the standard semicircle
    assert voiculescu_transform(semicircle_measure(1.0), 4j) == pytest.approx(
        -0.25j, abs=1e-8)


def test_voiculescu_cauchy_law():
    # F(zeta) = zeta + i so phi = -i
    assert voiculescu_transform(cauchy_law(), 3j) == pytest.approx(-1j, abs=1e-8)


def test_outside_domain_raises():
    dom = InversionDomain(1.0, 10.0)
    with pytest.raises(OutsideInversionDomain):
        voiculescu_transform(dirac(0.0), 1j, domain=dom)


def test_estimate_inversion_domain():
    dom = estimate_inversion_domain(semicircle_measure(1.0))
    assert dom.gamma == 1.0
    assert dom.lam <= 8.0
    assert dom.contains(1j * (dom.lam * 1.1))


def test_voiculescu_additivity_semicircle_plus_atom():
    m1 = semicircle_measure(1.0)
    m2 = dirac(1.0)
    phi_sum = free_convolve(
        AnalyticFn(lambda z: 1.0 / np.asarray(z, complex)),
        const_fn(1.0))
    g_conv = reconstruct_cauchy(phi_sum)
    for z in gamma_points(1.0, 10.0, 20):
        lhs = voiculescu_transform(g_conv, z)
        rhs = (voiculescu_transform(m1, z) + voiculescu_transform(m2, z))
        assert lhs == pytest.approx(rhs, abs=1e-6)


# -- Stieltjes inversion ---------------------------------------------------------

def test_stieltjes_semicircle_centre():
    table = stieltjes_invert(CauchySampler(semicircle_measure(1.0)),
                             np.array([0.0]), eps=1e-3)
    assert table.density[0] == pytest.approx(1 / math.pi, abs=1e-4)


def test_stieltjes_atom_gives_deficit():
    # grid straddles the atom at 0; exactly on it the spike is unbounded
    table = stieltjes_invert(AnalyticFn(
        lambda z: 1.0 / np.asarray(z, complex)),
        np.linspace(-3, 3, 300), eps=1e-3)
    off_axis = np.abs(table.grid) > 0.5
    assert np.max(np.abs(table.density[off_axis])) < 1e-6
    assert table.mass_deficit > 0.9


def test_stieltjes_cauchy_density():
    table = stieltjes_invert(CauchySampler(cauchy_law()),
                             np.array([0.0]), eps=1e-3)
    assert table.density[0] == pytest.approx(1 / math.pi, abs=1e-4)


# -- free convolution -------------------------------------------------------------

def test_convolve_semicircles_density():
    phi = AnalyticFn(lambda z: 1.0 / np.asarray(z, complex))
    phi2 = free_convolve(phi, phi)
    assert phi2(2j) == pytest.approx(2.0 / 2j, abs=1e-12)
    g = reconstruct_cauchy(phi2)
    table = stieltjes_invert(g, np.array([0.0]), eps=1e-3)
    assert table.density[0] == pytest.approx(1.0 / (math.pi * math.sqrt(2)),
                                             abs=1e-4)


def test_convolve_point_masses():
    phi = free_convolve(const_fn(1.0), const_fn(2.5))
    for z in (4j, -1 + 3j):
        assert phi(z) == pytest.approx(3.5, abs=1e-12)


def test_convolve_cauchy_laws():
    phi = free_convolve(const_fn(-1j), const_fn(-1j))
    g = reconstruct_cauchy(phi)
    # Cauchy law of scale 2: G(zeta) = 1/(zeta + 2i)
    assert g(1j) == pytest.approx(1.0 / (3j), abs=1e-9)


# -- semigroup marginals ------------------------------------------------------------

def test_semigroup_semicircle():
    phi = AnalyticFn(lambda z: 1.0 / np.asarray(z, complex))
    got = semigroup_marginal(phi, 1.0, 2j)
    assert got == pytest.approx(semicircle_g(2j), abs=1e-9)


def test_semigroup_t_zero_is_dirac():
    assert semigroup_marginal(const_fn(-1j), 0.0, 1 + 1j) == pytest.approx(
        1.0 / (1 + 1j), abs=1e-12)


def test_semigroup_constant_generator():
    assert semigroup_marginal(const_fn(-1j), 2.0, 1j) == pytest.approx(
        -1j / 3.0, abs=1e-10)


def test_semigroup_negative_t_rejected():
    with pytest.raises(DomainError):
        semigroup_marginal(const_fn(-1j), -0.5, 1j)


def test_flow_consistency_splits():
    phi = AnalyticFn(lambda z: 1.0 / np.asarray(z, complex))
    s, t = 0.7, 0.6
    for zeta in gamma_points(1.0, 3.0, 6):
        direct = semigroup_marginal(phi, s + t, zeta)
        # reconstruct mu_s then convolve with t*phi: same subordination point
        w = subordinate(phi, zeta, s + t)
        assert 1.0 / w == pytest.approx(direct, abs=1e-12)
        staged = semigroup_marginal(
            free_convolve(AnalyticFn(lambda z: s * phi.eval_array(z)),
                          AnalyticFn(lambda z: t * phi.eval_array(z))),
            1.0, zeta)
        assert staged == pytest.approx(direct, abs=1e-6)


def test_subordination_semicircle_plus_cauchy_near_origin():
    # 1/z + (-i): direct Newton from zeta stalls at |x| <= 0.3; the law is
    # the semicircle smoothed by the Poisson kernel at height 1
    phi = free_convolve(
        AnalyticFn(lambda z: 1.0 / np.asarray(z, complex)),
        const_fn(-1j))
    xs = np.linspace(-0.3, 0.3, 13)
    eps = 1e-3
    dens = np.array([
        (2.0 * semigroup_marginal(phi, 1.0, x + 0.5j * eps)
         - semigroup_marginal(phi, 1.0, x + 1j * eps)).imag / -math.pi
        for x in xs])
    z = xs + 1j
    g_sc = (z - np.sqrt(z - 2.0) * np.sqrt(z + 2.0)) / 2.0
    assert np.all(np.isfinite(dens))
    assert np.max(np.abs(dens + g_sc.imag / math.pi)) <= 1e-6
    w = subordinate(phi, 0.1 + 1j * eps, 1.0)
    assert abs(w + 1.0 / w - 1j - (0.1 + 1j * eps)) <= 1e-10


@pytest.mark.parametrize("t", [0.5, 1.0, 2.0])
def test_semicircle_semigroup_density(t):
    phi = AnalyticFn(lambda z: 1.0 / np.asarray(z, complex))
    lim = 1.9 * math.sqrt(t)
    xs = np.linspace(-lim, lim, 200)
    dens = np.array([
        -semigroup_marginal(phi, t, x + 1j * 5e-4).imag * 2.0 / math.pi
        + semigroup_marginal(phi, t, x + 1j * 1e-3).imag / math.pi
        for x in xs])
    expect = np.sqrt(4 * t - xs ** 2) / (2 * math.pi * t)
    assert np.max(np.abs(dens - expect)) <= 1e-3
