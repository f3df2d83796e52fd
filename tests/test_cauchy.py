import math

import numpy as np
import numpy.polynomial.polynomial as P
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from freeflow import cauchy
from freeflow.cauchy import (CauchySampler, DensityTable, InversionDomain,
                             estimate_inversion_domain, free_convolve,
                             reconstruct_cauchy, semigroup_marginal,
                             stieltjes_invert, subordinate,
                             voiculescu_transform)
from freeflow.errors import DomainError, OutsideInversionDomain
from freeflow.measures import atomic, cauchy_law, dirac, semicircle_measure
from freeflow.nevanlinna import (AnalyticFn, RationalNevanlinna, const_fn,
                                 to_analytic)

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
        assert CauchySampler(dirac(1.5))(zeta) == pytest.approx(
            1.0 / (zeta - 1.5), abs=1e-12)


def test_semicircle_against_closed_form():
    m = semicircle_measure(1.0)
    expect = semicircle_g(2j)
    assert expect == pytest.approx(1j * (2 - math.sqrt(8)) / 2, abs=1e-12)
    assert CauchySampler(m)(2j) == pytest.approx(expect, abs=1e-9)


def test_cauchy_law_closed_form():
    m = cauchy_law()
    # G(zeta) = 1/(zeta + i) on C+
    assert CauchySampler(m)(2j) == pytest.approx(-1j / 3.0, abs=1e-8)


def test_real_argument_rejected():
    with pytest.raises(DomainError):
        CauchySampler(dirac(0.0))(1.0)


def test_non_probability_rejected():
    with pytest.raises(ValueError):
        CauchySampler(dirac(0.0, 0.5))(1j)


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


def test_estimate_inversion_domain_probes():
    # the library probes F = 1/G of a law; the CLI's semigroup and conv
    # probe the subordination equation of their generator
    semicircle_phi = AnalyticFn(lambda z: 1.0 / np.asarray(z, complex))
    conv_phi = free_convolve(semicircle_phi, const_fn(-1j))
    for phi in (semicircle_phi, conv_phi):
        dom = estimate_inversion_domain(phi, probe="subordination")
        assert (dom.gamma, dom.lam) == (1.0, 1.0)
    with pytest.raises(ValueError):
        estimate_inversion_domain(semicircle_measure(1.0), probe="G")


def test_estimate_inversion_domain_probes_the_boundary(monkeypatch):
    # every probe lies on a side |Re z| = gamma Im z of the cone it
    # reports, or on its axis; none lies inside the cone
    probed = []

    def recording(solver):
        def solve(source, zs, **kw):
            probed.extend(np.atleast_1d(zs))
            return solver(source, zs, **kw)
        return solve

    monkeypatch.setattr(cauchy, "_invert_f", recording(cauchy._invert_f))
    monkeypatch.setattr(cauchy, "subordinate", recording(cauchy.subordinate))
    gamma = estimate_inversion_domain(semicircle_measure(1.0)).gamma
    assert estimate_inversion_domain(
        AnalyticFn(lambda z: 1.0 / np.asarray(z, complex)),
        probe="subordination").gamma == gamma
    assert len(probed) >= 6
    for z in probed:
        assert z.real == 0.0 or abs(z.real) == pytest.approx(
            gamma * z.imag, rel=1e-15)


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


def test_subordinate_over_array_matches_scalar_calls():
    # 1/z + (-i): Newton from w = zeta stalls near the origin, where these
    # lanes converge from the descending fixed-point targets
    phi = free_convolve(
        AnalyticFn(lambda z: 1.0 / np.asarray(z, complex)),
        const_fn(-1j))
    zetas = np.concatenate([np.linspace(-3, 3, 25) + 1e-3j,
                            gamma_points(1.0, 2.0, 10)]).reshape(5, 7)
    got = subordinate(phi, zetas, 1.0)
    assert got.shape == zetas.shape
    scalar = np.array([subordinate(phi, z, 1.0) for z in zetas.ravel()])
    assert np.max(np.abs(got.ravel() - scalar)) <= 1e-12


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


def test_subordination_solves_every_two_pole_lane():
    # phi = (1/2)/(z+1) + (1/2)/(z-1) just above the axis, where the
    # fixed-point map at zeta barely contracts: from the descending
    # targets every lane reaches the root of w^3 - zeta w^2 + zeta in C+
    def phi_eval(z):
        z = np.asarray(z, complex)
        return 0.5 / (z + 1.0) + 0.5 / (z - 1.0)

    def phi_diff(z):
        z = np.asarray(z, complex)
        return -0.5 / (z + 1.0) ** 2 - 0.5 / (z - 1.0) ** 2

    phi = AnalyticFn(phi_eval, derivative=phi_diff)
    for eps in (1e-6, 1e-9):
        zetas = np.linspace(-6, 6, 481) + 1j * eps
        w = subordinate(phi, zetas, 1.0)
        assert not np.any(np.isnan(w))
        scale = np.maximum(1.0, np.abs(zetas))
        assert np.all(np.abs(w + phi_eval(w) - zetas) <= 1e-10 * scale)
        roots = [np.roots([1.0, -z, 0.0, z]) for z in zetas]
        exact = np.array([r[np.argmax(r.imag)] for r in roots])
        assert np.all(np.abs(w - exact) * np.abs(1.0 + phi_diff(w))
                      <= 1e-11 * scale)
        # a lane is the solve of its own scalar call
        for i in range(0, zetas.size, 8):
            assert subordinate(phi, zetas[i], 1.0) == w[i]


def test_conv_subordination_converges_from_the_fixed_point_seed(
        monkeypatch):
    # the CLI's conv of the semicircle with Cauchy(1) on its -5:5:201 grid:
    # from the fixed-point seed one Newton solve converges in a couple of
    # residual calls, where a solve from w = zeta stalls near the origin
    # and pays for hundreds of damped probes
    calls = [0]
    real_newton = cauchy.newton_halfplane

    def counting_newton(residual, *args, **kw):
        def counting_residual(w, lanes):
            calls[0] += 1
            return residual(w, lanes)
        return real_newton(counting_residual, *args, **kw)

    monkeypatch.setattr(cauchy, "newton_halfplane", counting_newton)
    phi = free_convolve(AnalyticFn(lambda z: 1.0 / np.asarray(z, complex)),
                        const_fn(-1j))
    w = subordinate(phi, np.linspace(-5, 5, 201) + 1e-3j, 1.0)
    assert not np.any(np.isnan(w))
    assert calls[0] <= 10


def test_semigroup_subordination_converges_from_the_descending_seed(
        monkeypatch):
    # the CLI's semicircle semigroup grids: 201 points on +-2.2 sqrt(t) at
    # eps and eps/2.  The map at zeta barely contracts there, and a seed
    # from it alone leaves Newton 29-45 residual calls per solve
    calls = [0]
    real_newton = cauchy.newton_halfplane

    def counting_newton(residual, *args, **kw):
        def counting_residual(w, lanes):
            calls[0] += 1
            return residual(w, lanes)
        return real_newton(counting_residual, *args, **kw)

    monkeypatch.setattr(cauchy, "newton_halfplane", counting_newton)
    phi = to_analytic(RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))
    for t in (0.5, 1.0, 2.0):
        lim = 2.2 * math.sqrt(t)
        for eps in (1e-3, 5e-4):
            calls[0] = 0
            w = subordinate(phi, np.linspace(-lim, lim, 201) + 1j * eps, t)
            assert not np.any(np.isnan(w))
            assert calls[0] <= 10


def _rational_phi_roots(b, poles, residues, t, zeta):
    """numpy.roots of (w + t phi(w) - zeta) prod (w - p), phi rational."""
    poly = P.polymul([t * b - zeta, 1.0], P.polyfromroots(poles))
    for j, r in enumerate(residues):
        poly = P.polyadd(poly, t * r * P.polyfromroots(np.delete(poles, j)))
    return np.roots(poly[::-1])


@st.composite
def rational_subordination(draw):
    n = draw(st.integers(1, 4))
    # poles at least 0.05 apart, so the polynomial oracle is well posed
    poles = draw(st.lists(st.floats(-3.0, 3.0), min_size=n, max_size=n)
                 .map(sorted).filter(lambda ps: np.all(np.diff(ps) >= 0.05)))
    residues = draw(st.lists(st.floats(0.1, 2.0), min_size=n, max_size=n))
    b = draw(st.floats(-1.0, 1.0))
    t = draw(st.floats(0.1, 5.0))
    xs = draw(st.lists(
        st.floats(-6.0, 6.0) | st.sampled_from(poles).flatmap(
            lambda p: st.floats(p - 0.1, p + 0.1)),
        min_size=1, max_size=12))
    eps = draw(st.lists(st.sampled_from([1e-1, 1e-3, 1e-6, 1e-9]),
                        min_size=len(xs), max_size=len(xs)))
    return b, poles, residues, t, np.array(xs) + 1j * np.array(eps)


@settings(derandomize=True, max_examples=60, deadline=None)
@given(rational_subordination())
def test_subordination_matches_the_polynomial_roots(case):
    # w + t phi(w) = zeta for a rational phi is a polynomial equation with
    # exactly one root in C+; every lane finds it
    b, poles, residues, t, zetas = case
    form = RationalNevanlinna(0.0, b, tuple(poles), tuple(residues))
    w = subordinate(to_analytic(form), zetas, t)
    assert not np.any(np.isnan(w))
    for wk, zeta in zip(w, zetas):
        roots = _rational_phi_roots(b, poles, residues, t, zeta)
        upper = roots[roots.imag > 0]
        assert upper.size == 1
        slope = abs(1.0 + t * form.derivative(wk))
        assert abs(wk - upper[0]) * slope <= 1e-10 * max(1.0, abs(zeta))


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
