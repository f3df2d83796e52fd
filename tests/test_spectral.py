"""Closed-form Cauchy integrals over smooth finite pieces.

The spectral route (ChebyshevU) is checked against the adaptive route on
the same pieces, and against a 30-digit mpmath oracle near the axis.
"""
import math

import numpy as np
import pytest

from freeflow import quadrature
from freeflow.cauchy import CauchySampler
from freeflow.conformal import ConformalPair, _kernel_primitive
from freeflow.measures import (DensityPiece, Measure, semicircle_density,
                               semicircle_measure)
from freeflow.nevanlinna import (NevanlinnaSpec, PowerForm, form_from_json,
                                 recover_parameters)
from freeflow.quadrature import quad_interval

RNG = np.random.default_rng(7031)

ALPHA, BETA = -0.5, 0.2


def shifted_semicircle(t, centre):
    r = 2.0 * math.sqrt(t)
    dens = semicircle_density(t)
    return DensityPiece(centre - r, centre + r, lambda u: dens(u - centre))


def exp_semicircle():
    # analytic but not polynomial: a dozen coefficients, not one
    return DensityPiece(-1.0, 1.0, lambda u: np.exp(u) * np.sqrt(
        np.clip(1.0 - u * u, 0.0, None)))


SMOOTH = {
    "semicircle(0.25)": shifted_semicircle(0.25, 0.0),
    "semicircle(1)": shifted_semicircle(1.0, 0.0),
    "semicircle(3)": shifted_semicircle(3.0, 0.0),
    "semicircle(1) at 1.5": shifted_semicircle(1.0, 1.5),
    "semicircle(0.5) at -3": shifted_semicircle(0.5, -3.0),
    "exp semicircle": exp_semicircle(),
}

NON_SMOOTH = {
    "table": Measure.from_json_dict({"ac": [{
        "lo": -1.0, "hi": 2.0, "density": "table",
        "points": [[-1.0, 0.0], [0.0, 0.6], [2.0, 0.0]]}]}).pieces[0],
    "sqrtNeg": Measure.from_json_dict(
        {"ac": [{"lo": -3.0, "hi": 0.0, "density": "sqrtNeg"}]}).pieces[0],
    "invSqrtNeg": Measure.from_json_dict(
        {"ac": [{"lo": -3.0, "hi": 0.0, "density": "invSqrtNeg"}]}).pieces[0],
}

POINTS = np.concatenate([
    RNG.uniform(-6.0, 6.0, 16) + 1j * RNG.uniform(0.05, 3.0, 16),
    [2.0 + 0.01j, -2.0 + 0.05j, 0.3 + 0.02j, 40.0 + 1.0j, -100.0 + 5.0j,
     1j]])


def probability(piece):
    m = Measure(pieces=(piece,))
    return m.scaled(1.0 / m.total_mass())


def routes(piece):
    """(psi, Psi, G) from the library and from adaptive quadrature alone."""
    nu = Measure(pieces=(piece,))
    spec = NevanlinnaSpec(ALPHA, BETA, nu)
    z = POINTS
    psi_ref = ALPHA * z + BETA + nu.integrate(
        lambda u: (1.0 + z[:, None] * u) / (z[:, None] - u))
    big_psi_ref = -(0.5 * ALPHA * (z * z + 1.0) + BETA * (z - 1j)
                    + nu.integrate(lambda u: _kernel_primitive(z[:, None], u)))
    mu = probability(piece)
    g_ref = mu.integrate(lambda u: 1.0 / (z[:, None] - u))
    got = (spec.eval_grid(z), ConformalPair(spec, "generic").Psi(z),
           CauchySampler(mu).eval_array(z))
    return got, (psi_ref, big_psi_ref, g_ref)


@pytest.mark.parametrize("name", sorted(SMOOTH))
def test_spectral_route_matches_adaptive_route(name):
    piece = SMOOTH[name]
    # the default tolerance of 1e-10 takes the closed form
    assert piece.expansion is not None
    assert piece.expansion.tail <= 1e-11
    got, ref = routes(piece)
    for g, r in zip(got, ref):
        assert np.max(np.abs(g - r)) <= 1e-10


@pytest.mark.parametrize("name", sorted(NON_SMOOTH))
def test_non_smooth_pieces_take_the_adaptive_route(name):
    piece = NON_SMOOTH[name]
    assert piece.expansion is None
    got, ref = routes(piece)
    for g, r in zip(got, ref):
        assert np.array_equal(g, r)


def test_cauchy_derivative_closed_form():
    mu = semicircle_measure(2.0)
    z = POINTS
    r = np.sqrt(z - 2.0 * math.sqrt(2.0)) * np.sqrt(z + 2.0 * math.sqrt(2.0))
    exact = (1.0 - z / r) / 4.0
    got = CauchySampler(mu).derivative(z)
    assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) <= 1e-12
    assert CauchySampler(mu).derivative(1j) == pytest.approx(exact[-1],
                                                             abs=1e-12)


# -- 30-digit oracle -----------------------------------------------------------

def oracle_points():
    xs = [-1e3, -30.0, -2.5, -2.0, -1.999, -0.7, 0.0, 0.5, 1.9999, 2.0,
          2.001, 7.0, 999.0]
    return np.array([complex(x, y) for y in (1e-6, 1e-3, 1.0) for x in xs])


def test_semicircle_psi_and_g_match_mpmath():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    zs = oracle_points()
    spec = NevanlinnaSpec(ALPHA, BETA, semicircle_measure(1.0))
    psi = spec.eval_grid(zs)
    g = CauchySampler(semicircle_measure(1.0)).eval_array(zs)
    for z, p, gv in zip(zs, psi, g):
        zm = mp.mpc(z.real, z.imag)
        g_ref = (zm - mp.sqrt(zm - 2) * mp.sqrt(zm + 2)) / 2
        # int (1 + u z)/(z - u) rho(du) = (1 + z^2) G(z) - z for this rho
        psi_ref = mp.mpf(ALPHA) * zm + mp.mpf(BETA) + (1 + zm * zm) * g_ref - zm
        assert abs(complex(gv) - complex(g_ref)) <= 1e-12
        assert abs(complex(p) - complex(psi_ref)) <= 1e-12


# -- heavy tails ---------------------------------------------------------------

def test_tail_fold_follows_the_tail_exponent():
    # int_0^inf (1 + u)^-1.1 du = 10; the plain fold leaves an s^-0.9
    # endpoint singularity and misses 1e-10 by a factor of three
    def f(u):
        return (1.0 + np.abs(u)) ** -1.1
    assert quad_interval(f, 0.0, math.inf, tail_exponent=1.1) == \
        pytest.approx(10.0, abs=1e-10)
    assert quad_interval(f, -math.inf, 0.0, tail_exponent=1.1) == \
        pytest.approx(10.0, abs=1e-10)


def test_heavy_tailed_power_form_meets_its_tolerance():
    form = PowerForm(-1.0, 0.9)  # nu has tail exponent 1.1
    spec = form.canonical_spec()
    gen = ConformalPair(spec, "generic")
    exact = ConformalPair.from_psi(form)
    zs = np.array([2 + 1j, -1 + 0.5j, 0.1 + 0.1j, 3j, -3 + 2j])
    ref = exact.Psi(zs) - exact.Psi(1j)
    assert np.max(np.abs(gen.Psi(zs) - ref)) <= 1e-10
    assert np.max(np.abs(spec.eval_grid(zs) - form.evaluate(zs))) <= 1e-10
    # nu(R) = sin(0.9 pi) / (2 cos(0.45 pi))
    mass = math.sin(0.9 * math.pi) / (2.0 * math.cos(0.45 * math.pi))
    assert spec.nu.moment(0) == pytest.approx(mass, abs=1e-10)


# -- work budget ---------------------------------------------------------------

@pytest.fixture
def panels(monkeypatch):
    calls = [0]
    real_panel = quadrature._panel

    def counting(*args):
        calls[0] += 1
        return real_panel(*args)

    monkeypatch.setattr(quadrature, "_panel", counting)
    return calls


def test_smooth_pieces_take_no_panels(panels):
    # the nev-recover spec of the README and the generic marginal's psi
    recover_spec = form_from_json({"alpha": -0.5, "beta": 0.2, "nu": {
        "atoms": [], "ac": [{"lo": -2.0, "hi": 2.0,
                             "density": "semicircle(1.0)"}]}})
    generic_spec = NevanlinnaSpec(-0.5, 0.2,
                                  semicircle_measure(1.02).scaled(0.98))
    pair = ConformalPair(generic_spec, "generic")
    zs = np.linspace(-3.0, 3.0, 200) + 1e-3j
    recover_parameters(recover_spec, u_grid=np.linspace(-8.0, 8.0, 321))
    generic_spec.eval_grid(zs)
    pair.Psi(zs)
    assert panels[0] == 0
    table = Measure(pieces=(NON_SMOOTH["table"],))
    NevanlinnaSpec(-0.5, 0.2, table).eval_grid(zs[:4] + 1.0j)
    assert panels[0] > 0


def test_far_piece_takes_the_closed_form_for_g(panels):
    # semicircle(1) on [98, 102]: the bound over (1 + u^2) rho carries
    # 1 + 102^2 and stays above 1e-10, the bound over rho alone does not
    far = Measure(pieces=(shifted_semicircle(1.0, 100.0),))
    exp = far.pieces[0].expansion
    assert exp.tail > 1e-10 and exp.tail_b <= 1e-11
    zs = np.linspace(97.0, 103.0, 200) + 1e-3j
    sampler = CauchySampler(far)
    panels[0] = 0
    g = sampler.eval_array(zs)
    g_prime = sampler.derivative(zs[:20])
    assert panels[0] == 0
    centred = CauchySampler(semicircle_measure(1.0))
    assert np.max(np.abs(g - centred.eval_array(zs - 100.0))) <= 1e-12
    assert np.max(np.abs(g_prime - centred.derivative(zs[:20] - 100.0))) \
        <= 1e-12
    # psi integrates (1 + u^2) rho, whose bound keeps the adaptive rule
    NevanlinnaSpec(-0.5, 0.2, far).eval_grid(zs[:4] + 1.0j)
    assert panels[0] > 0


def test_mass_check_takes_the_closed_form(panels):
    # the mass of a resolved piece is (pi/2) half b_0, so CauchySampler's
    # probability check runs no quadrature, near the origin or far off
    for law in (semicircle_measure(1.0),
                Measure(pieces=(shifted_semicircle(1.0, 100.0),))):
        CauchySampler(law)
        assert panels[0] == 0
        assert abs(law.total_mass() - 1.0) <= 1e-14
