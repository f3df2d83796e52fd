import math

import numpy as np
import pytest

from freeflow import quadrature
from freeflow.conformal import (ConformalPair, ContainmentCertificate,
                                contains_halfplane_translate, invert_primitive,
                                normalize_for_halfplane, primitive_eval,
                                slit_image)
from freeflow.errors import (MissingTailMetadata, OutsideImage, PoleOnPath)
from freeflow.measures import (DensityPiece, Measure, dirac,
                               semicircle_measure)
from freeflow.nevanlinna import (NevanlinnaSpec, PowerForm,
                                 RationalNevanlinna)

RNG = np.random.default_rng(1123)

PSI_LOG = RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,))  # psi = -z + 1/z


def pairs_under_test():
    return [
        ConformalPair.from_psi(PSI_LOG),
        ConformalPair.from_psi(PowerForm(-1.0, 0.5)),
        ConformalPair.from_psi(PowerForm(1.0, -0.5)),
        ConformalPair.from_psi(-1.0 + 0j),
        ConformalPair.from_psi(
            NevanlinnaSpec(-0.5, 0.2, semicircle_measure(1.0).scaled(0.3))),
    ]


def random_upper(n, scale=3.0):
    return (RNG.uniform(-scale, scale, n)
            + 1j * RNG.uniform(5e-2, scale, n))


# -- primitive evaluation ------------------------------------------------------

def test_primitive_log_example():
    pair = ConformalPair.from_psi(PSI_LOG)
    # Psi(z) = z^2/2 - log z
    assert primitive_eval(pair, 1.0) == pytest.approx(0.5, abs=1e-12)
    assert primitive_eval(pair, -1.0 + 0j) == pytest.approx(
        0.5 - 1j * math.pi, abs=1e-12)


def test_primitive_power_example():
    pair = ConformalPair.from_psi(PowerForm(-1.0, 0.5))
    assert primitive_eval(pair, 1.0) == pytest.approx(2.0 / 3.0, abs=1e-12)


def test_primitive_constant_example():
    pair = ConformalPair.from_psi(-1.0 + 0j)
    assert primitive_eval(pair, 1j) == pytest.approx(1j, abs=1e-15)


def test_primitive_pole_guard():
    pair = ConformalPair.from_psi(PSI_LOG)
    with pytest.raises(PoleOnPath):
        primitive_eval(pair, 1e-12 + 0j)


def test_generic_primitive_matches_rational_up_to_constant():
    # same psi presented in closed form and as a generic measure with a
    # continuous piece forcing the quadrature route
    tiny = DensityPiece(-7.0, -5.0, lambda u: 1e-12 * np.ones_like(u), None)
    spec = NevanlinnaSpec(-1.0, 0.0, Measure(atoms=dirac(0.0).atoms,
                                             pieces=(tiny,)))
    gen = ConformalPair.from_psi(spec)
    assert gen.kind == "generic"
    closed = ConformalPair.from_psi(PSI_LOG)
    z1, z2 = 0.6 + 0.8j, -1.1 + 1.7j
    d_gen = gen.Psi(z1) - gen.Psi(z2)
    d_closed = closed.Psi(z1) - closed.Psi(z2)
    assert complex(d_gen) == pytest.approx(complex(d_closed), abs=1e-7)


SEMICIRCLE_SPEC = NevanlinnaSpec(-0.5, 0.2, semicircle_measure(1.0).scaled(0.3))


def test_generic_primitive_matches_mpmath_kernel_quadrature():
    mp = pytest.importorskip("mpmath")
    mp.mp.dps = 30
    pair = ConformalPair.from_psi(SEMICIRCLE_SPEC)
    # 1e-9 + i puts |d| = |z - i|/|i - u| on the series branch
    zs = np.array([2 + 1j, -1.5 + 0.05j, 0.3 + 0.01j, 1e-9 + 1j, 4 + 3j,
                   -0.5 + 2j])
    got = pair.Psi(zs)
    for z, val in zip(zs, got):
        zm = mp.mpc(z.real, z.imag)

        def integrand(th):
            u = 2 * mp.cos(th)
            kern = u * (zm - 1j) + (1 + u * u) * (mp.log(zm - u)
                                                  - mp.log(1j - u))
            dens = mp.mpf("0.3") * mp.sqrt(4 - u * u) / (2 * mp.pi)
            return kern * dens * 2 * mp.sin(th)

        # split where u = Re z, next to the kernel's near-singularity
        split = mp.acos(mp.mpf(z.real) / 2) if abs(z.real) < 2 else mp.pi / 2
        nu_part = mp.quad(integrand, [0, split, mp.pi])
        ref = -(mp.mpf(-0.5) * (zm * zm + 1) / 2
                + mp.mpf("0.2") * (zm - 1j) + nu_part)
        assert abs(complex(val) - complex(ref)) <= 1e-10


@pytest.mark.parametrize("coeff,exponent", [(-1.0, 0.5), (1.0, -0.5),
                                            (-1.0, 0.9)])
def test_generic_primitive_matches_power_closed_form(coeff, exponent):
    form = PowerForm(coeff, exponent)
    gen = ConformalPair.from_psi(form.canonical_spec())
    assert gen.kind == "generic"
    exact = ConformalPair.from_psi(form)
    zs = np.array([2 + 1j, -1 + 0.5j, 0.1 + 0.1j, 3j, -3 + 2j, 10 + 0.1j])
    # the generic route is anchored at Psi(i) = 0
    ref = exact.Psi(zs) - exact.Psi(1j)
    assert np.max(np.abs(gen.Psi(zs) - ref)) <= 1e-9


def test_generic_primitive_independent_of_order():
    zs = random_upper(40)
    forward = ConformalPair.from_psi(SEMICIRCLE_SPEC).Psi(zs)
    backward = ConformalPair.from_psi(SEMICIRCLE_SPEC).Psi(zs[::-1])[::-1]
    assert np.array_equal(forward, backward)


def test_generic_primitive_takes_few_panels(monkeypatch):
    # each adaptive panel costs two _panel calls (the 15- and 31-point
    # rules); the cosine substitution makes square-root edges smooth
    calls = []
    real_panel = quadrature._panel

    def counting(*args):
        calls.append(1)
        return real_panel(*args)

    monkeypatch.setattr(quadrature, "_panel", counting)
    semicircle_measure(1.0).total_mass()
    mass_calls = len(calls)
    ConformalPair.from_psi(SEMICIRCLE_SPEC).Psi(2 + 1j)
    assert mass_calls <= 4
    assert len(calls) - mass_calls <= 10


# -- slit images ----------------------------------------------------------------

def test_slit_image_log_case():
    si = slit_image(PSI_LOG)
    heights = sorted(s[0] for s in si.slits)
    tips = [s[1] for s in si.slits]
    assert heights == pytest.approx([-math.pi, 0.0], abs=1e-12)
    assert tips == pytest.approx([0.5, 0.5], abs=1e-10)


def test_slit_image_degenerate_parabola():
    si = slit_image(RationalNevanlinna(-1.0, 0.0))
    assert len(si.slits) == 1
    assert si.slits[0][0] == 0.0
    assert si.slits[0][1] == pytest.approx(0.0, abs=1e-10)


def test_slit_image_three_slits():
    r = RationalNevanlinna(-1.0, 0.0, (-1.0, 1.0), (1.0, 1.0))
    si = slit_image(r)
    heights = [s[0] for s in si.slits]
    assert heights == pytest.approx([-2 * math.pi, -math.pi, 0.0], abs=1e-12)
    # tips agree with dense minimisation of Re Psi over each interval
    pair = ConformalPair.from_psi(r)
    for (lo, hi), (_, tip) in zip(((-6.0, -1.0), (-1.0, 1.0), (1.0, 6.0)),
                                  si.slits):
        xs = np.linspace(lo + 1e-6, hi - 1e-6, 4001)
        dense = np.min(np.real(pair.Psi(xs.astype(complex))))
        assert tip == pytest.approx(dense, abs=1e-5)


def test_slit_image_requires_negative_leading_coefficient():
    with pytest.raises(ValueError):
        slit_image(RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))


def test_slit_ray_query():
    si = slit_image(PSI_LOG)
    assert si.ray_bound(0.0) == pytest.approx(0.5)
    assert si.ray_bound(-1.0) == math.inf


def test_boundary_trace_sits_on_slit_heights():
    r = RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,))
    pair = ConformalPair.from_psi(r)
    si = slit_image(r)
    delta = 1e-4
    for (lo, hi), (q, tip) in zip(((-4.0, 0.0), (0.0, 4.0)), si.slits):
        xs = np.linspace(lo + 0.05, hi - 0.05, 50) + 1j * delta
        vals = pair.Psi(xs)
        assert np.max(np.abs(vals.imag - q)) < 1e-2 * math.pi
    # Re Psi at the bisection root reproduces the tip
    assert primitive_eval(pair, 1.0).real == pytest.approx(0.5, abs=1e-6)


# -- containment criterion --------------------------------------------------------

def test_containment_neg_sqrt_yes():
    cert = contains_halfplane_translate(PowerForm(-1.0, 0.5))
    assert cert.verdict
    assert cert.drift == -math.inf
    assert cert.m2_plus == 0.0


def test_containment_inverse_sqrt_no():
    cert = contains_halfplane_translate(PowerForm(1.0, -0.5))
    assert not cert.verdict
    assert cert.drift == pytest.approx(0.0, abs=1e-6)


def test_containment_one_over_z_no():
    cert = contains_halfplane_translate(
        RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))
    assert not cert.verdict
    assert cert.drift == pytest.approx(0.0, abs=1e-12)


def test_containment_linear_yes():
    cert = contains_halfplane_translate(PowerForm(-1.0, 1.0))
    assert cert.verdict and cert.condition == "alpha < 0"


def test_containment_missing_tail_metadata():
    piece = DensityPiece(0.0, math.inf, lambda u: np.exp(-np.asarray(u)), None)
    spec = NevanlinnaSpec(0.0, 0.0, Measure(pieces=(piece,)))
    with pytest.raises(MissingTailMetadata):
        contains_halfplane_translate(spec)


def test_containment_divergent_second_moment_no():
    # positive-side tail u^{-2.5} has divergent second moment
    def dens(u):
        u = np.asarray(u, dtype=float)
        return 1.0 / (1.0 + np.abs(u)) ** 2.5
    spec = NevanlinnaSpec(0.0, -5.0,
                          Measure(pieces=(DensityPiece(0.0, math.inf, dens, 2.5),)))
    cert = contains_halfplane_translate(spec)
    assert not cert.verdict
    assert cert.m2_plus == math.inf


# -- inversion ---------------------------------------------------------------------

def test_invert_roundtrip_log_pair():
    pair = ConformalPair.from_psi(PSI_LOG)
    w = complex(pair.Psi(1 + 1j))
    assert invert_primitive(pair, w) == pytest.approx(1 + 1j, abs=1e-8)


def test_invert_power_closed_form():
    pair = ConformalPair.from_psi(PowerForm(-1.0, 0.5))
    assert invert_primitive(pair, 2.0 / 3.0) == pytest.approx(1.0, abs=1e-8)


def test_invert_identity_map():
    pair = ConformalPair.from_psi(-1.0 + 0j)
    assert invert_primitive(pair, 5j) == pytest.approx(5j, abs=1e-12)


def test_invert_strip_far_target_fails():
    pair = ConformalPair.from_psi(RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))
    with pytest.raises(OutsideImage):
        invert_primitive(pair, 1e6j)


def test_invert_quarter_plane_far_target_fails():
    pair = ConformalPair.from_psi(PowerForm(1.0, -0.5))
    with pytest.raises(OutsideImage):
        invert_primitive(pair, 1e6j)


def test_phi_over_array_marks_failures_with_nan():
    # the strip {-pi < Im w < 0} holds -i and 1 - i but not 1e6 i
    strip = RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,))
    ws = np.array([-1j, 1e6j, 1 - 1j])
    got = ConformalPair.from_psi(strip).Phi(ws)
    assert got.shape == ws.shape
    assert np.isnan(got).tolist() == [False, True, False]
    scalar = ConformalPair.from_psi(strip)
    for k in (0, 2):
        assert got[k] == pytest.approx(scalar.Phi(ws[k]), rel=1e-10)


# -- pair invariants -----------------------------------------------------------------

@pytest.mark.parametrize("idx", range(5))
def test_difference_quotient_positivity(idx):
    pair = pairs_under_test()[idx]
    n = 500
    z1 = random_upper(n)
    z2 = random_upper(n)
    keep = np.abs(z1 - z2) > 1e-9
    z1, z2 = z1[keep], z2[keep]
    v1 = pair.Psi(z1)
    v2 = pair.Psi(z2)
    quot = (np.asarray(v2) - np.asarray(v1)) / (z2 - z1)
    assert np.min(quot.imag) > -1e-9


@pytest.mark.parametrize("idx", range(4))
def test_psi_prime_matches_central_differences(idx):
    pair = pairs_under_test()[idx]
    for z in random_upper(10):
        h = 1e-5
        fd = (complex(pair.Psi(z + h)) - complex(pair.Psi(z - h))) / (2 * h)
        dv = complex(pair.psi_prime_of_Psi(z))
        assert abs(fd - dv) <= 1e-5 * max(1.0, abs(dv))


def test_phi_psi_roundtrip_random_points():
    for pair in pairs_under_test()[:4]:
        for z in random_upper(20, scale=2.0):
            w = complex(pair.Psi(z))
            got = pair.Phi(w, seed=z * (1 + 1e-3) + 1e-3j)
            assert got == pytest.approx(z, abs=1e-8)


def test_starlike_shift_left_stays_in_image():
    pair = ConformalPair.from_psi(PSI_LOG)
    zs = random_upper(200, scale=2.5)
    for t in (0.1, 1.0, 10.0):
        for z in zs:
            w = complex(pair.Psi(z)) - t
            got = pair.Phi(w, seed=z)
            assert complex(pair.Psi(got)) == pytest.approx(w, abs=1e-7)


def test_containment_yes_random_halfplane_inverts():
    pair = ConformalPair.from_psi(PowerForm(-1.0, 0.5))
    cert = contains_halfplane_translate(PowerForm(-1.0, 0.5))
    assert cert.verdict
    for w in random_upper(100, scale=20.0):
        z = pair.Phi(w)
        assert z.imag > 0
        assert complex(pair.Psi(z)) == pytest.approx(complex(w), abs=1e-7)


def test_normalize_generic_pair_contains_halfplane():
    spec = NevanlinnaSpec(-0.5, 0.0, semicircle_measure(1.0).scaled(0.3))
    cert = contains_halfplane_translate(spec)
    assert cert.verdict
    pair = normalize_for_halfplane(ConformalPair.from_psi(spec))
    for w in (0.5j, -2 + 1j, 2 + 4j, 20j):
        z = pair.Phi(w)
        assert z.imag > 0
        assert complex(pair.Psi(z)) == pytest.approx(complex(w), abs=1e-6)
