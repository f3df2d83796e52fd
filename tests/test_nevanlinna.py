import math

import numpy as np
import pytest

from freeflow.errors import (DomainError, EvaluatorFailure,
                             ExtrapolationUnstable, NotNevanlinna)
from freeflow.measures import Measure, dirac, semicircle_measure
from freeflow.nevanlinna import (AnalyticFn, NevanlinnaSpec, PowerForm,
                                 RationalNevanlinna, _principal_power,
                                 const_fn, constant_spec,
                                 halfplane_grid, is_nevanlinna_numeric,
                                 neg_pow, parse_named_form, pow_fn,
                                 rational_to_canonical, recover_parameters,
                                 spec_fn, to_analytic)

RNG = np.random.default_rng(20260809)


def random_upper(n, scale=5.0):
    return (RNG.uniform(-scale, scale, n)
            + 1j * RNG.uniform(1e-2, scale, n))


# -- evaluation -------------------------------------------------------------

def test_eval_dirac_at_i():
    spec = NevanlinnaSpec(0.0, 0.0, dirac(0.0))
    assert spec.evaluate(1j) == pytest.approx(-1j, abs=1e-12)


def test_eval_dirac_at_2i():
    spec = NevanlinnaSpec(0.0, 0.0, dirac(0.0))
    assert spec.evaluate(2j) == pytest.approx(-0.5j, abs=1e-12)


def test_eval_pure_linear():
    spec = NevanlinnaSpec(-1.0, 0.0, Measure())
    assert spec.evaluate(1 + 1j) == pytest.approx(-1 - 1j, abs=1e-12)


def test_eval_rejects_lower_halfplane():
    spec = NevanlinnaSpec(0.0, 0.0, dirac(0.0))
    with pytest.raises(DomainError):
        spec.evaluate(-1j)


def test_values_stay_in_lower_halfplane():
    spec = NevanlinnaSpec(-0.3, 0.7, semicircle_measure(1.0).scaled(0.4))
    for z in random_upper(200):
        assert spec.evaluate(z).imag <= 1e-9


def test_phi_at_i_identity():
    # phi(i) = alpha i + beta - i nu(R)
    for spec in (NevanlinnaSpec(-0.5, 1.0, semicircle_measure(1.0).scaled(0.3)),
                 NevanlinnaSpec(0.0, -2.0, dirac(1.5, 0.7)),
                 PowerForm(-1.0, 0.5).canonical_spec(),
                 PowerForm(1.0, -0.5).canonical_spec()):
        expect = (spec.alpha * 1j + spec.beta
                  - 1j * spec.nu.total_mass(abs_tol=1e-12))
        assert spec.evaluate(1j) == pytest.approx(expect, abs=1e-8)


def test_eval_grid_matches_scalar():
    spec = NevanlinnaSpec(-0.2, 0.1, semicircle_measure(1.0))
    zs = random_upper(5)
    grid_vals = spec.eval_grid(zs)
    for z, v in zip(zs, grid_vals):
        assert v == pytest.approx(spec.evaluate(z), abs=1e-8)


def test_eval_grid_of_empty_array():
    # fal2_check evaluates psi on the points that inverted, which may be none
    spec = NevanlinnaSpec(-0.2, 0.1, semicircle_measure(1.0))
    assert spec.eval_grid(np.zeros((0, 3), complex)).shape == (0, 3)


def test_scalar_callable_is_lifted_to_arrays():
    fn = to_analytic(lambda z: -1 / complex(z))
    zs = 1j + np.arange(12.0).reshape(3, 4)
    vals = fn.eval_array(zs)
    assert vals.shape == (3, 4)
    assert vals[2, 1] == pytest.approx(-1 / zs[2, 1], abs=1e-15)
    assert fn.eval_array(2j).shape == ()
    assert fn(2j) == pytest.approx(0.5j, abs=1e-15)


# -- rational conversion -----------------------------------------------------

def test_rational_to_canonical_simple_pole():
    r = RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,))
    spec = rational_to_canonical(r)
    assert spec.alpha == -1.0
    assert spec.beta == 0.0
    assert spec.nu.atoms[0].position == 0.0
    assert spec.nu.atoms[0].mass == 1.0


def test_rational_to_canonical_constant():
    spec = rational_to_canonical(RationalNevanlinna(0.0, -1.0))
    assert (spec.alpha, spec.beta) == (0.0, -1.0)
    assert spec.nu.is_empty


def test_rational_to_canonical_shifted_pole():
    spec = rational_to_canonical(RationalNevanlinna(0.0, 0.0, (1.0,), (2.0,)))
    assert spec.beta == pytest.approx(-1.0)
    assert spec.nu.atoms[0].position == 1.0
    assert spec.nu.atoms[0].mass == pytest.approx(1.0)


def test_rational_canonical_agreement_at_random_points():
    r = RationalNevanlinna(-0.5, 0.3, (-1.0, 0.5, 2.0), (0.4, 1.1, 0.7))
    spec = rational_to_canonical(r)
    for z in random_upper(100):
        assert spec.evaluate(z) == pytest.approx(r.evaluate(z), abs=1e-10)


def test_rational_validation():
    with pytest.raises(ValueError):
        RationalNevanlinna(1.0, 0.0)
    with pytest.raises(ValueError):
        RationalNevanlinna(0.0, 0.0, (1.0, 0.0), (1.0, 1.0))
    with pytest.raises(ValueError):
        RationalNevanlinna(0.0, 0.0, (0.0,), (-1.0,))


# -- numeric Nevanlinna verifier ---------------------------------------------

def test_verifier_passes_neg_sqrt():
    assert is_nevanlinna_numeric(neg_pow(0.5)).passed


def test_verifier_passes_inverse_sqrt():
    assert is_nevanlinna_numeric(pow_fn(-0.5)).passed


def test_verifier_fails_identity_with_witness():
    v = is_nevanlinna_numeric(AnalyticFn(lambda z: z))
    assert v.failed
    assert v.witness is not None
    assert complex(v.witness).imag > 0


def test_verifier_pass_is_labelled_necessary_only():
    v = is_nevanlinna_numeric(const_fn(-1j))
    assert v.passed
    assert v.detail["certificate"] == "necessary-condition-only"


def test_verifier_non_finite_share_of_exactly_five_percent_passes():
    # 7 of 140 points is a share of 0.05, which passes as in fal2_check;
    # 1 - 133/140 would round to just above it
    grid = halfplane_grid(n_r=10, n_theta=8)
    assert grid.size == 140
    nan_at = grid[:7]
    fn = AnalyticFn(lambda z: np.where(np.isin(z, nan_at), complex("nan"),
                                       -1j))
    v = is_nevanlinna_numeric(fn, grid)
    assert v.status == "pass"
    assert type(v.detail["nanFraction"]) is float
    assert v.detail["nanFraction"] == 0.05


# -- parameter recovery -------------------------------------------------------

def test_recover_constant_minus_i():
    r = recover_parameters(const_fn(-1j))
    assert r.alpha == pytest.approx(0.0, abs=1e-6)
    assert r.beta == pytest.approx(0.0, abs=1e-6)
    # density of the recovered measure is the Cauchy weight 1/(pi (1+u^2))
    mid = np.searchsorted(r.grid, 0.0)
    assert r.density[mid] == pytest.approx(1 / math.pi, abs=1e-4)
    # the recovered triple reproduces f(i) = -i
    rt = NevanlinnaSpec(r.alpha, r.beta, r.nu).evaluate(1j)
    assert rt == pytest.approx(-1j, abs=1e-3)


def test_recover_roundtrip_compact_spec():
    true = NevanlinnaSpec(-0.5, 1.0, semicircle_measure(1.0).scaled(0.3))
    rec = recover_parameters(spec_fn(true, abs_tol=1e-8),
                             u_grid=np.linspace(-4, 4, 801), eps=1e-3)
    assert rec.alpha == pytest.approx(-0.5, abs=1e-3)
    assert rec.beta == pytest.approx(1.0, abs=1e-3)
    assert rec.mass == pytest.approx(0.3, abs=1e-3)


def test_recover_pure_linear_has_no_measure():
    r = recover_parameters(AnalyticFn(lambda z: -np.asarray(z, complex)))
    assert r.alpha == pytest.approx(-1.0, abs=1e-6)
    assert r.beta == pytest.approx(0.0, abs=1e-6)
    assert r.density.size == 0 or np.max(np.abs(r.density)) <= 1e-6


def test_recover_real_constant_short_circuit():
    r = recover_parameters(const_fn(2.5 + 0j))
    assert "real-constant" in r.flags
    assert r.beta == pytest.approx(2.5)
    assert r.alpha == 0.0


def test_recover_rejects_non_nevanlinna():
    with pytest.raises(NotNevanlinna):
        recover_parameters(AnalyticFn(lambda z: np.asarray(z, complex)))


@pytest.mark.parametrize("rho", [0.5, 0.7, 0.9])
def test_recover_slowly_vanishing_power(rho):
    # f(iv)/(iv) ~ v^(rho - 1) decays too slowly for a first-order ladder
    r = recover_parameters(neg_pow(rho))
    assert r.alpha == 0.0
    assert r.beta == pytest.approx(-math.cos(math.pi * rho / 2), abs=1e-4)


def test_recover_small_linear_coefficient():
    # f(iv)/(iv) decays monotonely to -0.01, which vanishing_at_infinity
    # accepts; the settled ladder must still win
    r = recover_parameters(AnalyticFn(
        lambda z: -0.01 * np.asarray(z, complex) - 1j))
    assert r.alpha == pytest.approx(-0.01, abs=1e-9)


def test_recover_unstable_ladder():
    # pointwise Nevanlinna but with a non-settling linear coefficient
    def wobble(z):
        z = np.asarray(z, complex)
        return -z * (1.0 + 0.3 * np.cos(np.log(np.abs(z))))

    with pytest.raises(ExtrapolationUnstable):
        recover_parameters(AnalyticFn(wobble))


def test_verifier_propagates_evaluator_failure():
    def broken(z):
        z = complex(z)
        if abs(z) > 100.0:
            raise RuntimeError("boom")
        return -1j

    with pytest.raises(EvaluatorFailure) as info:
        is_nevanlinna_numeric(AnalyticFn(broken))
    assert info.value.point is not None


def test_recover_atomic_measure_flags_deficit():
    spec = NevanlinnaSpec(0.0, 0.0, dirac(0.0))
    r = recover_parameters(spec_fn(spec), u_grid=np.linspace(-3, 3, 101),
                           eps=1e-3)
    assert "unresolved-mass" in r.flags
    assert r.implied_mass == pytest.approx(1.0, abs=1e-6)


# -- power forms and constants -------------------------------------------------

def test_power_form_canonical_masses():
    spec = PowerForm(-1.0, 0.5).canonical_spec()
    assert spec.alpha == 0.0
    assert spec.beta == pytest.approx(-math.cos(math.pi / 4))
    assert spec.nu.total_mass() == pytest.approx(math.sin(math.pi / 4), abs=1e-8)


def test_power_form_matches_closed_form_eval():
    spec = PowerForm(-1.0, 0.5).canonical_spec()
    for z in random_upper(10, scale=3.0):
        assert spec.evaluate(z) == pytest.approx(-np.sqrt(complex(z)), abs=1e-7)


def test_power_form_linear_case():
    spec = PowerForm(-1.0, 1.0).canonical_spec()
    assert spec.alpha == -1.0
    assert spec.nu.is_empty


def test_power_form_validation():
    with pytest.raises(ValueError):
        PowerForm(1.0, 0.5)
    with pytest.raises(ValueError):
        PowerForm(-1.0, 1.5)


@pytest.mark.parametrize("p", [0.5, -0.5, 1.5, 1 / 3, 0.9, -0.9, 2.0, -1.0])
def test_principal_power_matches_mpmath(p):
    mp = pytest.importorskip("mpmath")
    # |z| from 1e-6 to 1e6, arg z in (0, pi) and within 1e-14 of both ends
    thetas = np.concatenate([[1e-14, 1e-7], np.linspace(0.05, 3.09, 16),
                             [math.pi - 1e-7, math.pi - 1e-14]])
    r, th = np.meshgrid(np.logspace(-6, 6, 20), thetas)
    zs = (r * np.exp(1j * th)).ravel()
    out = _principal_power(zs, p)
    with mp.workdps(30):
        ref = [mp.power(mp.mpc(z.real, z.imag), p) for z in zs]
        rel = [abs(mp.mpc(o.real, o.imag) - v) / abs(v)
               for o, v in zip(out, ref)]
    assert max(rel) <= 2e-15
    # a 0-d call rounds as its lane of the array call, bit for bit
    for z, o in zip(zs, out):
        assert np.asarray(_principal_power(z, p)).tobytes() == o.tobytes()


def test_constant_spec_complex():
    spec = constant_spec(-2j)
    assert spec.nu.total_mass() == pytest.approx(2.0, abs=1e-9)
    assert spec.evaluate(0.3 + 1.7j) == pytest.approx(-2j, abs=1e-7)


def test_derivative_declarations_match_finite_differences():
    rng = np.random.default_rng(3)
    for fn in (neg_pow(0.4), pow_fn(-0.7), const_fn(-1j),
               to_analytic(RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,)))):
        zs = rng.uniform(-3, 3, 20) + 1j * rng.uniform(0.3, 3, 20)
        declared = fn.diff(zs)
        # without a declared derivative diff takes central differences
        fd = AnalyticFn(fn.evaluator).diff(zs)
        assert np.all(np.abs(declared - fd)
                      <= 1e-5 * np.maximum(1.0, np.abs(declared)))


# -- named-form parsing ---------------------------------------------------------

def test_parse_named_forms():
    assert parse_named_form("negPow(0.5)") == PowerForm(-1.0, 0.5)
    assert parse_named_form("pow(-0.5)") == PowerForm(1.0, -0.5)
    assert parse_named_form("const(0,-1)") == -1j
    r = parse_named_form("rational(a=-1,b=0,poles=[0],residues=[1])")
    assert r == RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,))


def test_parse_json_spec():
    text = '{"alpha": -1.0, "beta": 0.5, "nu": {"atoms": [], "ac": []}}'
    spec = parse_named_form(text)
    assert isinstance(spec, NevanlinnaSpec)
    assert spec.alpha == -1.0
