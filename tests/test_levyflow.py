import math

import numpy as np
import pytest

from freeflow import conformal, levyflow
from freeflow.conformal import ConformalPair
from freeflow.errors import (DomainError, NotContaining, NotNevanlinna,
                             OutsideImage)
from freeflow.levyflow import (DEFAULT_T_SAMPLES, FlowField, KernelSlice,
                               build_fal2, fal2_check, flow_conformal,
                               flow_inverse, flow_ode, increment_transform,
                               marginal_law, transition_kernel,
                               vanishing_at_infinity)
from freeflow.nevanlinna import (AnalyticFn, PowerForm, RationalNevanlinna,
                                 const_fn, halfplane_grid, neg_pow,
                                 parse_named_form, pow_fn, rational_fn,
                                 to_analytic)

RNG = np.random.default_rng(7221)


@pytest.fixture(scope="module")
def ff_sqrt():
    """Generator -sqrt(2 w), built from psi = -z."""
    return build_fal2(PowerForm(-1.0, 1.0))


@pytest.fixture(scope="module")
def ff_cbrt():
    """Generator -(3w/2)^(1/3), built from psi = -z^(1/2)."""
    return build_fal2(PowerForm(-1.0, 0.5))


@pytest.fixture(scope="module")
def ff_const():
    return build_fal2(-1j)


def closed_sqrt_flow(z, t):
    z = np.asarray(z, dtype=complex)
    return z + t * np.sqrt(2 * z) + 0.5 * t * t


def random_upper(n, scale=3.0):
    return RNG.uniform(-scale, scale, n) + 1j * RNG.uniform(0.05, scale, n)


# -- construction ---------------------------------------------------------------

def test_build_from_neg_sqrt(ff_cbrt):
    c, p = ff_cbrt.power
    assert p == pytest.approx(1.0 / 3.0)
    assert c == pytest.approx(-(1.5 ** (1.0 / 3.0)))
    for w in random_upper(20):
        assert ff_cbrt.phi(w) == pytest.approx(-(1.5 * w) ** (1 / 3), abs=1e-8)


def test_build_constant_branch(ff_const):
    assert ff_const.kind == "constant"
    assert ff_const.const == -1j


def test_build_from_neg_identity(ff_sqrt):
    for w in random_upper(20):
        assert ff_sqrt.phi(w) == pytest.approx(-np.sqrt(2 * w), abs=1e-10)


def test_build_rejects_non_containing():
    with pytest.raises(NotContaining):
        build_fal2(PowerForm(1.0, -0.5))
    with pytest.raises(NotContaining):
        build_fal2(RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))


def test_build_rational_pair_generator():
    # psi = -z + 1/z: image is the slit plane containing C+
    ff = build_fal2(RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,)))
    assert ff.kind == "psi-pair"
    assert ff.certificate is not None and ff.certificate.verdict
    # phi = psi(Phi(w)) is Nevanlinna with vanishing linear coefficient
    assert vanishing_at_infinity(ff.phi)
    z = flow_conformal(ff, 1j, 0.5)
    assert complex(z).imag > 1.0


def test_vanishing_check_rejects_linear():
    assert not vanishing_at_infinity(to_analytic(PowerForm(-1.0, 1.0)))
    assert vanishing_at_infinity(const_fn(-1j))
    assert vanishing_at_infinity(neg_pow(0.9))


def test_from_generator_reads_structure_not_name():
    ff = FlowField.from_generator(neg_pow(1.0 / 3.0))
    assert ff.kind == "power"
    assert ff.power == (-1.0, 1.0 / 3.0)
    # a user function that happens to carry a constructor's name
    two_sqrt = AnalyticFn(lambda z: -2.0 * np.sqrt(np.asarray(z, complex)),
                          name="negPow(0.5)")
    ff = FlowField.from_generator(two_sqrt)
    assert ff.kind != "power"
    for z in (1j, 2.0 + 0.5j, -3.0 + 0.1j):
        assert ff.phi(z) == pytest.approx(-2.0 * np.sqrt(z), abs=1e-14)


@pytest.mark.parametrize("form, wrap", [
    (PowerForm(-1.0, 1.0 / 3.0), to_analytic),
    (RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)), rational_fn),
    (RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)), to_analytic),
])
def test_wrapped_form_takes_the_bare_route(form, wrap):
    assert FlowField.from_generator(wrap(form)).kind == \
        FlowField.from_generator(form).kind


def test_r_over_z_is_a_power_field():
    # phi = 2/z: F_t = sqrt(z^2 - 4t), the power flow with (2, -1)
    ff = FlowField.from_generator(RationalNevanlinna(0.0, 0.0, (0.0,), (2.0,)))
    assert ff.kind == "power"
    zs = np.array([0.3 + 1j, -2 + 0.5j, 1 + 2j, 4 + 0.2j])
    for t in (0.5, 1.0):
        assert np.max(np.abs(flow_conformal(ff, zs, t) - flow_ode(ff, zs, t))
                      ) <= 1e-6
    verdict = fal2_check(ff)
    assert verdict.failed
    z, t = verdict.witness, verdict.t
    # the continuation phi o F_t^(-1) = 2/sqrt(z^2 + 4t) leaves C-
    assert (2.0 / np.sqrt(z * z + 4.0 * t)).imag > 1e-8


def test_from_generator_rejects_bad_phi():
    with pytest.raises(NotNevanlinna):
        FlowField.from_generator(lambda z: np.asarray(z, complex))


def test_from_generator_rejects_levelling_ratio():
    # |phi(iy)/(iy)| falls monotonely below half its first value on the
    # ladder but levels off at 0.01
    with pytest.raises(DomainError):
        FlowField.from_generator(
            AnalyticFn(lambda z: -0.01 * z - 1j))


# -- conformal flow ----------------------------------------------------------------

def test_flow_closed_form_at_i(ff_sqrt):
    got = flow_conformal(ff_sqrt, 1j, 1.0)
    assert got == pytest.approx(1.5 + 2j, abs=1e-12)


def test_flow_t_zero_is_identity(ff_sqrt, ff_cbrt, ff_const):
    for ff in (ff_sqrt, ff_cbrt, ff_const):
        for z in random_upper(10):
            assert flow_conformal(ff, z, 0.0) == pytest.approx(z, abs=1e-12)


def test_flow_constant_generator(ff_const):
    assert flow_conformal(ff_const, 1j, 2.0) == pytest.approx(3j, abs=1e-15)


# -- ODE route -----------------------------------------------------------------------

def test_ode_matches_closed_form(ff_sqrt):
    got = flow_ode(ff_sqrt, 1j, 1.0)
    assert got == pytest.approx(1.5 + 2j, abs=1e-6)


def test_ode_semicircle_generator():
    ff = FlowField.from_generator(RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))
    got = flow_ode(ff, 3j, 1.0)
    assert got == pytest.approx(np.sqrt(complex(-11)), abs=1e-6)
    # phi = 1/z is a power field: the conformal route is the closed flow
    assert flow_conformal(ff, 3j, 1.0) == pytest.approx(got, abs=1e-6)


def test_ode_t_zero_exact(ff_cbrt):
    assert flow_ode(ff_cbrt, 0.3 + 0.8j, 0.0) == 0.3 + 0.8j


def test_route_agreement_on_grid(ff_sqrt, ff_cbrt):
    xs = np.linspace(-3, 3, 8)
    ys = np.linspace(0.1, 3, 8)
    zs = (xs[:, None] + 1j * ys[None, :]).ravel()
    for ff in (ff_sqrt, ff_cbrt):
        for t in (0.25, 1.0, 2.0):
            conf = np.asarray(flow_conformal(ff, zs, t))
            ode = flow_ode(ff, zs, t)
            assert np.max(np.abs(conf - ode)) <= 1e-6


def test_route_agreement_rational_pair():
    ff = build_fal2(RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,)))
    for z in (0.5 + 0.8j, -1.2 + 1.5j, 2 + 0.3j):
        for t in (0.4, 1.0):
            conf = complex(flow_conformal(ff, z, t))
            assert flow_ode(ff, z, t) == pytest.approx(conf, abs=1e-6)


@pytest.mark.parametrize("rho", [1.0, 0.5, 0.3])
def test_power_flows_match_mpmath_closed_form(rho):
    mp = pytest.importorskip("mpmath")
    ff = build_fal2(parse_named_form(f"negPow({rho})"))
    c, e = ff.power
    zs = np.array([complex(x, y) for x in range(-3, 4)
                   for y in (0.1, 0.5, 1.5, 3.0)])
    for t in (0.25, 1.0, 2.0):
        # F^(1-e) = z^(1-e) - (1-e) c t, the root's angle lifted to (0, 2 pi]
        with mp.workdps(30):
            q = 1 - mp.mpf(e)
            ref = []
            for z in zs:
                v = mp.power(mp.mpc(z.real, z.imag), q) - q * mp.mpf(c) * t
                theta = mp.arg(v)
                if theta <= 0:
                    theta += 2 * mp.pi
                ref.append(complex(abs(v) ** (1 / q) * mp.expj(theta / q)))
        ref = np.array(ref)
        scale = np.maximum(1.0, np.abs(ref))
        assert np.max(np.abs(flow_conformal(ff, zs, t) - ref) / scale) <= 4e-15
        assert np.max(np.abs(flow_ode(ff, zs, t) - ref) / scale) <= 1e-8


# -- inverse flow ------------------------------------------------------------------

def test_inverse_constant(ff_const):
    assert flow_inverse(ff_const, 3j, 2.0) == pytest.approx(1j, abs=1e-15)


def test_inverse_closed_form(ff_sqrt):
    assert flow_inverse(ff_sqrt, 1.5 + 2j, 1.0) == pytest.approx(1j, abs=1e-8)


def test_inverse_roundtrip(ff_cbrt):
    zs = random_upper(50)
    fwd = np.asarray(flow_conformal(ff_cbrt, zs, 0.7))
    back = np.asarray(flow_inverse(ff_cbrt, fwd, 0.7))
    assert np.max(np.abs(back - zs)) <= 1e-7


def test_inverse_rejects_negative_t(ff_sqrt):
    with pytest.raises(DomainError):
        flow_inverse(ff_sqrt, 1j, -0.5)


def test_flow_conformal_raises_on_uninvertible_point():
    # flow_conformal reads only the pair: Psi = -log z maps C+ onto the
    # strip {-pi < Im w < 0}, which does not hold 1e6 i
    strip = ConformalPair.from_psi(RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))
    ff = FlowField(to_analytic(0j), "psi-pair", pair=strip)
    inside = flow_conformal(ff, np.array([-1j, 1 - 1j]), 0.5)
    assert np.all(np.isfinite(inside))
    with pytest.raises(OutsideImage):
        flow_conformal(ff, np.array([-1j, 1e6j, 1 - 1j]), 0.5)


def test_flow_seeds_phi_from_preimages(monkeypatch):
    ff = build_fal2(RationalNevanlinna(-1.0, 0.05, (0.0,), (1.0,)))
    derivative_calls = [0]
    solve = conformal.newton_halfplane

    def counting(residual, derivative, seed, **kwargs):
        def counted(z):
            derivative_calls[0] += 1
            return derivative(z)
        return solve(residual, counted, seed, **kwargs)

    monkeypatch.setattr(conformal, "newton_halfplane", counting)
    marginal_law(ff, 1.0, np.linspace(-8, 8, 321))
    # seeding each solve with the previous output F_t(w), an image point,
    # took 3,674 Newton iterations; preimage seeds take about 1,970
    assert derivative_calls[0] <= 2400


# -- black-box generator route ------------------------------------------------------
# phi = z/(z^2 - 1) has no closed flow: given as a function, its flow is
# one RKF45 lane per point

TWO_POLES = RationalNevanlinna(0.0, 0.0, (-1.0, 1.0), (0.5, 0.5))
BLACKBOX_POINTS = np.array([0.3 + 1j, -2 + 0.5j, 1 + 2j, 4 + 0.2j])


def blackbox_field():
    ff = FlowField.from_generator(TWO_POLES)
    assert ff.kind == "generator"
    return ff


def test_blackbox_flow_independent_of_order():
    forward = flow_conformal(blackbox_field(), BLACKBOX_POINTS, 1.0)
    backward = flow_conformal(blackbox_field(), BLACKBOX_POINTS[::-1],
                              1.0)[::-1]
    assert np.max(np.abs(forward - backward)) <= 1e-8


@pytest.mark.parametrize("t", [0.5, 1.0, 5.0])
def test_blackbox_flow_matches_ode(t):
    ff = blackbox_field()
    conf = flow_conformal(ff, BLACKBOX_POINTS, t)
    ode = flow_ode(ff, BLACKBOX_POINTS, t)
    assert np.max(np.abs(conf - ode)) <= 1e-6


def test_blackbox_inverse_roundtrip():
    ff = blackbox_field()
    fwd = flow_conformal(ff, BLACKBOX_POINTS, 1.0)
    back = flow_inverse(ff, fwd, 1.0)
    assert np.max(np.abs(back - BLACKBOX_POINTS)) <= 1e-8


def test_blackbox_flow_keeps_array_shape():
    # one lane per point, in the shape of the points
    ff = blackbox_field()
    grid = BLACKBOX_POINTS.reshape(2, 2)
    got = flow_conformal(ff, grid, 1.0)
    assert got.shape == (2, 2)
    assert np.array_equal(got.ravel(), flow_conformal(ff, BLACKBOX_POINTS, 1.0))


def three_poles(b):
    return RationalNevanlinna(0.0, b, (-1.5, 0.0, 1.5), (0.5, 1.0, 0.7))


class EvaluationBudgetExceeded(Exception):
    pass


@pytest.mark.parametrize("b", [0.0, -0.4, 0.3])
def test_blackbox_fal2_three_poles_within_budget(b):
    # the RKF45 lanes take about 271k evaluated points; a runaway solve
    # went past 2M here without finishing.  Stop at the budget so a
    # runaway fails fast instead of running on
    budget = 1_000_000
    form = three_poles(b)
    points = [0]

    def counting(z):
        points[0] += np.size(z)
        if points[0] > budget:
            raise EvaluationBudgetExceeded(f"more than {budget} points")
        return form.evaluate(z)

    verdict = fal2_check(AnalyticFn(counting), (0.1, 5.0),
                         grid=halfplane_grid(n_r=8, n_theta=8))
    assert verdict.passed


def _decreasing_root(f, lo, hi):
    """The root of f in (lo, hi) by bisection, f > 0 near lo, f < 0 near hi."""
    while True:
        mid = 0.5 * (lo + hi)
        if mid in (lo, hi):
            return mid
        if f(mid) > 0:
            lo = mid
        else:
            hi = mid


def minus_reciprocal(phi):
    """-1/phi in closed form for a rational phi with a = 0.

    On the real axis phi falls from +inf to -inf between consecutive poles,
    and towards b outside them, so its zeros zeta_j are real: one in each
    gap, plus one left of the poles when b > 0 or right of them when b < 0.
    They are the poles of -1/phi, with residues -1/phi'(zeta_j) > 0.
    """
    assert phi.a == 0.0
    x, r, b = phi.poles, phi.residues, phi.b
    total = sum(r)

    def real_phi(u):
        return b + sum(rk / (u - xk) for xk, rk in zip(x, r))

    gaps = list(zip(x, x[1:]))
    # |phi - b| <= total / L at distance L from every pole
    if b > 0:
        gaps.insert(0, (x[0] - 2.0 * total / b, x[0]))
    elif b < 0:
        gaps.append((x[-1], x[-1] - 2.0 * total / b))
    zeros = tuple(_decreasing_root(real_phi, lo, hi) for lo, hi in gaps)
    residues = tuple(-1.0 / phi.derivative(z).real for z in zeros)
    if b == 0.0:
        # -1/phi = -z/S + sum r_k x_k / S^2 + O(1/z), S = sum r_k
        lead = -1.0 / total
        drift = sum(rk * xk for xk, rk in zip(x, r)) / total ** 2
    else:
        lead, drift = 0.0, -1.0 / b
    return RationalNevanlinna(lead, drift, zeros, residues)


ORACLE_FIELDS = pytest.mark.parametrize(
    "phi", [TWO_POLES, three_poles(0.0), three_poles(-0.4), three_poles(0.3)],
    ids=["two-poles", "three-poles-b0", "three-poles-b-0.4",
         "three-poles-b0.3"])


@ORACLE_FIELDS
def test_minus_reciprocal_oracle_is_exact(phi):
    zs = random_upper(200)
    exact = -1.0 / phi.evaluate(zs)
    got = minus_reciprocal(phi).evaluate(zs)
    assert np.max(np.abs(got - exact) / np.maximum(1.0, np.abs(exact))) \
        <= 1e-13


@ORACLE_FIELDS
def test_blackbox_flow_conjugates_to_translation(phi):
    # Psi_c, a primitive of 1/phi, carries the flow to translation:
    # Psi_c(F_t(z)) = Psi_c(z) - t.  The primitive is closed-form and
    # independent of the integrator; its residual times |phi(F)| is the
    # error in F, scaled here by max(1, |F|)
    pair = ConformalPair.from_psi(minus_reciprocal(phi))
    ff = FlowField.from_generator(AnalyticFn(phi.evaluate))
    assert ff.kind == "generator"
    grid = halfplane_grid()
    for t in (0.1, 5.0, -5.0):
        out = levyflow._generator_flow(ff, grid, t)
        assert not np.any(np.isnan(out))
        residual = np.abs(pair.Psi(out) - pair.Psi(grid) + t)
        scaled = residual * np.abs(phi.evaluate(out)) \
            / np.maximum(1.0, np.abs(out))
        assert np.max(scaled) <= 1e-9


# -- the two halves of the parametrisation ---------------------------------------

def test_converse_factorisation_matches_psi_route():
    # phi = psi o Phi handed over as a bare function takes the generator
    # route: its flow is integrated lane by lane, with no use of psi
    direct = build_fal2(RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,)))
    converse = FlowField.from_generator(AnalyticFn(direct.phi.eval_array))
    assert converse.kind == "generator"
    for t in (0.5, 1.0):
        assert np.max(np.abs(flow_conformal(converse, BLACKBOX_POINTS, t)
                             - flow_conformal(direct, BLACKBOX_POINTS, t))
                      ) <= 1e-6
    # F_t^(-1)(z) exists in C+ only on F_t(C+); the psi route reads its
    # analytic continuation psi(Phi(z) - t) everywhere, the generator route
    # can only invert.  On the grid points inside F_5(C+) (so inside every
    # F_t(C+), t <= 5) the two verdicts agree
    grid = halfplane_grid(n_r=6, n_theta=6)
    back = direct.pair.Psi(direct.pair.Phi(grid) - 5.0)
    grid = grid[back.imag > 1e-3]
    verdict = fal2_check(converse, grid=grid)
    assert verdict.passed
    reference = fal2_check(direct, grid=grid)
    for key, entry in reference.detail.items():
        if key.startswith("t="):
            assert verdict.detail[key]["inversionFailures"] == 0
            assert verdict.detail[key]["maxIm"] == pytest.approx(
                entry["maxIm"], abs=1e-9)


def test_converse_check_reports_points_outside_the_image(monkeypatch):
    # on the whole grid the generator route meets points outside F_t(C+):
    # their backward flow reaches the axis before time t, so they count as
    # inversion failures
    direct = build_fal2(RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,)))
    converse = FlowField.from_generator(AnalyticFn(direct.phi.eval_array))
    walked = [0]
    walk = ConformalPair._phi_continuation

    def counting(self, w):
        walked[0] += w.size
        return walk(self, w)

    proxies = {}
    proxy_values = levyflow._proxy_values

    def recording(ff, pts, t, pre=None):
        proxies[t] = proxy_values(ff, pts, t, pre)
        return proxies[t]

    monkeypatch.setattr(ConformalPair, "_phi_continuation", counting)
    monkeypatch.setattr(levyflow, "_proxy_values", recording)
    grid = halfplane_grid(n_r=6, n_theta=6)
    verdict = fal2_check(converse, grid=grid)
    pre = direct.pair.Phi(grid)
    for t in DEFAULT_T_SAMPLES:
        # the psi route reads the continuation psi(Phi(z) - t) everywhere
        outside = direct.pair.Psi(pre - t).imag <= 0
        vals, failures = proxies[t]
        assert failures == verdict.detail[f"t={t:g}"]["inversionFailures"]
        assert failures == np.count_nonzero(outside)
        assert np.array_equal(np.isnan(vals), outside)
        assert np.max(np.abs(vals[~outside]
                             - direct.pair.psi(pre[~outside] - t))) <= 1e-8
    # the dogleg lanes are the direct pair's: every evaluation of
    # phi = psi o Phi inverts Psi = z^2/2 - log z, and lanes near its
    # critical value 1/2 walk the dogleg; better local seeds lower this
    assert walked[0] <= 219


# -- FAL2 verdicts ------------------------------------------------------------------

# rational-flow's seed-1 three-pole field
THREE_POLES = RationalNevanlinna(
    -1.0288550916703039, 0.09398892082624832,
    (-1.4983342398743793, -0.016004097357984116, 1.461080708803361),
    (0.9593383603967739, 0.9567071210670202, 0.9672026318218667))


def test_fal2_check_inverts_once_on_psi_pair(monkeypatch):
    ff = build_fal2(THREE_POLES)
    pts = halfplane_grid()
    sizes = []
    real_phi = ConformalPair.Phi

    def counting(self, w, **kwargs):
        sizes.append(np.size(w))
        return real_phi(self, w, **kwargs)

    monkeypatch.setattr(ConformalPair, "Phi", counting)
    verdict = fal2_check(ff)
    assert sizes == [pts.size]
    assert verdict.passed
    # the detail of inverting once per t, bit for bit
    for t in DEFAULT_T_SAMPLES:
        vals = ff.pair.psi(real_phi(ff.pair, pts) - t)
        assert verdict.detail[f"t={t:g}"] == {
            "maxIm": float(np.max(vals.imag)), "inversionFailures": 0}


def test_fal2_check_newton_lane_budget(monkeypatch):
    # lanes handed to the residuals of every Newton solve of one check on
    # the 4,480-point grid: 19,884 in 21 residual calls as measured, where
    # solving point by point took about 75,000 scalar residual calls
    budget = 40_000
    ff = build_fal2(THREE_POLES)
    lanes = [0]
    solve = conformal.newton_halfplane

    def counting(residual, derivative, seed, **kwargs):
        def counted(z, idx):
            lanes[0] += np.size(z)
            return residual(z, idx)
        return solve(counted, derivative, seed, **kwargs)

    monkeypatch.setattr(conformal, "newton_halfplane", counting)
    assert fal2_check(ff).passed
    assert lanes[0] <= budget


def test_fal2_constant_passes(ff_const):
    assert fal2_check(ff_const).passed


def test_fal2_built_cbrt_passes(ff_cbrt):
    assert fal2_check(ff_cbrt).passed


def test_fal2_inverse_sqrt_fails_with_witness():
    v = fal2_check(pow_fn(-0.5))
    assert v.failed
    assert v.witness is not None and v.t is not None
    # the witness certifies Im(phi o F_t^{-1}) > 0
    assert v.detail["im"] > 1e-8


def test_fal2_open_question_exponents_report_verdicts():
    for rho in (0.6, 0.75, 0.9):
        v = fal2_check(neg_pow(rho))
        assert v.status in ("pass", "fail", "inconclusive")
        assert v.status == "fail"  # finding: witnesses exist for rho > 1/2


def test_fal2_small_exponents_pass():
    assert fal2_check(neg_pow(1.0 / 3.0)).passed
    assert fal2_check(neg_pow(0.4)).passed


def test_fal2_semicircle_generator_fails():
    # phi = 1/w generates the semicircle semigroup, whose kernels are not
    # time-homogeneous: phi o F_t^{-1} = 1/sqrt(z^2 + 2t) jumps across the
    # flow slit i(0, sqrt(2t)], so the continuation leaves C-
    ff = FlowField.from_generator(RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))
    v = fal2_check(ff)
    assert v.failed
    z, t = complex(v.witness), v.t
    continuation = 1.0 / np.sqrt(z * z + 2 * t)
    assert continuation.imag > 1e-8


# -- marginal laws -------------------------------------------------------------------

def test_marginal_constant_is_cauchy(ff_const):
    ks = marginal_law(ff_const, 1.0, np.array([0.0]))
    assert ks.density[0] == pytest.approx(1 / math.pi, abs=1e-4)


def test_marginal_sqrt_generator_closed_form(ff_sqrt):
    # G(x) = 1/(x + sqrt(2x) + 1/2); at x = -2 the density is 0.32/pi
    ks = marginal_law(ff_sqrt, 1.0, np.array([-2.0]))
    assert ks.density[0] == pytest.approx(0.32 / math.pi, abs=1e-4)
    # the law sits on (-inf, 0] with an |x|^(-3/2) tail; the mass deficit on
    # a truncated grid matches the closed-form truncated mass
    from freeflow.quadrature import adaptive_quad

    def dens_closed(x):
        f = np.asarray(x, complex) + np.sqrt(2 * np.asarray(x, complex)) + 0.5
        return -np.imag(1.0 / f) / math.pi

    truncated = float(adaptive_quad(dens_closed, -60.0, 0.0, abs_tol=1e-8))
    wide = marginal_law(ff_sqrt, 1.0, np.linspace(-60, 60, 4001))
    assert wide.mass_deficit == pytest.approx(1.0 - truncated, abs=2e-3)


def test_marginal_t_zero_is_atom(ff_sqrt):
    ks = marginal_law(ff_sqrt, 0.0, np.linspace(-3, 3, 100))
    assert np.max(np.abs(ks.density)) < 5e-2
    assert ks.mass_deficit > 0.9


# -- transition kernels ----------------------------------------------------------------

def test_kernel_constant_is_shifted_cauchy(ff_const):
    for t, x in ((0.5, 0.0), (1.5, -2.0)):
        ks = transition_kernel(ff_const, t, x, np.array([x]))
        assert ks.density[0] == pytest.approx(1 / (math.pi * t), abs=1e-4)


def test_kernel_t_zero_is_dirac(ff_const):
    ks = transition_kernel(ff_const, 0.0, 0.7, np.linspace(-2, 3.05, 101))
    assert ks.mass_deficit > 0.9


def test_kernel_at_origin_matches_marginal(ff_sqrt):
    grid = np.linspace(-4, 4, 81)
    a = transition_kernel(ff_sqrt, 1.0, 0.0, grid)
    b = marginal_law(ff_sqrt, 1.0, grid)
    assert np.max(np.abs(a.density - b.density)) <= 1e-8


def test_kernel_positivity_and_mass(ff_const):
    grid = np.linspace(-80, 80, 3001)
    ks = transition_kernel(ff_const, 1.0, 0.5, grid)
    assert np.min(ks.density) >= -1e-9
    assert np.trapezoid(ks.density, grid) + ks.mass_deficit == pytest.approx(
        1.0, abs=1e-3)


def test_kernel_composition_cauchy(ff_const):
    # k_s * k_t = k_{s+t} for the constant generator (Cauchy semigroup)
    s, t = 0.5, 0.7
    h = 0.05
    grid = np.arange(-120.0, 120.0 + h, h)
    kt = transition_kernel(ff_const, t, 0.0, grid)
    ks0 = transition_kernel(ff_const, s, 0.0, grid)
    conv = np.convolve(ks0.density, kt.density, mode="same") * h
    kst = transition_kernel(ff_const, s + t, 0.0, grid)
    centre = np.abs(grid) <= 5.0
    assert np.max(np.abs(conv[centre] - kst.density[centre])) <= 1e-3


# -- increments ---------------------------------------------------------------------------

def test_increment_constant_generator(ff_const):
    inc = increment_transform(ff_const, 0.3, 1.1, 2j)
    assert inc == pytest.approx(-1j * 0.8, abs=1e-12)


def test_increment_sqrt_generator_not_stationary(ff_sqrt):
    s, t, z = 0.5, 1.2, 2j
    inc = increment_transform(ff_sqrt, s, t, z)
    expect = -(t - s) * np.sqrt(2 * z) + (t * t - s * s) / 2
    assert inc == pytest.approx(expect, abs=1e-10)
    # depends on (s, t), not only t - s
    other = increment_transform(ff_sqrt, 0.0, t - s, z)
    assert abs(inc - other) > 1e-3


def test_increment_identity(ff_sqrt):
    assert increment_transform(ff_sqrt, 0.8, 0.8, 1 + 1j) == pytest.approx(
        0.0, abs=1e-12)


# -- flow invariants ------------------------------------------------------------------------

def test_semigroup_law_both_routes(ff_sqrt):
    zs = random_upper(50)
    for s in (0.3, 0.7, 1.1):
        for t in (0.3, 0.7, 1.1):
            once = np.asarray(flow_conformal(ff_sqrt, zs, s + t))
            twice = np.asarray(flow_conformal(
                ff_sqrt, np.asarray(flow_conformal(ff_sqrt, zs, t)), s))
            assert np.max(np.abs(once - twice)) <= 1e-6
    z = zs[0]
    staged = flow_ode(ff_sqrt, flow_ode(ff_sqrt, z, 0.7), 0.3)
    assert staged == pytest.approx(flow_ode(ff_sqrt, z, 1.0), abs=1e-6)


def test_imaginary_part_monotone(ff_sqrt, ff_cbrt, ff_const):
    zs = random_upper(100)
    for ff in (ff_sqrt, ff_cbrt, ff_const):
        for t in (0.1, 1.0, 3.0):
            out = np.asarray(flow_conformal(ff, zs, t))
            assert np.min(out.imag - zs.imag) >= -1e-9


def test_flow_normalisation_at_infinity(ff_sqrt, ff_cbrt):
    # F_t(iy)/(iy) -> 1; the rate is O(y^{-1/2}) for the sqrt generator, so
    # a fixed probe at y = 1e6 sees ~t sqrt(2/y) ~ 3e-3 and the limit is
    # checked along a ladder instead
    for ff in (ff_sqrt, ff_cbrt):
        for t in (0.5, 2.0):
            devs = [abs(complex(flow_conformal(ff, 1j * y, t)) / (1j * y) - 1)
                    for y in (1e6, 1e8, 1e10)]
            assert devs[0] > devs[1] > devs[2]
            assert devs[-1] <= 1e-4


def test_generator_scaling_equivariance(ff_sqrt):
    # c psi(z/c) for psi = -z is -z again; the flow scales as
    # F_t(cz; scaled) = c F_{t/sqrt(c)}(z)...: checked through the closed
    # form identity f(cz, sqrt(c) t) = c f(z, t)
    c = 2.0
    for z in random_upper(25):
        for t in (0.25, 1.0):
            lhs = flow_conformal(ff_sqrt, c * z, math.sqrt(c) * t)
            rhs = c * np.asarray(flow_conformal(ff_sqrt, z, t))
            assert complex(lhs) == pytest.approx(complex(rhs), abs=1e-8)
            assert closed_sqrt_flow(c * z, math.sqrt(c) * t) == pytest.approx(
                c * closed_sqrt_flow(z, t), abs=1e-8)
