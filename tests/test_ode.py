import numpy as np
import pytest

from freeflow.errors import DomainError, StepUnderflow
from freeflow.levyflow import FlowField, build_fal2, flow_ode
from freeflow.nevanlinna import const_fn, parse_named_form
from freeflow.ode import OdeConfig, integrate_halfplane


def test_linear_decay_matches_closed_form():
    # y' = -y from i: y(t) = i e^{-t}, stays in C+
    got = integrate_halfplane(lambda y: -y, 1j, 1.5)
    assert got == pytest.approx(1j * np.exp(-1.5), abs=1e-9)


def test_constant_drift():
    got = integrate_halfplane(lambda y: 1j, 0.5 + 0.5j, 2.0)
    assert got == pytest.approx(0.5 + 2.5j, abs=1e-12)


def test_t_zero_returns_input():
    assert integrate_halfplane(lambda y: -y, 0.3 + 0.4j, 0.0) == 0.3 + 0.4j


def test_nonlinear_flow_against_quadrature_free_solution():
    # y' = 1/y from 3i: y(t) = sqrt(-9 + 2t) with Im > 0
    got = integrate_halfplane(lambda y: 1.0 / y, 3j, 1.0)
    assert got == pytest.approx(np.sqrt(complex(-9 + 2)), abs=1e-8)


def test_boundary_crossing_raises_step_underflow():
    with pytest.raises(StepUnderflow):
        integrate_halfplane(lambda y: -1j, 0.5j, 1.0)


def test_negative_time_rejected():
    with pytest.raises(DomainError):
        integrate_halfplane(lambda y: -y, 1j, -1.0)


def test_seed_outside_halfplane_rejected():
    with pytest.raises(DomainError):
        integrate_halfplane(lambda y: -y, -1j, 1.0)


def test_tolerance_scaling():
    loose = OdeConfig(abs_tol=1e-5, rel_tol=1e-4)
    got = integrate_halfplane(lambda y: -y, 1j, 1.0, loose)
    assert got == pytest.approx(1j * np.exp(-1.0), abs=1e-3)


# -- lanes ----------------------------------------------------------------------

RNG = np.random.default_rng(20)
STARTS = RNG.uniform(-3, 3, 40) + 1j * RNG.uniform(0.1, 3, 40)


def recip(y):
    return 1.0 / y


def negpow1_rhs():
    # the CLI's --psi negPow(1): psi = -z, phi = -sqrt(2 w)
    phi = build_fal2(parse_named_form("negPow(1)")).phi
    return lambda y: -phi.eval_array(y)


@pytest.mark.parametrize("make_rhs", [lambda: recip, negpow1_rhs])
def test_shuffled_lanes_shuffle_the_result_bit_for_bit(make_rhs):
    rhs = make_rhs()
    perm = RNG.permutation(STARTS.size)
    forward = integrate_halfplane(rhs, STARTS, 1.0)
    shuffled = integrate_halfplane(rhs, STARTS[perm], 1.0)
    assert not np.any(np.isnan(forward))
    assert np.array_equal(forward[perm], shuffled)


@pytest.mark.parametrize("make_rhs", [lambda: recip, negpow1_rhs])
def test_scalar_equals_its_lane_bit_for_bit(make_rhs):
    rhs = make_rhs()
    lanes = integrate_halfplane(rhs, STARTS, 1.0)
    for i in (0, 7, 39):
        got = integrate_halfplane(rhs, STARTS[i], 1.0)
        assert isinstance(got, complex)
        assert got == lanes[i]


def test_lane_that_crosses_the_axis_is_nan_alone():
    # y' = -i from 0.5i reaches the axis at t = 0.5
    starts = np.array([1 + 2j, 0.5j, -1 + 1.5j, 3j])
    got = integrate_halfplane(lambda y: -1j, starts, 1.0)
    assert np.isnan(got[1])
    for i in (0, 2, 3):
        assert got[i] == integrate_halfplane(lambda y: -1j, starts[i], 1.0)
    # a field whose generator pushes towards the axis (not Nevanlinna)
    ff = FlowField(const_fn(1j), "constant", const=1j)
    assert flow_ode(ff, starts[[0, 2]], 1.0) == pytest.approx(
        starts[[0, 2]] - 1j, abs=1e-12)
    with pytest.raises(StepUnderflow, match="0.5j"):
        flow_ode(ff, starts, 1.0)


def test_lane_out_of_budget_is_nan_while_others_finish():
    # y' = 1/y near the origin needs far more steps than away from it
    starts = np.array([10j, 0.001 + 0.001j, 3 + 4j])
    full = integrate_halfplane(recip, starts, 1.0)
    got = integrate_halfplane(recip, starts, 1.0, OdeConfig(max_steps=20))
    assert not np.any(np.isnan(full))
    assert np.isnan(got[1])
    assert got[0] == full[0] and got[2] == full[2]
    with pytest.raises(StepUnderflow):
        integrate_halfplane(recip, starts[1], 1.0, OdeConfig(max_steps=20))


def test_t_zero_returns_a_copy_of_the_array():
    starts = np.array([[0.3 + 0.4j, 2j], [-1 + 1j, 5 + 0.1j]])
    got = integrate_halfplane(recip, starts, 0.0)
    assert got.shape == starts.shape and np.array_equal(got, starts)
    got[0, 0] = 7j
    assert starts[0, 0] == 0.3 + 0.4j


# -- per-lane end times ---------------------------------------------------------

ENDS = RNG.uniform(0.0, 2.0, STARTS.size)


@pytest.mark.parametrize("make_rhs", [lambda: recip, negpow1_rhs])
def test_lane_with_its_own_end_equals_its_scalar_call(make_rhs):
    rhs = make_rhs()
    lanes = integrate_halfplane(rhs, STARTS, ENDS)
    for i in (0, 7, 23, 39):
        assert lanes[i] == integrate_halfplane(rhs, STARTS[i], ENDS[i])


@pytest.mark.parametrize("make_rhs", [lambda: recip, negpow1_rhs])
def test_shuffled_start_end_pairs_shuffle_the_result(make_rhs):
    rhs = make_rhs()
    perm = RNG.permutation(STARTS.size)
    forward = integrate_halfplane(rhs, STARTS, ENDS)
    shuffled = integrate_halfplane(rhs, STARTS[perm], ENDS[perm])
    assert not np.any(np.isnan(forward))
    assert np.array_equal(forward[perm], shuffled)


def test_end_zero_lanes_return_their_start():
    ends = ENDS.copy()
    ends[::3] = 0.0
    got = integrate_halfplane(recip, STARTS, ends)
    assert np.array_equal(got[::3], STARTS[::3])
    keep = ends > 0
    assert np.array_equal(got[keep],
                          integrate_halfplane(recip, STARTS[keep], ends[keep]))


def test_negative_end_time_rejected():
    ends = ENDS.copy()
    ends[5] = -1e-9
    with pytest.raises(DomainError):
        integrate_halfplane(recip, STARTS, ends)


def test_crossing_lane_is_nan_beside_lanes_with_other_end_times():
    # y' = -i from 0.5i reaches the axis at t = 0.5; the others stop earlier
    # or later, each at its own end
    starts = np.array([1 + 2j, 0.5j, -1 + 1.5j, 3j])
    ends = np.array([0.25, 1.0, 1.4, 2.0])
    got = integrate_halfplane(lambda y: -1j, starts, ends)
    assert np.isnan(got[1])
    for i in (0, 2, 3):
        assert got[i] == integrate_halfplane(lambda y: -1j, starts[i], ends[i])
        assert got[i] == pytest.approx(starts[i] - 1j * ends[i], abs=1e-12)


def scalar_rkf45(rhs, y, t_end, config=OdeConfig()):
    """The point-by-point integrator that the lanes replaced: the same
    rules in Python complex arithmetic, kept as the reference."""
    from freeflow.ode import _A, _B4, _B5
    t, h = 0.0, min(0.01, t_end)
    for _ in range(config.max_steps):
        if t >= t_end:
            return y
        h = min(h, t_end - t)
        if h < config.min_step:
            raise StepUnderflow("step below minimum")
        ks = []
        for row in _A:
            stage = y + h * sum(a * k for a, k in zip(row, ks))
            if stage.imag <= 0:
                break
            ks.append(complex(rhs(np.asarray(stage))))
        if len(ks) < len(_A):
            h *= 0.5
            continue
        y4 = y + h * sum(b * k for b, k in zip(_B4, ks))
        y5 = y + h * sum(b * k for b, k in zip(_B5, ks))
        if y5.imag <= 0 or y5 != y5:
            h *= 0.5
            continue
        err = abs(y5 - y4)
        tol = config.abs_tol + config.rel_tol * max(abs(y), abs(y5))
        if err <= tol:
            t, y = t + h, y5
        factor = 0.9 * (tol / err) ** 0.2 if err > 0 else 5.0
        h *= min(max(factor, 0.2), 5.0)
    raise StepUnderflow("step budget exhausted")


@pytest.mark.parametrize("make_rhs", [lambda: recip, negpow1_rhs])
def test_lanes_match_the_scalar_reference(make_rhs):
    # same steps, but numpy's pow and complex products may round the step
    # factor differently in the last bit
    rhs = make_rhs()
    lanes = integrate_halfplane(rhs, STARTS, 1.0)
    ref = np.array([scalar_rkf45(rhs, complex(z), 1.0) for z in STARTS])
    assert np.max(np.abs(lanes - ref) / np.abs(ref)) <= 1e-13
