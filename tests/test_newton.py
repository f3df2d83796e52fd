import numpy as np
import pytest

from freeflow._newton import newton_halfplane
from freeflow.errors import NewtonDivergence

RNG = np.random.default_rng(7)
# semicircle subordination w + 1/w = zeta: near the axis the full Newton
# step from w = zeta overshoots, so these lanes damp
TARGETS = np.concatenate([
    RNG.uniform(-3, 3, 30) + 1j * RNG.uniform(1e-3, 0.1, 30),
    RNG.uniform(-3, 3, 20) + 1j * RNG.uniform(0.5, 3, 20)])


def solve(targets, counts=None):
    targets = np.asarray(targets, dtype=complex)

    def residual(w, lanes):
        if counts is not None:
            counts.append(w.size)
        return w + 1.0 / w - targets.ravel()[lanes]

    return newton_halfplane(residual, lambda w: 1.0 - 1.0 / (w * w),
                            targets, scale=np.abs(targets))


def test_lanes_damp_and_converge():
    counts = []
    got = solve(TARGETS, counts=counts)
    assert np.all(np.abs(got + 1 / got - TARGETS)
                  <= 1e-12 * np.maximum(1, np.abs(TARGETS)))
    # the lanes retire at different iterations, and some were damped:
    # a full step probes every active lane, a damped one only some
    assert len(counts) > 20 and counts[1] == TARGETS.size > counts[2]


def test_shuffled_lanes_shuffle_the_result_bit_for_bit():
    perm = RNG.permutation(TARGETS.size)
    forward = solve(TARGETS)
    shuffled = solve(TARGETS[perm])
    assert np.array_equal(forward[perm], shuffled, equal_nan=True)


def test_scalar_seed_equals_its_lane_bit_for_bit():
    lanes = solve(TARGETS)
    for i in (0, 7, 29, 49):
        got = solve(TARGETS[i])
        assert isinstance(got, complex)
        assert got == lanes[i]


def test_zero_derivative_lane_is_nan_alone():
    # (w - i)^2 = 1 from w = i: the derivative 2 (w - i) vanishes there
    targets = np.array([4 + 0j, 1 + 0j, -3 + 0j, 2j])
    seeds = np.array([2 + 1j, 1j, -1 + 2j, 2 + 2j])
    probed = []

    def run(idx):
        def residual(w, lanes):
            probed.extend(idx[lanes])
            return (w - 1j) ** 2 - targets[idx][lanes]

        return newton_halfplane(residual, lambda w: 2.0 * (w - 1j),
                                seeds[idx])

    got = run(np.arange(4))
    assert np.isnan(got[1])
    # only the seed's residual: a lane without a derivative is not probed
    assert probed.count(1) == 1
    others = [0, 2, 3]
    assert np.array_equal(got[others], run(np.array(others)))
    assert not np.any(np.isnan(got[others]))


def test_lane_damped_towards_the_axis_is_nan_alone():
    # both roots of w - 1/w = target share the sign of Im target, so the
    # lane with target -i has none in C+: a third of its probes leave the
    # half-plane and are damped, and it stalls near w = i until it runs
    # out of iterations
    targets = np.array([1 + 1j, -1j, 2 + 0.5j, -1 + 3j])
    seeds = np.array([3j, 2j, 1 + 1j, 0.5j])

    def run(idx):
        return newton_halfplane(
            lambda w, lanes: w - 1.0 / w - targets[idx][lanes],
            lambda w: 1.0 + 1.0 / (w * w), seeds[idx])

    got = run(np.arange(4))
    assert np.isnan(got[1])
    others = [0, 2, 3]
    assert np.array_equal(got[others], run(np.array(others)))
    assert got[others] - 1 / got[others] == pytest.approx(targets[others],
                                                          abs=1e-12)
    with pytest.raises(NewtonDivergence) as err:
        newton_halfplane(lambda w, lanes: w - 1.0 / w + 1j,
                         lambda w: 1.0 + 1.0 / (w * w), seeds[1])
    assert err.value.trace[0] == seeds[1]
