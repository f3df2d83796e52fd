import math

import numpy as np
import pytest

from freeflow.errors import QuadratureFailure
from freeflow.quadrature import adaptive_quad, quad_interval


def test_polynomial_exact():
    # antiderivative x^4/4 - x^2 + x between -1 and 2 gives 15/4
    val = adaptive_quad(lambda x: x ** 3 - 2 * x + 1, -1.0, 2.0)
    assert val == pytest.approx(15.0 / 4.0, abs=1e-12)


def test_oscillatory():
    val = adaptive_quad(lambda x: np.sin(10 * x), 0.0, math.pi)
    assert val == pytest.approx((1 - math.cos(10 * math.pi)) / 10.0, abs=1e-10)


def test_complex_integrand():
    val = adaptive_quad(lambda x: np.exp(1j * x), 0.0, 1.0)
    assert val == pytest.approx((np.exp(1j) - 1) / 1j, abs=1e-12)


def test_endpoint_singularity():
    val = adaptive_quad(lambda x: 1.0 / np.sqrt(np.clip(x, 1e-300, None)),
                        0.0, 1.0)
    assert val == pytest.approx(2.0, abs=1e-8)


def test_right_tail_gaussian():
    val = quad_interval(lambda u: np.exp(-u * u), 0.0, math.inf)
    assert val == pytest.approx(math.sqrt(math.pi) / 2.0, abs=1e-10)


def test_left_tail_rational():
    val = quad_interval(lambda u: 1.0 / (1.0 + u * u), -math.inf, 0.0)
    assert val == pytest.approx(math.pi / 2.0, abs=1e-9)


@pytest.mark.parametrize("p", [1.01, 1.001])
def test_right_tail_heavy_power(p):
    # for p = 1.001 half of int_1^inf u^-p du lies past u = 1e300
    val = quad_interval(lambda u: u ** -p, 1.0, math.inf, tail_exponent=p)
    assert val == pytest.approx(1.0 / (p - 1.0), rel=1e-12)


def test_doubly_infinite():
    val = quad_interval(lambda u: 1.0 / (math.pi * (1.0 + u * u)),
                        -math.inf, math.inf)
    assert val == pytest.approx(1.0, abs=1e-9)


def test_vector_valued_integrand():
    zs = np.array([1j, 2j, 1 + 1j])

    def f(x):
        return 1.0 / (zs[:, None] - x[None, :])

    vals = adaptive_quad(f, -1.0, 1.0)
    for z, v in zip(zs, vals):
        expect = np.log(z + 1) - np.log(z - 1)
        assert v == pytest.approx(expect, abs=1e-10)


def test_budget_exhaustion_raises():
    # genuinely unresolvable at the default tolerance in 8 panels
    with pytest.raises(QuadratureFailure):
        adaptive_quad(lambda x: np.sin(1000.0 * x) * 1000.0, 0.0, 50.0,
                      max_panels=8)
