import json
import math

import numpy as np
import pytest

from freeflow.errors import MissingTailMetadata
from freeflow.measures import (Atom, DensityPiece, Measure, atomic, cauchy_law,
                               dirac, semicircle_measure, table_density)


def test_total_mass_single_atom():
    assert dirac(0.0).total_mass() == 1.0


def test_total_mass_atom_sum():
    m = atomic([(-1.0, 0.5), (2.0, 0.5)])
    assert m.total_mass() == pytest.approx(1.0, abs=1e-15)


def test_total_mass_semicircle():
    # closed form: the standard semicircle density integrates to 1
    assert semicircle_measure(1.0).total_mass() == pytest.approx(1.0, abs=1e-8)


def test_moment_atom_at_origin():
    assert dirac(0.0).moment(2) == 0.0


def test_moment_divergent_negative_tail():
    # density ~ |u|^{-3/2}: first moment over the full line diverges to -inf
    def dens(u):
        u = np.asarray(u, dtype=float)
        return np.sqrt(np.clip(-u, 0, None)) / (2 * math.pi * (1 + u * u))
    m = Measure(pieces=(DensityPiece(-math.inf, 0.0, dens, 1.5),))
    assert m.moment(1) == -math.inf
    # restricted to u > 0 the piece contributes nothing
    assert m.moment(1, positive_part_only=True) == 0.0


def test_moment_positive_atom():
    m = atomic([(1.0, 1.0)])
    assert m.moment(2, positive_part_only=True) == 1.0


def test_moment_requires_tail_metadata():
    m = Measure(pieces=(DensityPiece(0.0, math.inf,
                                     lambda u: np.exp(-np.asarray(u)), None),))
    with pytest.raises(MissingTailMetadata):
        m.moment(1)


def test_additivity_of_disjoint_union():
    a = semicircle_measure(1.0)
    b = atomic([(5.0, 0.25)])
    union = Measure(atoms=b.atoms, pieces=a.pieces)
    assert union.total_mass() == pytest.approx(
        a.total_mass() + b.total_mass(), abs=1e-10)


def test_moment_zero_equals_mass():
    m = Measure(atoms=(Atom(1.5, 0.3),), pieces=semicircle_measure(2.0).pieces)
    assert m.moment(0) == pytest.approx(m.total_mass(), abs=1e-10)


def test_scaling_masses_and_moments():
    m = semicircle_measure(1.0)
    s = m.scaled(2.5)
    assert s.total_mass() == pytest.approx(2.5 * m.total_mass(), abs=1e-10)
    assert s.moment(2) == pytest.approx(2.5 * m.moment(2), abs=1e-10)


def test_empty_measure_is_legal():
    m = Measure()
    assert m.is_empty
    assert m.total_mass() == 0.0
    assert m.moment(1) == 0.0


def test_atom_validation():
    with pytest.raises(ValueError):
        Atom(0.0, 0.0)
    with pytest.raises(ValueError):
        Measure(atoms=(Atom(1.0, 0.5), Atom(1.0, 0.5)))


def test_cauchy_law_mass_and_tails():
    m = cauchy_law()
    assert m.total_mass() == pytest.approx(1.0, abs=1e-9)
    assert m.moment(2) == math.inf


def test_json_roundtrip_builtins():
    text = """
    {"atoms": [{"u": 0.5, "mass": 0.25}],
     "ac": [{"lo": -2, "hi": 2, "density": "semicircle(1)"},
            {"lo": "-inf", "hi": 0, "density": "sqrtNeg", "tailExponent": 1.5}]}
    """
    m = Measure.from_json_dict(json.loads(text))
    assert m.atoms[0].position == 0.5
    assert m.pieces[1].tail_exponent == 1.5


def test_table_density_interpolation():
    dens = table_density([(0.0, 1.0), (1.0, 0.0)])
    assert dens(0.5) == pytest.approx(0.5)
    assert dens(2.0) == 0.0
    m = Measure(pieces=(DensityPiece(0.0, 1.0, dens),))
    assert m.total_mass() == pytest.approx(0.5, abs=1e-10)


def test_integrate_vector_valued():
    m = semicircle_measure(1.0)
    zs = np.array([2j, 1 + 1j])

    def kernel(u):
        u = np.asarray(u)
        return 1.0 / (zs[:, None] - u[None, :])

    vals = m.integrate(kernel)
    for z, v in zip(zs, vals):
        single = m.integrate(lambda u: 1.0 / (z - np.asarray(u)))
        assert v == pytest.approx(single, abs=1e-9)
