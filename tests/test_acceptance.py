"""Acceptance suite: each criterion prints one PASS/FAIL line and enforces
its stated tolerance and runtime budget."""
import json
import math
import time

import numpy as np
import pytest

from freeflow.cauchy import semigroup_marginal
from freeflow.cli import main as cli_main
from freeflow.conformal import (ConformalPair, contains_halfplane_translate,
                                slit_image)
from freeflow.levyflow import (build_fal2, fal2_check, flow_conformal,
                               flow_ode, transition_kernel)
from freeflow.measures import DensityPiece, Measure
from freeflow.nevanlinna import (NevanlinnaSpec, PowerForm,
                                 RationalNevanlinna, recover_parameters,
                                 spec_fn)

RNG = np.random.default_rng(20260809)


class budget:
    """Context that times a criterion and prints its PASS/FAIL line."""

    def __init__(self, number: int, name: str, limit_s: float):
        self.number = number
        self.name = name
        self.limit = limit_s

    def __enter__(self):
        self.t0 = time.perf_counter()
        return self

    def __exit__(self, exc_type, exc, tb):
        dt = time.perf_counter() - self.t0
        status = "PASS" if exc_type is None else "FAIL"
        print(f"ACCEPTANCE {self.number} [{self.name}]: {status} "
              f"({dt:.2f}s / limit {self.limit:.0f}s)")
        if exc_type is None:
            assert dt < self.limit, (
                f"criterion {self.number} exceeded its runtime budget: "
                f"{dt:.2f}s >= {self.limit}s")
        return False


def test_criterion_1_slit_geometry():
    with budget(1, "slit geometry of z^2/2 - log z", 1.0):
        si = slit_image(RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,)))
        heights = sorted(q for q, _ in si.slits)
        tips = [p for _, p in si.slits]
        assert heights[0] == pytest.approx(-math.pi, abs=1e-10)
        assert heights[1] == pytest.approx(0.0, abs=1e-10)
        assert tips == pytest.approx([0.5, 0.5], abs=1e-8)


def test_criterion_2_nevanlinna_roundtrip():
    with budget(2, "nevanlinna parameter roundtrip", 30.0):
        for _ in range(10):
            alpha = -RNG.uniform(0.0, 2.0)
            beta = RNG.uniform(-2.0, 2.0)
            c = RNG.uniform(0.2, 1.5)
            m = RNG.uniform(-2.0, 2.0)
            r = RNG.uniform(0.5, 2.0)

            def dens(u, _c=c, _m=m, _r=r):
                u = np.asarray(u, dtype=float)
                return _c * 2.0 / (math.pi * _r * _r) * np.sqrt(
                    np.clip(_r * _r - (u - _m) ** 2, 0.0, None))

            nu = Measure(pieces=(DensityPiece(m - r, m + r, dens, None),))
            spec = NevanlinnaSpec(alpha, beta, nu)
            rec = recover_parameters(
                spec_fn(spec, abs_tol=1e-7),
                u_grid=np.linspace(m - r - 2.5, m + r + 2.5, 321), eps=4e-3)
            assert rec.alpha == pytest.approx(alpha, abs=1e-3)
            assert rec.beta == pytest.approx(beta, abs=1e-2)
            assert rec.mass == pytest.approx(c, abs=1e-2)


def test_criterion_3_semicircle_semigroup():
    with budget(3, "semicircle semigroup densities", 30.0):
        phi = RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,))
        eps = 1e-3
        for t in (0.5, 1.0, 2.0):
            lim = 1.9 * math.sqrt(t)
            xs = np.linspace(-lim, lim, 200)
            dens = np.empty_like(xs)
            for k, x in enumerate(xs):
                full = semigroup_marginal(phi.evaluate, t, complex(x, eps))
                half = semigroup_marginal(phi.evaluate, t, complex(x, eps / 2))
                dens[k] = -(2.0 * half - full).imag / math.pi
            expect = np.sqrt(4 * t - xs ** 2) / (2 * math.pi * t)
            assert np.max(np.abs(dens - expect)) <= 1e-3


def test_criterion_4_flow_oracle():
    with budget(4, "flow routes against the closed form", 60.0):
        ff = build_fal2(PowerForm(-1.0, 1.0))  # phi = -sqrt(2w)
        xs = np.linspace(-3, 3, 20)
        ys = np.linspace(0.1, 3, 20)
        zs = (xs[:, None] + 1j * ys[None, :]).ravel()

        def closed(z, t):
            return z + t * np.sqrt(2 * z) + 0.5 * t * t

        for t in (0.25, 1.0, 2.0):
            conf = np.asarray(flow_conformal(ff, zs, t))
            assert np.max(np.abs(conf - closed(zs, t))) <= 1e-6
            ode = flow_ode(ff, zs, t)
            assert np.max(np.abs(ode - closed(zs, t))) <= 1e-6
            # Im-monotonicity on the same grid
            assert np.min(conf.imag - zs.imag) >= -1e-9
        # semigroup law on the same grid
        for s in (0.3, 0.7, 1.1):
            for t in (0.3, 0.7, 1.1):
                lhs = np.asarray(flow_conformal(ff, zs, s + t))
                rhs = np.asarray(flow_conformal(
                    ff, np.asarray(flow_conformal(ff, zs, t)), s))
                assert np.max(np.abs(lhs - rhs)) <= 1e-6
        for z in zs[::97]:
            staged = flow_ode(ff, flow_ode(ff, z, 0.7), 0.3)
            assert staged == pytest.approx(flow_ode(ff, z, 1.0), abs=1e-6)


def test_criterion_5_fal2_classification():
    with budget(5, "FAL2 classification", 120.0):
        assert fal2_check(build_fal2(-1j)).passed
        ff = build_fal2(PowerForm(-1.0, 0.5))
        c, p = ff.power
        assert p == pytest.approx(1.0 / 3.0)
        assert c == pytest.approx(-(1.5 ** (1.0 / 3.0)))
        assert fal2_check(ff).passed
        bad = fal2_check(PowerForm(1.0, -0.5))
        assert bad.failed
        assert bad.witness is not None and complex(bad.witness).imag > 0


def test_criterion_6_containment_criterion():
    with budget(6, "half-plane containment certificates", 10.0):
        yes = contains_halfplane_translate(PowerForm(-1.0, 0.5))
        assert yes.verdict and yes.drift == -math.inf
        no1 = contains_halfplane_translate(PowerForm(1.0, -0.5))
        assert not no1.verdict
        assert no1.drift == pytest.approx(0.0, abs=1e-6)
        no2 = contains_halfplane_translate(
            RationalNevanlinna(0.0, 0.0, (0.0,), (1.0,)))
        assert not no2.verdict
        assert no2.drift == pytest.approx(0.0, abs=1e-12)


def test_criterion_7_kernel_sanity():
    with budget(7, "constant-generator kernels", 60.0):
        ff = build_fal2(-1j)
        # Cauchy kernel of scale t centred at x
        for t, x in ((0.5, 0.0), (1.25, -1.5)):
            grid = np.linspace(x - 12, x + 12, 961)
            ks = transition_kernel(ff, t, x, grid)
            expect = t / (math.pi * ((grid - x) ** 2 + t * t))
            assert np.max(np.abs(ks.density - expect)) <= 1e-4
        # composition k_s o k_t = k_{s+t} under numerical convolution
        s, t = 0.5, 0.7
        h = 0.05
        grid = np.arange(-120.0, 120.0 + h, h)
        kt = transition_kernel(ff, t, 0.0, grid)
        ks = transition_kernel(ff, s, 0.0, grid)
        conv = np.convolve(ks.density, kt.density, mode="same") * h
        kst = transition_kernel(ff, s + t, 0.0, grid)
        centre = np.abs(grid) <= 5.0
        assert np.max(np.abs(conv[centre] - kst.density[centre])) <= 1e-3


def test_criterion_8_univalence_suite():
    with budget(8, "difference-quotient positivity", 10.0):
        from freeflow.measures import semicircle_measure
        pairs = [
            ConformalPair.from_psi(RationalNevanlinna(-1.0, 0.0, (0.0,), (1.0,))),
            ConformalPair.from_psi(
                RationalNevanlinna(-0.5, 0.3, (-1.0, 0.5, 2.0),
                                   (0.4, 1.1, 0.7))),
            ConformalPair.from_psi(PowerForm(-1.0, 0.5)),
            ConformalPair.from_psi(PowerForm(1.0, -0.5)),
            ConformalPair.from_psi(-1j),
            ConformalPair.from_psi(
                NevanlinnaSpec(-0.5, 0.2, semicircle_measure(1.0).scaled(0.3))),
        ]
        for pair in pairs:
            z1 = RNG.uniform(-3, 3, 500) + 1j * RNG.uniform(0.05, 3, 500)
            z2 = RNG.uniform(-3, 3, 500) + 1j * RNG.uniform(0.05, 3, 500)
            keep = np.abs(z1 - z2) > 1e-9
            z1, z2 = z1[keep], z2[keep]
            v1, v2 = np.asarray(pair.Psi(z1)), np.asarray(pair.Psi(z2))
            quot = (v2 - v1) / (z2 - z1)
            assert np.min(quot.imag) > -1e-9


def test_criterion_9_open_question_probe(tmp_path):
    with budget(9, "fal2 verdicts for -z^rho, rho > 1/2", 120.0):
        verdicts = {}
        for rho in (0.6, 0.75, 0.9):
            out = tmp_path / f"probe-{rho}.json"
            code = cli_main(["fal2-check", "--phi", f"negPow({rho})",
                             "--out", str(out)])
            manifest = json.loads(
                (tmp_path / f"probe-{rho}.json.manifest.json").read_text())
            recorded = manifest["verdicts"]["verdict"]
            assert recorded in ("pass", "fail", "inconclusive")
            assert code in (0, 2)
            verdicts[rho] = recorded
        print(f"  open-question verdicts: {verdicts}")
