"""The three benchmark workloads: seeded inputs, set-up, timed unit, checks.

Why these three (see BENCHMARK.json for the one-line form):

* cli-mix drives freeflow.cli.main in-process on README-style commands.  It
  is the only workload that runs the ODE layer and the per-point CLI loops
  (subordination Newton on cheap independent residuals), and it uses the
  quadrature layer in its wide-vector form (Stieltjes recovery).
* rational-flow is the slow `fal2-check --psi` path: ~18k inversions of a
  closed-form primitive by Newton seeded from the previous point, with the
  continuation cache and dogleg fallback; no quadrature at all.
* generic-psi is the slow generic `marginal --psi` path: adaptive quadrature
  nested inside a segment quadrature, inside Newton, inside grid loops.

Inputs come from a stdlib `random.Random`, so they are fixed before numpy or
freeflow is imported and the set-up timing starts from a bare interpreter.
Seeds jitter the parameters of a fixed family by a few per cent: every seed
runs the same kind of work, and nearly the same amount.  The exception is
generic-psi's set-up, whose adaptive work varies by up to a fifth between
seeds.
"""
from __future__ import annotations

import csv
import json
import math
import os
import random

NAMES = ("cli-mix", "rational-flow", "generic-psi")

SEMICIRCLE_PHI = "rational(a=0,b=0,poles=[0],residues=[1])"
EPS = 1e-3  # the library's default Stieltjes offset


def make_inputs(name: str, seed: int) -> dict:
    """Workload parameters; the same (name, seed) gives the same inputs."""
    rng = random.Random(f"{name}/{seed}")

    def jitter(base, rel):
        return base * (1.0 + rel * rng.uniform(-1.0, 1.0))

    if name == "cli-mix":
        return {
            "semigroup_t": [jitter(0.5, 0.05), jitter(1.0, 0.05),
                            jitter(2.0, 0.05)],
            "conv_c": jitter(1.0, 0.05),
            "flow_t": [jitter(0.25, 0.05), jitter(1.0, 0.05),
                       jitter(2.0, 0.05)],
            "recover": {"alpha": jitter(-0.5, 0.05),
                        "beta": jitter(0.2, 0.05),
                        "var": jitter(1.0, 0.05)},
        }
    if name == "rational-flow":
        # the z^2/2 - log z family: a < 0, one and three simple poles
        fields = []
        for centres in ((0.0,), (-1.5, 0.0, 1.5)):
            fields.append({
                "a": jitter(-1.0, 0.05),
                "b": 0.1 * rng.uniform(-1.0, 1.0),
                "poles": [c + 0.05 * rng.uniform(-1.0, 1.0) for c in centres],
                "residues": [jitter(1.0, 0.05) for _ in centres],
            })
        return {"fields": fields, "s": jitter(0.5, 0.05),
                "t": jitter(1.0, 0.05)}
    if name == "generic-psi":
        return {"alpha": jitter(-0.5, 0.02), "beta": jitter(0.2, 0.02),
                "var": jitter(1.0, 0.02), "mass": jitter(1.0, 0.02),
                "t": jitter(1.0, 0.02)}
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# set-up: what a user waits for before the first answer
# ---------------------------------------------------------------------------

def setup(name: str, inputs: dict):
    """Build the workload's fields (cli-mix builds nothing: import only)."""
    import freeflow as ff
    if name == "cli-mix":
        import freeflow.cli  # noqa: F401  what the console entry point loads
        return None
    if name == "rational-flow":
        return [ff.build_fal2(ff.RationalNevanlinna(
            f["a"], f["b"], tuple(f["poles"]), tuple(f["residues"])))
            for f in inputs["fields"]]
    if name == "generic-psi":
        nu = ff.semicircle_measure(inputs["var"]).scaled(inputs["mass"])
        return ff.build_fal2(ff.NevanlinnaSpec(inputs["alpha"],
                                               inputs["beta"], nu))
    raise ValueError(f"unknown workload {name!r}")


# ---------------------------------------------------------------------------
# timed unit: one closed-loop request
# ---------------------------------------------------------------------------

def parts(name: str, inputs: dict) -> int:
    """Distinct unit kinds; run-mode unit k does kind k % parts."""
    return len(inputs["fields"]) if name == "rational-flow" else 1


def run_unit(name: str, inputs: dict, state, workdir: str, part: int = 0):
    """One request of the workload; returns its raw outputs (read_outputs
    turns them into arrays)."""
    if name == "cli-mix":
        return _cli_unit(inputs, workdir)
    if name == "rational-flow":
        return _flow_queries(state[part], inputs["s"], inputs["t"],
                             _rational_grid())
    if name == "generic-psi":
        return _generic_unit(inputs, state)
    raise ValueError(f"unknown workload {name!r}")


def _centred_grid(half_width, n):
    # the grid scales with the law, so its edges sit at the same nodes for
    # every seed and the discretisation error varies smoothly with it
    return f"--grid=-{half_width!r}:{half_width!r}:{n}"


def _recover_spec(p) -> str:
    r = 2.0 * math.sqrt(p["var"])
    return json.dumps({"alpha": p["alpha"], "beta": p["beta"], "nu": {
        "atoms": [], "ac": [{"lo": -r, "hi": r,
                             "density": f"semicircle({p['var']!r})"}]}})


def cli_commands(inputs: dict, workdir: str) -> list[tuple[str, list[str]]]:
    """The README-style command lines of one cli-mix request."""
    def out(stem):
        return os.path.join(workdir, stem)

    cmds = []
    for k, t in enumerate(inputs["semigroup_t"]):
        cmds.append((f"semigroup{k}", [
            "semigroup", "--phi", SEMICIRCLE_PHI, "--t", repr(t),
            _centred_grid(2.2 * math.sqrt(t), 201), "--out",
            out(f"sg{k}.csv")]))
    cmds.append(("conv", [
        "conv", "--phi1", SEMICIRCLE_PHI,
        "--phi2", f"const(0,{-inputs['conv_c']!r})",
        "--grid=-5:5:201", "--out", out("conv.csv")]))
    cmds.append(("flow", [
        "flow", "--psi", "negPow(1)", "--route", "ode",
        "--t", ",".join(repr(t) for t in inputs["flow_t"]),
        "--grid=-3:3:20", "--im-grid", "0.1:3:10", "--out", out("flow.csv")]))
    p = inputs["recover"]
    cmds.append(("recover", [
        "nev-recover", "--fn", _recover_spec(p),
        _centred_grid(8.0 * math.sqrt(p["var"]), 321),
        "--out", out("recover.json")]))
    return cmds


def _cli_unit(inputs, workdir):
    """Run the commands; returns the path each one wrote."""
    from freeflow import cli
    paths = {}
    for key, argv in cli_commands(inputs, workdir):
        code = cli.main(argv)
        if code != 0:
            raise RuntimeError(f"freeflow {argv[0]} exited with {code}")
        paths[key] = argv[argv.index("--out") + 1]
    return paths


def read_outputs(name: str, raw):
    """A unit's outputs as arrays.  Runs after the unit's timer stops, so
    the benchmark's own parsing of CLI output files is not timed."""
    if name != "cli-mix":
        return raw
    return {key: _read_cli_output(key, path) for key, path in raw.items()}


def _read_cli_output(key, path):
    import numpy as np
    if key == "recover":
        with open(path, encoding="utf-8") as fh:
            head = json.load(fh)
        cols, flags = _read_csv(head["densityTable"])
        return {"alpha": head["alpha"], "beta": head["beta"],
                "mass": head["mass"], "u": np.array(cols[0]),
                "density": np.array(cols[1]), "flags": flags}
    cols, flags = _read_csv(path)
    return {"cols": np.array(cols), "flags": flags}


def _read_csv(path):
    with open(path, newline="", encoding="utf-8") as fh:
        rows = list(csv.reader(fh))[1:]
    cols = [[float(v) for v in col] for col in zip(*(r[:-1] for r in rows))]
    return cols, [r[-1] for r in rows]


def _rational_grid():
    import numpy as np
    xs = np.linspace(-3.0, 3.0, 8)
    ys = np.array([0.5, 1.0, 2.0])
    return (xs[:, None] + 1j * ys[None, :]).ravel()


def _flow_queries(field, s, t, zs, *, fal2=True, inverse=True,
                  marginal_grid=None):
    """fal2_check, F_s, F_t, F_{s+t}, F_s o F_t, F_t^-1 o F_t, marginal."""
    import numpy as np
    import freeflow as ff
    out = {}
    if fal2:
        verdict = ff.fal2_check(field)
        out["fal2"] = {"status": verdict.status, "failures": sum(
            d["inversionFailures"] for k, d in verdict.detail.items()
            if k.startswith("t="))}
    out["z"] = zs
    out["Fs"] = np.asarray(ff.flow_conformal(field, zs, s))
    out["Ft"] = np.asarray(ff.flow_conformal(field, zs, t))
    out["Fst"] = np.asarray(ff.flow_conformal(field, zs, s + t))
    out["FsFt"] = np.asarray(ff.flow_conformal(field, out["Ft"], s))
    if inverse:
        out["back"] = np.asarray(ff.flow_inverse(field, out["Ft"], t))
    grid = np.linspace(-8.0, 8.0, 321) if marginal_grid is None \
        else np.asarray(marginal_grid, dtype=float)
    law = ff.marginal_law(field, t, grid)
    out["x"] = law.grid
    out["density"] = np.asarray(law.density)
    return out


def _generic_unit(inputs, field):
    import numpy as np
    xs = np.array([-2.0, 0.0, 2.0])
    zs = (xs[:, None] + 1j * np.array([1.0, 2.0])[None, :]).ravel()
    return _flow_queries(field, 0.5 * inputs["t"], inputs["t"], zs,
                         fal2=False, inverse=False,
                         marginal_grid=[-1.0, 0.0, 0.5])


# ---------------------------------------------------------------------------
# correctness: every output against an oracle that does not use freeflow
# ---------------------------------------------------------------------------

class Tally:
    """Points attempted and failed, plus per-check errors and tolerances.

    A check passes when its largest error is within tolerance.  err_ratio
    is the largest error over its tolerance, and ratios below RESOLUTION
    read as RESOLUTION: errors at round-off level change by factors from
    seed to seed and with any reordering of floating-point work, which is
    not a change in accuracy.
    """

    RESOLUTION = 0.01

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.checks: dict[str, dict] = {}

    def points(self, values, flags=None):
        import numpy as np
        values = np.asarray(values)
        bad = ~np.isfinite(values)
        if flags is not None:
            bad = bad | (np.asarray(flags) != "")
        self.attempted += int(values.size)
        self.failed += int(np.count_nonzero(bad))

    def check(self, name, errs, tol):
        """Add the errors of some points (NaN counts as a failure)."""
        import numpy as np
        errs = np.nan_to_num(np.atleast_1d(np.asarray(errs, dtype=float)),
                             nan=np.inf)
        c = self.checks.setdefault(name, {"max": 0.0, "tol": tol})
        if errs.size:
            c["max"] = max(c["max"], float(np.max(errs)))

    @property
    def correct(self) -> bool:
        return all(c["max"] <= c["tol"] for c in self.checks.values())

    @property
    def err_ratio(self) -> float:
        return max([self.RESOLUTION] + [
            c["max"] / c["tol"] for c in self.checks.values()])


def check(name: str, inputs: dict, state, outputs: dict,
          part: int = 0) -> Tally:
    tally = Tally()
    if name == "cli-mix":
        _check_cli(inputs, outputs, tally)
    elif name == "rational-flow":
        from oracle import rational_primitive
        spec = inputs["fields"][part]

        def prim(z):
            return rational_primitive(spec["a"], spec["b"], spec["poles"],
                                      spec["residues"], z)
        _check_flow(state[part], outputs, prim, inputs["s"], inputs["t"],
                    tally, tol=1e-9, density_tol=1e-7)
    elif name == "generic-psi":
        from oracle import generic_primitive

        def prim(z):
            return generic_primitive(inputs["alpha"], inputs["beta"],
                                     inputs["var"], inputs["mass"], z)
        _check_flow(state, outputs, prim, 0.5 * inputs["t"], inputs["t"],
                    tally, tol=1e-6, density_tol=1e-6)
    return tally


def _check_cli(inputs, outputs, tally):
    import oracle
    for k, t in enumerate(inputs["semigroup_t"]):
        out = outputs[f"semigroup{k}"]
        x, dens = out["cols"]
        tally.points(dens, out["flags"])
        exact = oracle.regularized_density(
            lambda z, _t=t: oracle.semicircle_cauchy(z, _t), x, EPS)
        tally.check("semigroup.regularized", oracle.abs_errs(dens, exact),
                    1e-8)
        tally.check("semigroup.l1", oracle.l1_err(
            x, dens, oracle.semicircle_density(x, t)), 2e-3)
    out = outputs["conv"]
    x, dens = out["cols"]
    tally.points(dens, out["flags"])
    tally.check("conv.density", oracle.abs_errs(
        dens, oracle.semicircle_cauchy_density(x, inputs["conv_c"])), 1e-5)
    out = outputs["flow"]
    re_in, im_in, re_out, im_out, ts = out["cols"]
    got = re_out + 1j * im_out
    tally.points(got, out["flags"])
    tally.check("flow.power", oracle.rel_errs(
        got, oracle.power_flow(re_in + 1j * im_in, ts)), 1e-6)
    rec = outputs["recover"]
    p = inputs["recover"]
    tally.points(rec["density"], rec["flags"])
    tally.check("recover.alpha", abs(rec["alpha"] - p["alpha"]), 1e-6)
    tally.check("recover.beta", abs(rec["beta"] - p["beta"]), 1e-3)
    tally.check("recover.mass", abs(rec["mass"] - 1.0), 2e-2)
    tally.check("recover.density_l1", oracle.l1_err(
        rec["u"], rec["density"],
        oracle.semicircle_density(rec["u"], p["var"])), 2e-2)


def _check_flow(field, out, prim, s, t, tally, *, tol, density_tol):
    """Flow outputs against a primitive Psi_o written out by the oracle.

    The library's inverse Phi(w) is certified, not trusted: Psi_o(Phi(w))
    must equal w up to one additive constant per field, and Psi_o is
    univalent on C+, so a certified point is the preimage.  Then
    F_r(w) = w + Psi_o(Phi(w) + r) - Psi_o(Phi(w)) independently of the
    library's primitive and of its normalization constant.
    """
    import numpy as np
    import oracle
    if "fal2" in out:
        from freeflow import halfplane_grid
        from freeflow.levyflow import DEFAULT_T_SAMPLES
        tally.attempted += halfplane_grid().size * len(DEFAULT_T_SAMPLES)
        tally.failed += out["fal2"]["failures"]
        tally.check("fal2.verdict",
                    0.0 if out["fal2"]["status"] == "pass" else math.inf, 1.0)
    z = out["z"]
    x = out["x"]
    for key in ("Fs", "Ft", "Fst", "FsFt", "back", "density"):
        if key in out:
            tally.points(out[key])
    targets = np.concatenate([z, x + 1j * EPS, x + 0.5j * EPS])
    zeta = np.array([complex(field.pair.Phi(complex(w))) for w in targets])
    tally.check("flow.preimage", oracle.constant_offset_errs(
        prim(zeta), targets), tol)

    def flow_ref(r, zeta_w, w):
        return w + prim(zeta_w + r) - prim(zeta_w)

    zz = zeta[:z.size]
    for key, r in (("Fs", s), ("Ft", t), ("Fst", s + t)):
        tally.check("flow.closed_form", oracle.rel_errs(
            out[key], flow_ref(r, zz, z)), tol)
    tally.check("flow.semigroup", oracle.rel_errs(out["FsFt"], out["Fst"]),
                tol)
    if "back" in out:
        tally.check("flow.roundtrip", oracle.rel_errs(out["back"], z), tol)
    n = x.size
    full = flow_ref(t, zeta[z.size:z.size + n], x + 1j * EPS)
    half = flow_ref(t, zeta[z.size + n:], x + 0.5j * EPS)
    dens = -np.imag(2.0 / half - 1.0 / full) / math.pi
    tally.check("marginal.density", oracle.abs_errs(out["density"], dens),
                density_tol)
