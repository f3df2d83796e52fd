"""Self-checks of the layer tracer.

    python3 perfbench/selfcheck.py

For each workload, at seed 1:
  1. traced outputs are bit-identical to untraced ones (same sha256 of every
     output array, unit kind by unit kind);
  2. two traced runs record exactly the same per-layer counts and the same
     number of spans per name;
  3. every layer boundary records spans (a non-zero metric) on the workloads
     LAYER_MAP names for it, and nothing on the workloads it rules out.
Exits 1 if any check fails.  Takes about three minutes on a 2-core x86 VM,
most of it in the generic-psi set-up.
"""
from __future__ import annotations

import json
import os
import shutil
import sys
import tempfile

import run
from workloads import NAMES

ALL = set(NAMES)
SEED = 1
# per-layer metric -> (workloads where it must be non-zero,
#                      workloads where it must be zero)
LAYER_MAP = {
    "quadrature.adaptive_quad.calls": ({"generic-psi", "cli-mix"},
                                       {"rational-flow"}),
    "quadrature.adaptive_quad.nodes": ({"generic-psi", "cli-mix"},
                                       {"rational-flow"}),
    "quadrature.adaptive_quad.self_s": ({"generic-psi", "cli-mix"},
                                        {"rational-flow"}),
    "quadrature.segment_quad.calls": ({"generic-psi"},
                                      {"rational-flow", "cli-mix"}),
    "measures.integrate.calls": ({"generic-psi", "cli-mix"}, set()),
    "measures.integrate.self_s": ({"generic-psi", "cli-mix"}, set()),
    "nevanlinna.evaluate.calls": ({"generic-psi", "cli-mix"}, set()),
    "nevanlinna.eval_grid.calls": ({"generic-psi", "cli-mix"}, set()),
    "nevanlinna.eval_grid.points": ({"generic-psi", "cli-mix"}, set()),
    "nevanlinna.is_nevanlinna_numeric.s": ({"generic-psi", "rational-flow"},
                                           set()),
    "conformal.normalize_for_halfplane.s": ({"generic-psi", "rational-flow"},
                                            set()),
    "levyflow.build_fal2.s": ({"generic-psi", "rational-flow"}, set()),
    "newton.solves": (ALL, set()),
    "newton.iterations": (ALL, set()),
    "newton.residual_evals": (ALL, set()),
    "newton.converged_ratio": (ALL, set()),
    "newton.self_s": (ALL, set()),
    "conformal.Phi.calls": ({"rational-flow", "generic-psi"}, {"cli-mix"}),
    "conformal.Phi.self_s": ({"rational-flow", "generic-psi"}, {"cli-mix"}),
    "conformal.Psi.points": ({"rational-flow", "generic-psi"}, {"cli-mix"}),
    "conformal.Psi.self_s": ({"rational-flow", "generic-psi"}, {"cli-mix"}),
    "cauchy.subordinate.calls": ({"cli-mix"}, set()),
    "cauchy.subordinate.self_s": ({"cli-mix"}, set()),
    # the CLI's density commands invert through subordination, not
    # stieltjes_invert; marginal_law is its caller
    "cauchy.stieltjes_invert.s": ({"rational-flow", "generic-psi"},
                                  {"cli-mix"}),
    "ode.integrations": ({"cli-mix"}, {"rational-flow", "generic-psi"}),
    "ode.rhs_evals": ({"cli-mix"}, {"rational-flow", "generic-psi"}),
    "ode.self_s": ({"cli-mix"}, {"rational-flow", "generic-psi"}),
    "levyflow.fal2_check.s": ({"rational-flow"}, set()),
    "levyflow.flow_conformal.points": ({"rational-flow", "generic-psi"},
                                       {"cli-mix"}),
    "levyflow.marginal_law.s": ({"rational-flow", "generic-psi"},
                                {"cli-mix"}),
    "cli.main.calls": ({"cli-mix"}, {"rational-flow", "generic-psi"}),
    "cli.main.self_s": ({"cli-mix"}, {"rational-flow", "generic-psi"}),
    "freeflow.import_s": (ALL, set()),
}
# failure and retry counters: reported, but zero is a valid outcome
OPTIONAL = {"quadrature.adaptive_quad.failures", "newton.divergences",
            "conformal.Phi.retries", "cauchy.subordinate.fallbacks",
            "ode.underflows"}


def _traced(workload, seed, workdir, tag):
    return run._worker(["--workload", workload, "--seed", str(seed),
                        "--mode", "trace", "--workdir", workdir,
                        "--trace-file", os.path.join(workdir, f"{tag}.gz")])


def check_workload(workload: str, seed: int, counted: set) -> list[str]:
    problems = []
    workdir = tempfile.mkdtemp(prefix="selfcheck-", dir=run.OUT)
    try:
        first = _traced(workload, seed, workdir, "a")
        second = _traced(workload, seed, workdir, "b")
        plain = run._worker(["--workload", workload, "--seed", str(seed),
                             "--mode", "run", "--seconds", "0",
                             "--workdir", workdir])
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    traced = {u["part"]: u["digest"] for u in first["units"]}
    for u in plain["units"]:
        if traced.get(u["part"]) != u["digest"]:
            problems.append(f"unit kind {u['part']}: traced outputs differ "
                            f"from untraced ones")
    for key in sorted(counted):
        if first["layers"][key] != second["layers"][key]:
            problems.append(f"{key}: {first['layers'][key]} then "
                            f"{second['layers'][key]} in two traced runs")
    if first["spans"] != second["spans"]:
        problems.append("span counts differ between two traced runs")
    for key, (nonzero, zero) in LAYER_MAP.items():
        value = first["layers"][key]
        if workload in nonzero and not value:
            problems.append(f"{key} recorded nothing")
        if workload in zero and value:
            problems.append(f"{key} = {value}, expected none")
    print(json.dumps({"workload": workload, "seed": seed,
                      "layers": first["layers"]}), flush=True)
    return problems


def main() -> int:
    with open(os.path.join(run.ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        per_layer = json.load(fh)["per_layer"]
    counted = {m["name"] for m in per_layer if m["unit"] in ("count", "ratio")}
    missing = (set(LAYER_MAP) | OPTIONAL) - {m["name"] for m in per_layer}
    failed = bool(missing)
    if missing:
        print(f"not in BENCHMARK.json: {sorted(missing)}")
    os.makedirs(run.OUT, exist_ok=True)
    for workload in NAMES:
        problems = check_workload(workload, SEED, counted)
        for p in problems:
            print(f"FAIL {workload}: {p}")
        print(f"{workload}: {'FAIL' if problems else 'ok'}", flush=True)
        failed |= bool(problems)
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
