"""freeflow benchmark: one workload, one seed, one closed-loop client.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the root of a source checkout; freeflow is imported from ./src.
Every process it starts gets FREEFLOW_THREADS=1 and one BLAS/OpenMP thread.

--trace 0 measures the end-to-end metrics of BENCHMARK.json:
  setup_s       median over the run's fresh worker processes of
                `import freeflow` plus building the workload's fields;
  points_per_s  finite, oracle-checked output points per second of the timed
                units (each worker runs units back to back for its share of
                S seconds);
  (both in calibrated seconds: wall time corrected by a reference loop
  timed while the code runs, see calib.py; wall times are in the record)
  ok_frac       share of attempted output points that came back finite;
  err_ratio     largest oracle error over its tolerance, floored at 0.01
                (must stay <= 1);
  peak_rss_mb   peak resident memory of any process of the run.
--trace 1 runs one set-up and one unit with the layer tracer installed and
prints the per-layer metrics of BENCHMARK.json.

The last line of stdout is {"correct", "attempted", "failed", "metrics"}:
units run, and units with an output that failed its oracle check.  The line
before it records the code and machine the numbers came from.  If any unit
failed, `correct` is false, no metric is reported and the exit code is 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import tempfile

from workloads import NAMES

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
HERE = os.path.join(ROOT, "perfbench")
OUT = os.path.join(HERE, "out")
# Fresh worker processes per run.  Each one sets up once and then runs units
# for its share of --seconds, so setup_s is a median over several set-ups.
# generic-psi's set-up takes about 20 s; two keep a run near a minute.
WORKERS = {"cli-mix": 4, "rational-flow": 3, "generic-psi": 2}
WORKER_TIMEOUT_S = 170


class BenchError(Exception):
    pass


def _env() -> dict:
    env = dict(os.environ)
    env.update({
        "PYTHONPATH": os.path.join(ROOT, "src"),
        "PYTHONHASHSEED": "0",
        "FREEFLOW_THREADS": "1",
        "OMP_NUM_THREADS": "1",
        "OPENBLAS_NUM_THREADS": "1",
        "MKL_NUM_THREADS": "1",
    })
    return env


def _worker(args: list[str]) -> dict:
    """Run worker.py to completion in its own process group."""
    cmd = [sys.executable, os.path.join(HERE, "worker.py"), *args]
    proc = subprocess.Popen(cmd, cwd=ROOT, env=_env(), text=True,
                            stdout=subprocess.PIPE, stderr=subprocess.PIPE,
                            start_new_session=True)
    try:
        out, err = proc.communicate(timeout=WORKER_TIMEOUT_S)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"worker timed out: {' '.join(args)}")
    finally:
        # forked units share the group; none may outlive the worker
        try:
            os.killpg(proc.pid, signal.SIGKILL)
        except ProcessLookupError:
            pass
    if proc.returncode != 0:
        raise BenchError(f"worker failed ({proc.returncode}): "
                         f"{' '.join(args)}\n{err.strip()}")
    return json.loads(out.strip().splitlines()[-1])


def _provenance() -> dict:
    try:
        top, sha = subprocess.run(
            ["git", "rev-parse", "--show-toplevel", "HEAD"], cwd=ROOT,
            text=True, capture_output=True, timeout=10).stdout.split() or ("", "")
    except (OSError, subprocess.SubprocessError, ValueError):
        top, sha = "", ""
    if os.path.realpath(top) != os.path.realpath(ROOT):
        sha = ""  # an exported tree, or a directory inside another repository
    h = hashlib.sha256()
    src = os.path.join(ROOT, "src")
    for base, dirs, files in os.walk(src):
        dirs[:] = sorted(d for d in dirs if d != "__pycache__")
        for f in sorted(files):
            path = os.path.join(base, f)
            h.update(os.path.relpath(path, src).encode())
            with open(path, "rb") as fh:
                h.update(fh.read())
    return {"git_sha": sha or None, "src_sha256": h.hexdigest(),
            "nproc": os.cpu_count()}


def _metric_specs(trace: bool) -> list[dict]:
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    return spec["per_layer" if trace else "end_to_end"]


def measure(workload: str, seed: int, seconds: float, trace: bool):
    common = ["--workload", workload, "--seed", str(seed)]
    os.makedirs(OUT, exist_ok=True)
    workdir = tempfile.mkdtemp(prefix=f"{workload}-{seed}-", dir=OUT)
    try:
        if trace:
            res = _worker([*common, "--mode", "trace", "--workdir", workdir,
                           "--trace-file", os.path.join(
                               OUT, f"trace-{workload}-{seed}.json.gz")])
            values = dict(res["layers"])
            setups = setup_walls = []
            units = res["units"]
        else:
            n = WORKERS[workload]
            runs = [_worker([*common, "--mode", "run", "--seconds",
                             str(seconds / n), "--workdir", workdir])
                    for _ in range(n)]
            res = runs[0]
            setups = [r["setup_s"] for r in runs]
            setup_walls = [r["setup_wall_s"] for r in runs]
            units = [u for r in runs for u in r["units"]]
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    good = sum(u["points"] - u["bad_points"] for u in units)
    points = sum(u["points"] for u in units)
    failed = sum(not u["correct"] for u in units)
    if not trace:
        values = {
            "setup_s": statistics.median(setups),
            "points_per_s": _throughput(units),
            "ok_frac": good / points,
            "err_ratio": max(u["err_ratio"] for u in units),
            "peak_rss_mb":
                resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss / 1024,
        }
    info = {"workload": workload, "seed": seed, "trace": trace,
            **_provenance(), **res["env"],
            "setup_samples_s": setups,
            "setup_wall_s": setup_walls,
            "unit_s": [u["unit_s"] for u in units],
            "unit_wall_s": [u["wall_s"] for u in units],
            "digests": sorted({u["digest"] for u in units}),
            "checks": {u["part"]: u["checks"] for u in units}}
    return len(units), failed, info, values


def _throughput(units) -> float:
    """Good points of one round over every unit kind, divided by the sum of
    each kind's median unit time."""
    by_part: dict[int, list] = {}
    for u in units:
        by_part.setdefault(u["part"], []).append(u)
    good = sum(us[0]["points"] - us[0]["bad_points"] for us in by_part.values())
    return good / sum(statistics.median(u["unit_s"] for u in us)
                      for us in by_part.values())


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if not os.path.isfile(os.path.join(ROOT, "src", "freeflow", "__init__.py")):
        print("perfbench: no freeflow sources under ./src", file=sys.stderr)
        return 2
    try:
        n_units, failed, info, values = measure(
            args.workload, args.seed, args.seconds, bool(args.trace))
    except BenchError as exc:
        print(f"perfbench: {exc}", file=sys.stderr)
        return 1
    metrics = {}
    if not failed:
        for spec in _metric_specs(bool(args.trace)):
            metrics[spec["name"]] = {"value": values[spec["name"]],
                                     "unit": spec["unit"]}
    print(json.dumps(info))
    print(json.dumps({"correct": not failed, "attempted": n_units,
                      "failed": failed, "metrics": metrics}))
    return 1 if failed else 0


if __name__ == "__main__":
    sys.exit(main())
