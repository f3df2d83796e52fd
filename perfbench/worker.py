"""One benchmark process: set up a workload, then time or trace it.

    python3 perfbench/worker.py --workload NAME --seed N --mode MODE
                                [--seconds S] [--workdir DIR]
                                [--trace-file PATH]

MODE is
  run    set up, then run timed units in a closed loop for S seconds;
  trace  set up and run one unit of each kind with the layer tracer
         installed.

Each run-mode unit executes in a forked copy of the set-up process, so every
unit starts from the same post-set-up state (freeflow's seed caches and
quadrature anchors make a second pass in one process cheaper and
order-dependent).  The parent waits for each child before forking the next:
one client, closed loop.  Run-mode set-up and unit times are calibrated
seconds (calib.py); the wall times go along for the record.  The last line
of stdout is a JSON result.  The process is started by run.py with
FREEFLOW_THREADS=1 and BLAS/OpenMP threads set to 1.
"""
from __future__ import annotations

import argparse
import hashlib
import json
import os
import sys
import time
import traceback

import calib
import workloads


def _digest(obj, h=None):
    """sha256 over every output value, bit for bit."""
    h = h or hashlib.sha256()
    if isinstance(obj, dict):
        for key in sorted(obj):
            h.update(repr(key).encode())
            _digest(obj[key], h)
    elif isinstance(obj, (list, tuple)):
        for item in obj:
            _digest(item, h)
    elif hasattr(obj, "tobytes"):
        h.update(f"{obj.dtype}{obj.shape}".encode())
        h.update(obj.tobytes())
    else:
        h.update(repr(obj).encode())
    return h


def _result(part, unit_s, wall_s, outputs, tally) -> dict:
    return {"part": part, "unit_s": unit_s, "wall_s": wall_s,
            "points": tally.attempted,
            "bad_points": tally.failed, "correct": tally.correct,
            "err_ratio": tally.err_ratio, "checks": tally.checks,
            "digest": _digest(outputs).hexdigest()}


def _unit_result(name, inputs, state, workdir, part):
    with calib.Calibrated() as timer:
        raw = workloads.run_unit(name, inputs, state, workdir, part)
    outputs = workloads.read_outputs(name, raw)
    return _result(part, timer.seconds, timer.wall_s, outputs,
                   workloads.check(name, inputs, state, outputs, part))


def _env_info() -> dict:
    import numpy
    import scipy
    return {"python": sys.version.split()[0], "numpy": numpy.__version__,
            "scipy": scipy.__version__}


def _forked_unit(name, inputs, state, workdir, part):
    """Run one unit in a child process and return its result dict."""
    rfd, wfd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(rfd)
        code = 0
        try:
            payload = _unit_result(name, inputs, state, workdir, part)
        except BaseException:  # report any failure of the unit to the parent
            payload = {"error": traceback.format_exc()}
            code = 1
        with os.fdopen(wfd, "w") as fh:
            json.dump(payload, fh)
        os._exit(code)
    os.close(wfd)
    with os.fdopen(rfd) as fh:
        text = fh.read()
    _, status = os.waitpid(pid, 0)
    result = json.loads(text) if text else {"error": "unit produced no result"}
    if os.waitstatus_to_exitcode(status) != 0 and "error" not in result:
        result["error"] = f"unit exited with status {status}"
    return result


def main(argv=None) -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.NAMES)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--mode", required=True, choices=("run", "trace"))
    ap.add_argument("--seconds", type=float, default=1.0)
    ap.add_argument("--workdir", default=None)
    ap.add_argument("--trace-file", default=None)
    args = ap.parse_args(argv)
    name = args.workload
    inputs = workloads.make_inputs(name, args.seed)

    if args.mode == "trace":
        t0 = time.perf_counter()
        import freeflow
        import_s = time.perf_counter() - t0
        from tracer import Tracer
        tracer = Tracer()
        tracer.install(freeflow)
        state = workloads.setup(name, inputs)
        outputs, unit_s = [], []
        for part in range(workloads.parts(name, inputs)):
            t0 = time.perf_counter()
            outputs.append(workloads.run_unit(name, inputs, state,
                                              args.workdir, part))
            unit_s.append(time.perf_counter() - t0)
        tracer.uninstall()
        tracer.write(args.trace_file)
        outputs = [workloads.read_outputs(name, raw) for raw in outputs]
        units = [_result(k, s, s, out,
                         workloads.check(name, inputs, state, out, k))
                 for k, (s, out) in enumerate(zip(unit_s, outputs))]
        metrics = tracer.layer_metrics()
        metrics["freeflow.import_s"] = import_s
        metrics["trace.unit_s"] = sum(unit_s)
        print(json.dumps({"env": _env_info(), "units": units,
                          "layers": metrics, "spans": tracer.span_counts()}))
        return 0

    with calib.Calibrated() as timer:
        state = workloads.setup(name, inputs)
    units = []
    spent = 0.0
    n_parts = workloads.parts(name, inputs)
    # whole rounds over every part, and at least S wall seconds of units
    while not units or spent < args.seconds or len(units) % n_parts:
        result = _forked_unit(name, inputs, state, args.workdir,
                              len(units) % n_parts)
        if "error" in result:
            print(result["error"], file=sys.stderr)
            return 1
        units.append(result)
        spent += result["wall_s"]
    print(json.dumps({"env": _env_info(), "setup_s": timer.seconds,
                      "setup_wall_s": timer.wall_s, "units": units}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
