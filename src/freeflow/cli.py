"""Command-line front end.

One job per invocation; results land in --out (CSV or JSON) and every run
writes a manifest (<out>.manifest.json) recording resolved tolerances,
domain estimates and the library version.  Exit codes: 0 success, 2 for a
check command whose verdict is "fail", 1 for configuration or runtime
errors.
"""
from __future__ import annotations

import argparse
import functools
import json
import math
import sys

import numpy as np

from . import __version__
from .cauchy import (estimate_inversion_domain, free_convolve,
                     semigroup_marginal, stieltjes_invert)
from .conformal import ConformalPair, slit_image
from .errors import FreeflowError, NewtonDivergence, NotContaining
from .levyflow import (DEFAULT_T_SAMPLES, FlowField, build_fal2, fal2_check,
                       flow_conformal, flow_ode, increment_transform,
                       transition_kernel)
from .nevanlinna import (AnalyticFn, NevanlinnaSpec, RationalNevanlinna,
                         parse_named_form, recover_parameters, spec_fn,
                         to_analytic)

CHECK_FAIL = 2
ERROR = 1


# ---------------------------------------------------------------------------
# small helpers
# ---------------------------------------------------------------------------

def _parse_grid(text: str) -> np.ndarray:
    try:
        lo, hi, n = text.split(":")
        lo, hi, n = float(lo), float(hi), int(n)
    except ValueError as exc:
        raise FreeflowError(f"--grid wants lo:hi:n, got {text!r}") from exc
    if n < 2:
        raise FreeflowError("grid counts must be >= 2")
    return np.linspace(lo, hi, n)


def _parse_complex(text: str) -> complex:
    try:
        if "," in text:
            re_part, im_part = text.split(",")
            return complex(float(re_part), float(im_part))
        return complex(text.replace("i", "j"))
    except ValueError as exc:
        raise FreeflowError(f"cannot parse complex number {text!r}") from exc


def _write_csv(path: str, header: list[str], columns) -> None:
    """One row per entry of the columns: text as it is, each number .12g;
    a row holding a non-finite number writes it as nan and is flagged."""
    cols = [np.asarray(c) for c in columns]
    text = [c.dtype.kind == "U" for c in cols]
    nums = np.array([c for c, t in zip(cols, text) if not t], dtype=float)
    finite = np.isfinite(nums)
    flags = np.where(finite.all(axis=0), "", "nonfinite").tolist()
    nums = iter(np.where(finite, nums, np.nan).tolist())
    cells = [c.tolist() if t else next(nums) for c, t in zip(cols, text)]
    line = ",".join("{}" if t else "{:.12g}" for t in text) + ",{}\r\n"
    with open(path, "w", newline="", encoding="utf-8") as fh:
        fh.write(",".join(header + ["flag"]) + "\r\n")
        fh.writelines(line.format(*row) for row in zip(*cells, flags))


def _json_safe(v):
    """v with every non-finite float written as "nan", "inf" or "-inf",
    which strict JSON parsers accept."""
    if isinstance(v, dict):
        return {k: _json_safe(x) for k, x in v.items()}
    if isinstance(v, (list, tuple)):
        return [_json_safe(x) for x in v]
    if isinstance(v, float) and not math.isfinite(v):
        return "nan" if v != v else "inf" if v > 0 else "-inf"
    return v


def _write_json(path: str, payload: dict) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        json.dump(_json_safe(payload), fh, indent=2, sort_keys=True)
        fh.write("\n")


def _manifest(args, out_path: str, extra: dict) -> None:
    tolerances = {}
    if "eps" in args:
        tolerances["eps"] = args.eps
    if "tol_abs" in args:
        tolerances["absTol"] = args.tol_abs
    payload = {
        "command": args.command,
        "version": __version__,
        "tolerances": tolerances,
        "domainEstimates": extra.pop("domainEstimates", None),
    }
    payload.update(extra)
    _write_json(out_path + ".manifest.json", payload)


def _values_payload(grid, values) -> dict:
    vals = np.asarray(values, dtype=complex).ravel()
    return {"grid": [float(g) for g in np.asarray(grid).ravel()],
            "values": [[float(v.real), float(v.imag)] for v in vals]}


def _points(args):
    """(grid, height, zs): the one point --z, else --grid at --height."""
    if args.z is not None:
        z = _parse_complex(args.z)
        return [z.real], z.imag, np.array([z])
    grid = _parse_grid(args.grid)
    return grid, args.height, grid + 1j * args.height


def _generator_field(args) -> FlowField:
    if args.psi:
        return build_fal2(parse_named_form(args.psi))
    if args.phi:
        return FlowField.from_generator(parse_named_form(args.phi))
    raise FreeflowError("one of --phi or --psi is required")


# ---------------------------------------------------------------------------
# command handlers
# ---------------------------------------------------------------------------

def _cmd_nev_eval(args) -> int:
    if args.tol_abs <= 0:
        raise FreeflowError("tolerances must be positive")
    form = parse_named_form(args.spec)
    fn = spec_fn(form, abs_tol=args.tol_abs) \
        if isinstance(form, NevanlinnaSpec) else to_analytic(form)
    grid, height, zs = _points(args)
    # a pole or branch point gives inf/nan, which the JSON already reports
    with np.errstate(divide="ignore", invalid="ignore"):
        values = fn.eval_array(zs)
    payload = _values_payload(grid, values)
    payload["height"] = height
    _write_json(args.out, payload)
    _manifest(args, args.out, {})
    return 0


def _cmd_nev_recover(args) -> int:
    fn = to_analytic(parse_named_form(args.fn))
    u_grid = _parse_grid(args.grid) if args.grid else None
    rec = recover_parameters(fn, u_grid=u_grid, eps=args.eps)
    table_path = args.out + ".density.csv"
    _write_csv(table_path, ["u", "density"], [rec.grid, rec.density])
    _write_json(args.out, {
        "alpha": rec.alpha, "beta": rec.beta, "mass": rec.mass,
        "impliedMass": rec.implied_mass, "massDeficit": rec.mass_deficit,
        "flags": list(rec.flags), "densityTable": table_path,
    })
    _manifest(args, args.out, {})
    return 0


def _cmd_density(args) -> int:
    """conv and semigroup: Stieltjes inversion of the subordination G."""
    if args.command == "conv":
        phi = free_convolve(to_analytic(parse_named_form(args.phi1)),
                            to_analytic(parse_named_form(args.phi2)))
        t, extra = 1.0, {}
    else:
        phi = to_analytic(parse_named_form(args.phi))
        t, extra = args.t, {"t": args.t}

    g = AnalyticFn(lambda zetas: semigroup_marginal(phi, t, zetas))
    table = stieltjes_invert(g, _parse_grid(args.grid), args.eps)
    _write_csv(args.out, ["x", "density"], [table.grid, table.density])
    try:
        dom = estimate_inversion_domain(phi, probe="subordination")
        domain = {"gamma": dom.gamma, "lambda": dom.lam}
    except NewtonDivergence:
        domain = None
    _manifest(args, args.out, {"massDeficit": table.mass_deficit, **extra,
                               "domainEstimates": domain})
    return 0


def _cmd_conformal_image(args) -> int:
    form = parse_named_form(args.psi)
    if not isinstance(form, RationalNevanlinna):
        raise FreeflowError("conformal-image wants a rational psi")
    if form.a < 0:
        si = slit_image(form)
        slits = [(float(q), float(p)) for q, p in si.slits]
    else:
        # the slit description assumes a < 0; only the boundary trace is
        # emitted for a = 0
        slits = []
    _write_csv(args.out, ["height", "tip"], np.reshape(slits, (-1, 2)).T)
    pair = ConformalPair.from_psi(form)
    delta = 1e-4
    boundary = []
    first, last = (form.poles[0], form.poles[-1]) if form.poles else (0.0, 0.0)
    ends = [first - args.span, *form.poles, last + args.span]
    for j, (lo, hi) in enumerate(zip(ends, ends[1:])):
        xs = np.linspace(lo + 1e-3, hi - 1e-3, args.samples)
        vals = np.asarray(pair.Psi(xs + 1j * delta))
        boundary.append([np.full(xs.size, j), xs, vals.real, vals.imag])
    _write_csv(args.out + ".boundary.csv",
               ["interval", "x", "re_psi", "im_psi"], np.hstack(boundary))
    _manifest(args, args.out, {"slits": [[q, p] for q, p in slits]})
    return 0


def _cmd_flowlines(args) -> int:
    pair = ConformalPair.from_psi(parse_named_form(args.psi))
    re_grid = _parse_grid(args.grid)
    im_grid = np.linspace(max(args.im_min, 1e-3), args.im_max, len(re_grid))
    lines = [("im", y, re_grid + 1j * y) for y in
             np.linspace(args.im_min, args.im_max, args.im_lines)]
    lines += [("re", x, x + 1j * im_grid) for x in
              np.linspace(re_grid[0], re_grid[-1], args.re_lines)]
    kind, level, zs = (np.array([ln[k] for ln in lines]) for k in range(3))
    # one Psi call per line: the generic Psi refines its quadrature on the
    # error of the whole batch, so a merged call could change digits
    ws = np.array([pair.Psi(z) for z in zs]).ravel()
    zs, n = zs.ravel(), len(re_grid)
    _write_csv(args.out, ["kind", "level", "re_z", "im_z", "re_w", "im_w"],
               [kind.repeat(n), level.repeat(n), zs.real, zs.imag, ws.real,
                ws.imag])
    _manifest(args, args.out, {})
    return 0


def _cmd_fal2_build(args) -> int:
    try:
        ff = build_fal2(parse_named_form(args.psi))
    except NotContaining as exc:
        cert = exc.certificate
        payload = {"verdict": "not-containing"}
        if cert is not None:
            payload["certificate"] = _cert_dict(cert)
        _write_json(args.out, payload)
        _manifest(args, args.out, {"verdicts": payload})
        return CHECK_FAIL
    ys = [2.0 ** k for k in range(0, 21, 4)]
    probe = [[y, *_c_pair(ff.phi(1j * y))] for y in ys]
    payload = {"verdict": "built", "kind": ff.kind,
               "phiProbe": probe}
    if ff.power:
        payload["power"] = {"coeff": ff.power[0], "exponent": ff.power[1]}
    if ff.certificate is not None:
        payload["certificate"] = _cert_dict(ff.certificate)
    _write_json(args.out, payload)
    _manifest(args, args.out, {"verdicts": payload})
    return 0


def _cert_dict(cert) -> dict:
    return {"verdict": "yes" if cert.verdict else "no",
            "m2Plus": cert.m2_plus, "alpha": cert.alpha,
            "drift": cert.drift, "condition": cert.condition}


def _c_pair(z: complex) -> list[float]:
    return [float(z.real), float(z.imag)]


def _cmd_fal2_check(args) -> int:
    ff = _generator_field(args)
    t_samples = tuple(float(v) for v in args.t_samples.split(",")) \
        if args.t_samples else DEFAULT_T_SAMPLES
    verdict = fal2_check(ff, t_samples, im_tol=args.im_tol)
    payload = {"verdict": verdict.status,
               "tSamples": list(t_samples),
               "witness": None if verdict.witness is None
               else _c_pair(verdict.witness),
               "t": verdict.t,
               "detail": verdict.detail}
    _write_json(args.out, payload)
    _manifest(args, args.out, {"verdicts": payload})
    return CHECK_FAIL if verdict.failed else 0


def _cmd_flow(args) -> int:
    ff = _generator_field(args)
    re_grid = _parse_grid(args.grid)
    im_grid = _parse_grid(args.im_grid)
    ts = [float(v) for v in args.t.split(",")]
    grid = (re_grid[:, None] + 1j * im_grid[None, :]).ravel()
    # the rows run over the grid once per t
    zs, t_col = np.tile(grid, len(ts)), np.repeat(ts, grid.size)
    if args.route == "ode":
        vals = flow_ode(ff, zs, t_col)
    else:
        vals = np.concatenate([np.asarray(flow_conformal(ff, grid, t))
                               for t in ts])
    _write_csv(args.out, ["re_in", "im_in", "re_out", "im_out", "t"],
               [zs.real, zs.imag, vals.real, vals.imag, t_col])
    _manifest(args, args.out, {"route": args.route, "t": ts})
    return 0


def _cmd_kernel(args) -> int:
    """kernel; marginal is the kernel from x = 0, with no x recorded."""
    ff = _generator_field(args)
    grid = _parse_grid(args.grid)
    ks = transition_kernel(ff, args.t, args.x, grid, eps=args.eps)
    _write_csv(args.out, ["u", "density"], [ks.grid, ks.density])
    extra = {"massDeficit": ks.mass_deficit, "t": args.t}
    if args.command == "kernel":
        extra["x"] = args.x
    _manifest(args, args.out, extra)
    return 0


def _cmd_increment(args) -> int:
    ff = _generator_field(args)
    grid, _, zs = _points(args)
    vals = np.asarray(increment_transform(ff, args.s, args.t, zs))
    payload = _values_payload(grid, vals)
    payload.update({"s": args.s, "t": args.t})
    _write_json(args.out, payload)
    _manifest(args, args.out, {})
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------

@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on first use and shared after."""
    parser = argparse.ArgumentParser(
        prog="freeflow",
        description="free additive convolution and free Levy flow engine")
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, default_out, *, eps=False, field=False):
        if field:
            p.add_argument("--phi", help="the generator phi")
            p.add_argument("--psi", help="psi of the field psi o Phi")
        if eps:
            p.add_argument("--eps", type=float, default=1e-3,
                           help="Stieltjes boundary offset")
        p.add_argument("--out", default=default_out)

    p = sub.add_parser("nev-eval", help="evaluate a Nevanlinna description")
    p.add_argument("--spec", required=True)
    p.add_argument("--z")
    p.add_argument("--grid", default="-5:5:41")
    p.add_argument("--height", type=float, default=1.0)
    p.add_argument("--tol-abs", type=float, default=1e-10)
    common(p, "nev-eval.json")
    p.set_defaults(handler=_cmd_nev_eval)

    p = sub.add_parser("nev-recover", help="recover (alpha, beta, nu)")
    p.add_argument("--fn", required=True)
    p.add_argument("--grid")
    common(p, "nev-recover.json", eps=True)
    p.set_defaults(handler=_cmd_nev_recover)

    p = sub.add_parser("conv", help="free additive convolution density")
    p.add_argument("--phi1", required=True)
    p.add_argument("--phi2", required=True)
    p.add_argument("--grid", default="-5:5:201")
    common(p, "conv.csv", eps=True)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("semigroup", help="marginal density of t*phi")
    p.add_argument("--phi", required=True)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--grid", default="-5:5:201")
    common(p, "semigroup.csv", eps=True)
    p.set_defaults(handler=_cmd_density)

    p = sub.add_parser("conformal-image", help="slit image of a rational psi")
    p.add_argument("--psi", required=True)
    p.add_argument("--span", type=float, default=6.0)
    p.add_argument("--samples", type=int, default=200)
    common(p, "conformal-image.csv")
    p.set_defaults(handler=_cmd_conformal_image)

    p = sub.add_parser("flowlines", help="images of Im/Re gridlines under Psi")
    p.add_argument("--psi", required=True)
    p.add_argument("--im-lines", type=int, default=8)
    p.add_argument("--re-lines", type=int, default=8)
    p.add_argument("--im-min", type=float, default=0.05)
    p.add_argument("--im-max", type=float, default=3.0)
    p.add_argument("--grid", default="-4:4:200")
    common(p, "flowlines.csv")
    p.set_defaults(handler=_cmd_flowlines)

    p = sub.add_parser("fal2-build", help="build a flow from psi")
    p.add_argument("--psi", required=True)
    common(p, "fal2-build.json")
    p.set_defaults(handler=_cmd_fal2_build)

    p = sub.add_parser("fal2-check", help="falsify the FAL2 property")
    p.add_argument("--t-samples")
    p.add_argument("--im-tol", type=float, default=1e-8)
    common(p, "fal2-check.json", field=True)
    p.set_defaults(handler=_cmd_fal2_check)

    p = sub.add_parser("flow", help="flow snapshots on a grid")
    p.add_argument("--t", default="1.0", help="comma-separated times")
    p.add_argument("--grid", default="-3:3:20")
    p.add_argument("--im-grid", default="0.1:3:20")
    p.add_argument("--route", choices=("conformal", "ode"),
                   default="conformal")
    common(p, "flow.csv", field=True)
    p.set_defaults(handler=_cmd_flow)

    p = sub.add_parser("kernel", help="transition kernel density")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--x", type=float, default=0.0)
    p.add_argument("--grid", default="-8:8:321")
    common(p, "kernel.csv", eps=True, field=True)
    p.set_defaults(handler=_cmd_kernel)

    p = sub.add_parser("marginal", help="marginal law density")
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--grid", default="-8:8:321")
    common(p, "marginal.csv", eps=True, field=True)
    p.set_defaults(handler=_cmd_kernel, x=0.0)

    p = sub.add_parser("increment", help="Voiculescu transform of increments")
    p.add_argument("--s", type=float, default=0.0)
    p.add_argument("--t", type=float, default=1.0)
    p.add_argument("--z")
    p.add_argument("--grid", default="-3:3:13")
    p.add_argument("--height", type=float, default=2.0)
    common(p, "increment.json", field=True)
    p.set_defaults(handler=_cmd_increment)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        # argparse uses 2 for usage errors; 2 is reserved for check failures
        return 0 if exc.code in (0, None) else ERROR
    try:
        if "eps" in args and args.eps <= 0:
            raise FreeflowError("tolerances must be positive")
        return args.handler(args)
    except (FreeflowError, ValueError, OSError) as exc:
        print(f"freeflow: error: {exc}", file=sys.stderr)
        return ERROR


def console_entry() -> None:
    sys.exit(main())


if __name__ == "__main__":
    console_entry()
