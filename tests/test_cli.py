import csv
import json
import math
import shlex
import warnings
from pathlib import Path

import numpy as np
import pytest

from freeflow import cli, levyflow
from freeflow.cli import main
from freeflow.nevanlinna import parse_named_form

RATIONAL_LOG = "rational(a=-1,b=0,poles=[0],residues=[1])"
SEMICIRCLE_PHI = "rational(a=0,b=0,poles=[0],residues=[1])"


def read_json(path):
    return json.loads(path.read_text())


def read_csv(path):
    with open(path, newline="") as fh:
        return list(csv.DictReader(fh))


def test_fal2_check_pass_exit_zero(tmp_path):
    out = tmp_path / "check.json"
    code = main(["fal2-check", "--phi", "negPow(0.3333333333333333)",
                 "--out", str(out)])
    assert code == 0
    assert read_json(out)["verdict"] == "pass"


def test_fal2_check_fail_exit_two_with_witness(tmp_path):
    out = tmp_path / "check.json"
    code = main(["fal2-check", "--phi", "pow(-0.5)", "--out", str(out)])
    assert code == 2
    payload = read_json(out)
    assert payload["verdict"] == "fail"
    assert payload["witness"] is not None
    assert payload["t"] in payload["tSamples"]


def test_fal2_check_writes_manifest(tmp_path):
    out = tmp_path / "check.json"
    main(["fal2-check", "--phi", "negPow(0.6)", "--out", str(out)])
    manifest = read_json(tmp_path / "check.json.manifest.json")
    assert manifest["command"] == "fal2-check"
    assert manifest["verdicts"]["verdict"] in ("pass", "fail", "inconclusive")
    assert "eps" not in manifest["tolerances"]


def test_flowlines_slit_geometry(tmp_path):
    out = tmp_path / "fl.csv"
    code = main(["flowlines", "--psi", RATIONAL_LOG, "--im-lines", "8",
                 "--re-lines", "8", "--out", str(out)])
    assert code == 0
    rows = read_csv(out)
    assert all(r["flag"] == "" for r in rows)
    # the lowest Im-line hugs the slits at heights 0 and -pi whose tips sit
    # at 1/2: wherever its image is close to a slit height, Re stays right
    # of the tip
    lowest = min(float(r["level"]) for r in rows if r["kind"] == "im")
    line = [r for r in rows if r["kind"] == "im"
            and float(r["level"]) == lowest]
    near_slit = [float(r["re_w"]) for r in line
                 if min(abs(float(r["im_w"])), abs(float(r["im_w"]) + math.pi))
                 < 0.02]
    assert near_slit
    assert min(near_slit) == pytest.approx(0.5, abs=0.05)


def test_conformal_image_slits(tmp_path):
    out = tmp_path / "ci.csv"
    assert main(["conformal-image", "--psi", RATIONAL_LOG,
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    heights = sorted(float(r["height"]) for r in rows)
    tips = [float(r["tip"]) for r in rows]
    assert heights == pytest.approx([-math.pi, 0.0], abs=1e-10)
    assert tips == pytest.approx([0.5, 0.5], abs=1e-8)
    boundary = read_csv(tmp_path / "ci.csv.boundary.csv")
    assert len(boundary) == 400


def test_conformal_image_zero_leading_coefficient_traces_boundary(tmp_path):
    # a = 0 has no slit description; only the boundary trace is emitted
    out = tmp_path / "strip.csv"
    assert main(["conformal-image", "--psi", SEMICIRCLE_PHI,
                 "--out", str(out)]) == 0
    assert read_csv(out) == []
    boundary = read_csv(tmp_path / "strip.csv.boundary.csv")
    assert boundary
    # Psi = -log z maps the boundary to the strip edges Im in {0, -pi}
    # (points right next to the pole at 0 see the finite trace offset)
    ims = np.array([float(r["im_psi"]) for r in boundary
                    if abs(float(r["x"])) > 0.1])
    assert np.all((np.abs(ims) < 0.05) | (np.abs(ims + math.pi) < 0.05))


def test_semigroup_semicircle_density(tmp_path):
    out = tmp_path / "sg.csv"
    assert main(["semigroup", "--phi", SEMICIRCLE_PHI, "--t", "1.0",
                 "--grid=-2.2:2.2:45", "--out", str(out)]) == 0
    rows = read_csv(out)
    mid = rows[22]
    assert float(mid["x"]) == pytest.approx(0.0)
    assert float(mid["density"]) == pytest.approx(1 / math.pi, abs=1e-3)


@pytest.mark.parametrize("argv", [
    ["semigroup", "--phi", SEMICIRCLE_PHI, "--t", "1",
     "--grid=-2.2:2.2:201"],
    ["conv", "--phi1", SEMICIRCLE_PHI, "--phi2", "const(0,-1)",
     "--grid=-5:5:201"],
], ids=["semigroup", "conv"])
def test_density_manifest_domain_estimates(tmp_path, argv):
    # the values the manifests carried before the CLI probe moved into
    # cauchy.estimate_inversion_domain
    out = tmp_path / "d.csv"
    assert main(argv + ["--out", str(out)]) == 0
    manifest = read_json(tmp_path / "d.csv.manifest.json")
    assert manifest["domainEstimates"] == {"gamma": 1.0, "lambda": 1.0}


def test_marginal_and_kernel_const(tmp_path):
    marg = tmp_path / "mg.csv"
    assert main(["marginal", "--phi", "const(0,-1)", "--t", "1",
                 "--grid=-4:4:81", "--out", str(marg)]) == 0
    rows = read_csv(marg)
    centre = rows[40]
    assert float(centre["density"]) == pytest.approx(1 / math.pi, abs=1e-4)
    manifest = read_json(tmp_path / "mg.csv.manifest.json")
    assert manifest["tolerances"]["eps"] == 1e-3
    kern = tmp_path / "kr.csv"
    assert main(["kernel", "--phi", "const(0,-1)", "--t", "0.5", "--x", "1.0",
                 "--grid=-3:5:81", "--out", str(kern)]) == 0
    rows = read_csv(kern)
    at_x = rows[40]
    assert float(at_x["u"]) == pytest.approx(1.0)
    assert float(at_x["density"]) == pytest.approx(1 / (math.pi * 0.5),
                                                   abs=1e-4)


def test_marginal_is_the_kernel_from_zero(tmp_path):
    args = ["--phi", "const(0,-1)", "--t", "0.7", "--grid=-4:4:41"]
    marg, kern = tmp_path / "m.csv", tmp_path / "k.csv"
    assert main(["marginal", *args, "--out", str(marg)]) == 0
    assert main(["kernel", *args, "--x", "0", "--out", str(kern)]) == 0
    assert marg.read_bytes() == kern.read_bytes()
    m = read_json(tmp_path / "m.csv.manifest.json")
    k = read_json(tmp_path / "k.csv.manifest.json")
    assert "x" not in m
    assert k.pop("x") == 0.0
    assert (m.pop("command"), k.pop("command")) == ("marginal", "kernel")
    assert m == k


@pytest.mark.parametrize("route", ["conformal", "ode"])
def test_flow_snapshots(tmp_path, route):
    out = tmp_path / "f.csv"
    assert main(["flow", "--psi", "negPow(1)", "--t", "0.25,1",
                 "--grid=-2:2:5", "--im-grid", "0.2:2:5", "--route", route,
                 "--out", str(out)]) == 0
    rows = read_csv(out)
    assert len(rows) == 50
    for r in rows:
        z = complex(float(r["re_in"]), float(r["im_in"]))
        t = float(r["t"])
        expect = z + t * np.sqrt(2 * z) + t * t / 2
        assert complex(float(r["re_out"]), float(r["im_out"])) == \
            pytest.approx(expect, abs=1e-8)


def test_flow_ode_work_budget(tmp_path, monkeypatch):
    # the benchmark's `flow --route ode` command: one integration over every
    # (point, t) pair of the 20 x 10 grid and the three times, so the
    # generator sees a few hundred array calls, not one per t per stage
    integrations, evals = [0], [0]
    real_integrate = levyflow.integrate_halfplane
    real_field = cli._generator_field

    def counting_integrate(*args):
        integrations[0] += 1
        return real_integrate(*args)

    def counting_field(args):
        ff = real_field(args)
        real_eval = ff.phi.eval_array

        def counting_eval(zs):
            evals[0] += 1
            return real_eval(zs)
        ff.phi.eval_array = counting_eval
        return ff

    monkeypatch.setattr(levyflow, "integrate_halfplane", counting_integrate)
    monkeypatch.setattr(cli, "_generator_field", counting_field)
    out = tmp_path / "flow.csv"
    assert main(["flow", "--psi", "negPow(1)", "--route", "ode",
                 "--t", "0.25,1.0,2.0", "--grid=-3:3:20",
                 "--im-grid", "0.1:3:10", "--out", str(out)]) == 0
    assert len(read_csv(out)) == 600
    assert integrations[0] == 1
    assert 0 < evals[0] < 300


def old_write_csv(path, header, rows):
    """The row-at-a-time writer that the column writer replaced, kept as
    the byte reference."""
    with open(path, "w", newline="", encoding="utf-8") as fh:
        writer = csv.writer(fh)
        writer.writerow(header + ["flag"])
        for row in rows:
            flag = "" if all(math.isfinite(v) for v in row) else "nonfinite"
            writer.writerow([f"{v:.12g}" if math.isfinite(v) else "nan"
                             for v in row] + [flag])


def test_column_writer_matches_the_row_writer_byte_for_byte(tmp_path):
    rows = [(0, 1.5, -2), (math.nan, 1.0, 2.0), (math.inf, -0.0, 3),
            (1.0, -math.inf, 4), (-0.0, 1e-300, 1e300),
            (123456789012345, 1 / 3, -7), (2.5e-7, -1e17, 0.1)]
    header = ["a", "b", "c"]
    for table in (rows, []):
        ref, got = tmp_path / "ref.csv", tmp_path / "got.csv"
        old_write_csv(ref, header, table)
        cli._write_csv(str(got), header, np.transpose(table))
        assert got.read_bytes() == ref.read_bytes()


def test_flow_ode_matches_one_call_per_t(tmp_path):
    ts = [0.25, 1.0, 2.0]
    out = tmp_path / "flow.csv"
    assert main(["flow", "--psi", "negPow(1)", "--route", "ode",
                 "--t", "0.25,1,2", "--grid=-3:3:20", "--im-grid", "0.1:3:10",
                 "--out", str(out)]) == 0
    ff = levyflow.build_fal2(parse_named_form("negPow(1)"))
    zs = (np.linspace(-3, 3, 20)[:, None]
          + 1j * np.linspace(0.1, 3, 10)[None, :]).ravel()
    rows = []
    for t in ts:
        vals = levyflow.flow_ode(ff, zs, t)
        rows += [(z.real, z.imag, w.real, w.imag, t) for z, w in zip(zs, vals)]
    ref = tmp_path / "ref.csv"
    old_write_csv(ref, ["re_in", "im_in", "re_out", "im_out", "t"], rows)
    assert out.read_bytes() == ref.read_bytes()


def test_one_parser_keeps_no_state_between_calls(tmp_path):
    flow = ["flow", "--psi", "negPow(1)", "--t", "0.5,1", "--grid=-2:2:5",
            "--im-grid", "0.2:2:5"]
    a, b = tmp_path / "a.csv", tmp_path / "b.csv"
    assert main(flow + ["--out", str(a)]) == 0
    assert main(["semigroup", "--phi", SEMICIRCLE_PHI, "--t", "2",
                 "--grid=-3:3:31", "--out", str(tmp_path / "sg.csv")]) == 0
    assert main(flow + ["--out", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.csv.manifest.json").read_bytes() == \
        (tmp_path / "b.csv.manifest.json").read_bytes()
    assert main(flow + ["--no-such-flag", "--out", str(b)]) == 1
    assert cli.build_parser() is cli.build_parser()


def test_increment_json(tmp_path):
    out = tmp_path / "inc.json"
    assert main(["increment", "--phi", "const(0,-1)", "--s", "0.5",
                 "--t", "1.5", "--z", "0,2", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["values"][0] == pytest.approx([0.0, -1.0])


def test_nev_eval_and_recover(tmp_path):
    out = tmp_path / "ne.json"
    assert main(["nev-eval", "--spec", SEMICIRCLE_PHI, "--z", "0,1",
                 "--out", str(out)]) == 0
    assert read_json(out)["values"][0] == pytest.approx([0.0, -1.0])
    rec = tmp_path / "nr.json"
    assert main(["nev-recover", "--fn", "const(0,-1)",
                 "--out", str(rec)]) == 0
    payload = read_json(rec)
    assert payload["alpha"] == pytest.approx(0.0, abs=1e-6)
    assert payload["mass"] == pytest.approx(1.0, abs=1e-2)
    dens = read_csv(tmp_path / "nr.json.density.csv")
    assert len(dens) > 500


def test_nev_recover_slowly_vanishing_power(tmp_path):
    # -sqrt(z): f(iv)/(iv) decays like v^(-1/2), too slowly for the ladder
    out = tmp_path / "nr.json"
    assert main(["nev-recover", "--fn", "negPow(0.5)", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["alpha"] == 0.0
    assert payload["beta"] == pytest.approx(-math.cos(math.pi / 4), abs=1e-4)


def test_conv_density(tmp_path):
    out = tmp_path / "cv.csv"
    assert main(["conv", "--phi1", SEMICIRCLE_PHI, "--phi2", SEMICIRCLE_PHI,
                 "--grid=-3:3:61", "--out", str(out)]) == 0
    rows = read_csv(out)
    centre = rows[30]
    assert float(centre["density"]) == pytest.approx(
        1.0 / (math.pi * math.sqrt(2)), abs=1e-3)


def test_conv_semicircle_cauchy_near_origin_is_finite(tmp_path):
    # direct Newton stalls at |x| <= 0.3 for this pair
    out = tmp_path / "cv.csv"
    assert main(["conv", "--phi1", SEMICIRCLE_PHI, "--phi2", "const(0,-1)",
                 "--grid=-5:5:201", "--out", str(out)]) == 0
    assert all(r["flag"] == "" for r in read_csv(out))


def test_fal2_build_reports_power(tmp_path):
    out = tmp_path / "fb.json"
    assert main(["fal2-build", "--psi", "negPow(0.5)", "--out", str(out)]) == 0
    payload = read_json(out)
    assert payload["verdict"] == "built"
    assert payload["power"]["exponent"] == pytest.approx(1 / 3)


def test_fal2_build_not_containing_exits_two(tmp_path):
    out = tmp_path / "fb.json"
    code = main(["fal2-build", "--psi", SEMICIRCLE_PHI, "--out", str(out)])
    assert code == 2
    payload = read_json(out)
    assert payload["verdict"] == "not-containing"
    assert payload["certificate"]["drift"] == pytest.approx(0.0, abs=1e-9)


def test_usage_errors_exit_one(tmp_path, capsys):
    assert main(["fal2-check"]) == 1
    assert main(["marginal", "--phi", "const(0,-1)", "--grid", "oops",
                 "--out", str(tmp_path / "x.csv")]) == 1
    assert main(["nonsense-command"]) == 1
    assert main(["marginal", "--phi", "const(0,-1)", "--eps", "-1",
                 "--out", str(tmp_path / "y.csv")]) == 1
    # malformed specs: a missing key, a list for a number, a list for nu
    capsys.readouterr()
    for spec in ('{"alpha": -1}',
                 '{"alpha": -1, "beta": 0, "nu": {"ac": [{"lo": 0}]}}',
                 '{"alpha": -1, "beta": 0, "nu": []}',
                 'rational(a=[1])'):
        assert main(["nev-eval", "--spec", spec,
                     "--out", str(tmp_path / "e.json")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("freeflow: error:")
    # an unknown key, a misspelt one above all, is named, never dropped
    for key, spec in (
            ("pole", 'rational(a=-1,b=2,pole=[0])'),
            ("residue", '{"a": -1, "poles": [0], "residues": [1], '
                        '"residue": [5]}'),
            ("gamma", '{"alpha": -1, "beta": 0, "nu": {}, "gamma": 1}'),
            ("atom", '{"alpha": -1, "beta": 0, "nu": {"atom": []}}'),
            ("m", '{"alpha": -1, "beta": 0, "nu": {"atoms": '
                  '[{"u": 0, "mass": 1, "m": 2}]}}'),
            ("tail", '{"alpha": -1, "beta": 0, "nu": {"ac": [{"lo": -2, '
                     '"hi": 2, "density": "semicircle", "tail": 2}]}}')):
        assert main(["marginal", "--psi", spec,
                     "--out", str(tmp_path / "m.csv")]) == 1
        err = capsys.readouterr().err.splitlines()
        assert len(err) == 1 and err[0].startswith("freeflow: error:")
        assert f"unknown key {key!r}" in err[0]


def test_determinism_byte_identical(tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    for out in (a, b):
        main(["fal2-check", "--phi", "negPow(0.75)", "--out", str(out)])
    assert a.read_bytes() == b.read_bytes()
    assert (tmp_path / "a.json.manifest.json").read_bytes() == \
        (tmp_path / "b.json.manifest.json").read_bytes()


def test_csv_cells_finite_or_flagged(tmp_path):
    out = tmp_path / "mg.csv"
    main(["marginal", "--phi", "const(0,-1)", "--t", "1", "--grid=-4:4:41",
          "--out", str(out)])
    for row in read_csv(out):
        if row["flag"] == "":
            assert math.isfinite(float(row["u"]))
            assert math.isfinite(float(row["density"]))


def test_json_outputs_have_no_non_finite_tokens(tmp_path):
    # psi = -z + 1/z at its pole gives an infinite and a NaN part
    out = tmp_path / "e.json"
    assert main(["nev-eval", "--spec", RATIONAL_LOG, "--z", "0,0",
                 "--out", str(out)]) == 0

    def strict(path):
        def reject(token):
            raise ValueError(f"non-standard JSON token {token}")
        return json.loads(path.read_text(), parse_constant=reject)
    assert strict(out)["values"] == [["inf", "nan"]]
    assert strict(tmp_path / "e.json.manifest.json")["command"] == "nev-eval"


def test_nev_eval_at_a_pole_prints_no_warning(tmp_path, capsys):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        assert main(["nev-eval", "--spec", RATIONAL_LOG, "--z", "0,0",
                     "--out", str(tmp_path / "e.json")]) == 0
    assert [str(w.message) for w in caught] == []
    assert capsys.readouterr().err == ""


def test_readme_commands_run(tmp_path):
    readme = (Path(__file__).parents[1] / "README.md").read_text()
    block = readme.split("## Command line", 1)[1]
    block = block.split("```sh", 1)[1].split("```", 1)[0]
    cmds = [shlex.split(line)[1:] for line in block.splitlines()
            if line.startswith("freeflow ")]
    assert len(cmds) == 8
    for k, argv in enumerate(cmds):
        at = argv.index("--out") + 1
        argv[at] = str(tmp_path / f"{k}-{argv[at]}")
        # the README's pow(-0.5) line is the failing check
        expected = 2 if "pow(-0.5)" in argv else 0
        assert main(argv) == expected, argv
