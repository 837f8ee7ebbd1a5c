import json
import math
import os
import re
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

import tangentia
from tangentia import cli
from tangentia.cli import ExperimentConfig, run
from tangentia.funcspace import GridFunction, make_gauss, parse_function_spec
from tangentia.maxop import maximal_field
from tangentia.nonsmooth import singular_scan
from tangentia.specials import ClosedSetModel, medial_scan


def read_body(path):
    """Artifact body without the leading config comment line."""
    lines = path.read_text().splitlines()
    assert lines[0].startswith("# {")
    return "\n".join(lines[1:])


# ---------------------------------------------------------------------------
# config plumbing


def test_config_json_roundtrip():
    cfg = ExperimentConfig("tau", {"seed": 3, "n_dir": 16, "point": "0,0"})
    d = json.loads(cfg.to_json())
    assert ExperimentConfig(d["command"], d["options"]) == cfg


def test_config_file_overrides_flags(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"theta": "-1"}))
    out = tmp_path / "d.json"
    rc = run(
        [
            "dirderiv",
            "--function",
            "tent",
            "--point",
            "0.5",
            "--theta",
            "1",
            "--config",
            str(cfgfile),
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["config"]["options"]["theta"] == "-1"
    assert doc["result"]["derivative"] == pytest.approx(1.0)


SCAN_KEYS = "['box', 'function', 'no_gamma', 'out', 'res', 'tol']"


@pytest.mark.parametrize(
    "entry, message",
    [
        ({"tol": "abc"}, "--config key 'tol': 'abc' is not a valid --tol"),
        ({"rez": 9}, "--config key 'rez': not one of " + SCAN_KEYS),
        ({"seed": 5}, "--config key 'seed': not one of " + SCAN_KEYS),
        ({"no-gamma": 1}, "--config key 'no-gamma': 1 is not a valid --no-gamma"),
    ],
    ids=["bad-value", "unknown-key", "dropped-seed", "bad-switch"],
)
def test_config_file_refuses_what_the_flags_refuse(entry, message, tmp_path, capsys):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps(entry))
    out = tmp_path / "s.csv"
    argv = ["singular-set", "--function", "tent", "--box=-1,1", "--res", "5",
            "--out", str(out), "--config", str(cfgfile)]
    assert run(argv) == 2
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("text", ['{"tol": 0.01,', None], ids=["malformed", "missing"])
def test_config_file_unreadable_is_a_usage_error(text, tmp_path, capsys):
    cfgfile = tmp_path / "bad.json"
    if text is not None:
        cfgfile.write_text(text)
    out = tmp_path / "g.json"
    argv = ["gamma", "--function", "abs", "--point", "0", "--config", str(cfgfile),
            "--out", str(out)]
    assert run(argv) == 2
    assert f"error: --config {cfgfile}: " in capsys.readouterr().err
    assert not out.exists()


def test_config_file_keys_are_header_options_read_by_their_flags(tmp_path):
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"of": "maximal", "lam": "0.5", "r-max": 3}))
    out = tmp_path / "d.json"
    argv = ["dirderiv", "--function", "tent", "--point", "2", "--theta", "1",
            "--config", str(cfgfile), "--out", str(out)]
    assert run(argv) == 0
    options = json.loads(out.read_text())["config"]["options"]
    assert (options["of"], options["lam"], options["r_max"]) == ("maximal", 0.5, 3.0)


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal-field", "--function", "tent", "--box=-1,1", "--out", "f.csv"],
        ["dirderiv", "--function", "tent", "--point", "2", "--theta", "1"],
        ["gamma", "--function", "abs", "--point", "0"],
        ["singular-set", "--function", "tent", "--box=-1,1", "--out", "s.csv"],
        ["medial-axis", "--set-points=-1,0;1,0", "--box=-1,1", "--out", "m.csv"],
        ["infconv", "--function", "abs", "--point", "2", "--y-box=-4,4"],
    ],
    ids=lambda argv: argv[0],
)
def test_seed_only_where_something_samples(argv, capsys):
    # tau, tangency and verify sample and take --seed; these six do not
    with pytest.raises(SystemExit) as ei:
        run(argv + ["--seed", "5"])
    assert ei.value.code == 2
    assert "unrecognized arguments: --seed 5" in capsys.readouterr().err


# ---------------------------------------------------------------------------
# exit codes


def test_usage_error_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["not-a-command"])
    assert ei.value.code == 2


def test_parse_error_exits_2(tmp_path, capsys):
    rc = run(
        [
            "dirderiv",
            "--function",
            "bogus",
            "--point",
            "0",
            "--theta",
            "1",
        ]
    )
    assert rc == 2


def test_domain_error_exits_1(tmp_path):
    # envelope formula refused at a kink with lambda = 0
    rc = run(
        [
            "dirderiv",
            "--function",
            "tent",
            "--point",
            "1",
            "--theta",
            "1",
            "--of",
            "maximal",
        ]
    )
    assert rc == 1


@pytest.mark.parametrize("of", [[], ["--of", "maximal"]])
def test_zero_direction_exits_1(of, capsys):
    rc = run(["dirderiv", "--function", "tent", "--point", "2", "--theta", "0"] + of)
    assert rc == 1
    assert "nonzero" in capsys.readouterr().err


def test_envelope_refusal_names_the_point(capsys):
    rc = run(["dirderiv", "--function", "abs", "--point", "0", "--theta", "1",
              "--of", "maximal"])
    assert rc == 1
    err = capsys.readouterr().err
    assert "needs f differentiable at [0.0]; residual" in err
    assert "np.float64" not in err


@pytest.mark.parametrize("flag", [["--lambda", "7"], ["--r-max", "0.001"]])
def test_maximal_flags_refused_with_of_function(flag, tmp_path, capsys):
    out = tmp_path / "d.json"
    argv = ["dirderiv", "--function", "tent", "--point", "0.5", "--theta", "1",
            "--out", str(out)]
    assert run(argv + flag) == 2
    err = capsys.readouterr().err
    assert f"{flag[0]} applies only with --of maximal" in err
    assert not out.exists()
    # the default value asks for nothing
    assert run(argv + ["--lambda", "0"]) == 0
    assert out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal-field", "--function", "tent", "--box=1,-1", "--out", "f.csv"],
        ["dirderiv", "--function", "tent", "--point", "0.5", "--theta", "1",
         "--of", "function", "--lambda", "7"],
    ],
)
def test_usage_error_names_no_spec_position(argv, tmp_path, monkeypatch, capsys):
    # a usage error is not a spec syntax error: there is no position to name
    monkeypatch.chdir(tmp_path)
    assert run(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ")
    assert "(at position" not in err


def test_flat_one_node_axis_in_maximal_field(tmp_path, capsys):
    # hi = lo on an axis of one node is the library's box rule: the one
    # row is the field at (1.2, 0); the command line refused it with exit 2
    out = tmp_path / "f.csv"
    argv = ["maximal-field", "--function", "gauss(0.5,2)", "--box=1.2,1.2;0,0.1",
            "--res", "1", "--out", str(out)]
    assert run(argv) == 0
    rows = read_body(out).splitlines()
    assert rows[0].startswith("x1,x2,Mf,")
    assert len(rows) == 2 and rows[1].startswith("1.2,0,")


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal-field", "--function", "gauss(0.5,2)", "--box=1.2,1.2;0,0.1", "--res", "2"],
        ["singular-set", "--function", "maxaffine[(1,0,0),(-1,0,0)]",
         "--box=0,0;-1,1", "--res", "5"],
        ["medial-axis", "--set-points=-1,0;1,0", "--box=-1,1;0.5,0.5", "--res", "5"],
    ],
    ids=["maximal-field", "singular-set", "medial-axis"],
)
def test_flat_axis_of_several_nodes_exits_2(argv, tmp_path, capsys):
    # the library's box rule, checked before any work: hi = lo is refused
    # on an axis of more than one node, and nothing is written
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", str(out)]) == 2
    err = capsys.readouterr().err
    assert "must exceed the lower" in err and "or equal it on an axis of one node" in err
    assert not out.exists()


def test_flat_axis_below_the_scan_minimum_exits_1(tmp_path, capsys):
    # one node passes the box rule, but a scan needs two per axis
    out = tmp_path / "o.csv"
    for argv in (
        ["singular-set", "--function", "maxaffine[(1,0,0),(-1,0,0)]", "--box=0,0;-1,1"],
        ["medial-axis", "--set-points=-1,0;1,0", "--box=-1,1;0.5,0.5"],
    ):
        assert run(argv + ["--res", "1", "--out", str(out)]) == 1
        assert "need at least 2 grid points per axis" in capsys.readouterr().err
        assert not out.exists()


@pytest.mark.parametrize(
    "how", [["--res", "5,1"], {"res": "5,1"}, {"res": [5, 1]}], ids=["flag", "config-text", "config-list"]
)
def test_one_node_count_per_axis_in_maximal_field(how, tmp_path):
    # a line of 5 points on the flat axis x2 = 0, as maximal_field takes
    # resolution (5, 1); the header echoes the counts as a list
    out = tmp_path / "f.csv"
    argv = ["maximal-field", "--function", "gauss(0.5,2)", "--box=-1,1;0,0", "--out", str(out)]
    if isinstance(how, dict):
        (tmp_path / "c.json").write_text(json.dumps(how))
        how = ["--config", str(tmp_path / "c.json")]
    assert run(argv + how) == 0
    header = json.loads(out.read_text().splitlines()[0][2:])
    assert header["options"]["res"] == [5, 1]
    rows = read_body(out).splitlines()
    assert len(rows) == 6 and [r.split(",")[:2] for r in rows[1:]] == [
        [x, "0"] for x in ("-1", "-0.5", "0", "0.5", "1")
    ]


@pytest.mark.parametrize(
    "how", [["--res", "5,1,1"], ["--res", "5,x"], {"res": [5, 1, 1]}, {"res": [5, True]}],
    ids=["three-counts", "not-a-count", "config-three-counts", "config-bool"],
)
def test_node_counts_for_the_wrong_axes_exit_2(how, tmp_path, capsys):
    out = tmp_path / "f.csv"
    argv = ["maximal-field", "--function", "gauss(0.5,2)", "--box=-1,1;0,0", "--out", str(out)]
    if isinstance(how, dict):
        (tmp_path / "c.json").write_text(json.dumps(how))
        how = ["--config", str(tmp_path / "c.json")]
    try:
        code = run(argv + how)
    except SystemExit as exc:  # argparse refuses the flag's text itself
        code = exc.code
    assert code == 2
    assert not out.exists()
    if how[0] == "--res" and how[1] == "5,1,1":
        assert "resolution (5, 1, 1) has 3 node counts, the box has 2 axes" in capsys.readouterr().err


def test_scans_refuse_a_one_node_axis_given_per_axis(tmp_path, capsys):
    # per-axis counts reach the scans, which still need two nodes per axis
    out = tmp_path / "o.csv"
    for argv in (
        ["singular-set", "--function", "maxaffine[(1,0,0),(-1,0,0)]", "--box=-1,1;0,0"],
        ["medial-axis", "--set-points=-1,0;1,0", "--box=-1,1;0.5,0.5"],
    ):
        assert run(argv + ["--res", "5,1", "--out", str(out)]) == 1
        assert "need at least 2 grid points per axis, got resolution (5, 1)" in capsys.readouterr().err
        assert not out.exists()


def test_infconv_takes_one_y_node_count_per_axis(capsys):
    # the grid-local minima are found on the per-axis shape, and the
    # descent from them ends where the square grid's does
    base = ["infconv", "--function", "gauss(0.5,2)", "--point", "0.3,0.2", "--y-box=-3,3"]
    results = []
    for res in ("41", "41,31"):
        assert run(base + ["--y-res", res]) == 0
        results.append(json.loads(capsys.readouterr().out))
    square, per_axis = (doc["result"] for doc in results)
    assert results[1]["config"]["options"]["y_res"] == [41, 31]
    assert per_axis["value"] == pytest.approx(square["value"], abs=1e-9)
    assert np.allclose(per_axis["minimizers"], square["minimizers"], atol=1e-4)
    assert per_axis["boundary_attained"] is False


def test_gauss_dimension_parse_error_exits_2(capsys):
    rc = run(
        ["dirderiv", "--function", "gauss(0.5,4)", "--point", "0", "--theta", "1"]
    )
    assert rc == 2
    assert "gauss dimension" in capsys.readouterr().err


@pytest.mark.parametrize("width", ["1e-160", "1e-200"])
@pytest.mark.parametrize(
    "argv",
    [
        ["dirderiv", "--point", "0", "--theta", "1", "--of", "function"],
        ["maximal-field", "--box=-1,1", "--res", "3", "--out", "f.csv"],
    ],
)
def test_gauss_width_with_infinite_inverse_square_exits_1(width, argv, tmp_path, monkeypatch, capsys):
    # 1e-160 gave NaN at 0 with exit 0 (a "derivative": NaN, a row 0,nan,0);
    # 1e-200 ended in a ZeroDivisionError traceback
    monkeypatch.chdir(tmp_path)
    assert run(argv[:1] + ["--function", f"gauss({width})"] + argv[1:]) == 1
    assert f"gauss width must be > 0 with a finite 1/s^2, got {width}" in capsys.readouterr().err
    assert not (tmp_path / "f.csv").exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--function", "abs", "--point", "nan"],
        ["gamma", "--function", "abs", "--point", "nan"],
        ["dirderiv", "--function", "dist[(-1,0),(1,0)]", "--point", "nan,0"]
        + ["--theta", "1,0"],
        ["dirderiv", "--function", "tent", "--point", "nan", "--theta", "1"],
        ["infconv", "--function", "abs", "--point", "nan", "--y-box=-4,4", "--t", "1"],
    ],
)
def test_non_finite_point_exits_1(argv, capfd):
    # capfd, not capsys: LAPACK writes its complaints to the C-level stderr
    assert run(argv) == 1
    err = capfd.readouterr().err
    assert "finite" in err
    assert "DLASCL" not in err


@pytest.mark.parametrize(
    "argv",
    [
        ["tau", "--function", "abs", "--point", "0", "--subspace", "ray=[nan]"],
        ["tau", "--function", "abs", "--point", "0", "--subspace", "V=[inf]"],
        ["tau", "--function", "maxaffine[(1,0,0),(-1,0,0)]", "--point", "0,0"]
        + ["--subspace", "V=[nan,1]"],
        ["singular-set", "--function", "abs", "--box=nan,1", "--res", "5"],
        ["singular-set", "--function", "abs", "--box=-1,1", "--res", "5"]
        + ["--tol", "nan"],
        ["gamma", "--function", "abs", "--point", "0", "--tol", "nan"],
        ["maximal-field", "--function", "tent", "--box=-1,1", "--res", "3"]
        + ["--lambda", "nan"],
        ["infconv", "--function", "abs", "--point", "2", "--y-box=-4,4", "--t", "0"],
        ["infconv", "--function", "abs", "--point", "2", "--y-box=-4,4", "--t", "-1"],
        ["maximal-field", "--function", "tent", "--box=-1,1", "--res", "3"]
        + ["--r-max", "inf"],
        ["maximal-field", "--function", "tent", "--box=-1,1", "--res", "3"]
        + ["--r-max", "nan"],
    ],
)
def test_non_finite_generator_or_box_exits_1(argv, tmp_path, capfd):
    out = tmp_path / "o.json"
    assert run(argv + ["--out", str(out)]) == 1
    err = capfd.readouterr().err
    assert "finite" in err
    assert "SVD" not in err
    assert "RuntimeWarning" not in err
    assert not out.exists()


@pytest.mark.parametrize(
    "argv",
    [
        ["maximal-field", "--function", "tent", "--box=-1,1", "--res", "0"],
        ["infconv", "--function", "abs", "--point", "2", "--y-box=-4,4", "--t", "1"]
        + ["--y-res", "1"],
        ["infconv", "--function", "abs", "--point", "2", "--y-box=-4,4", "--t", "1"]
        + ["--y-res", "0"],
    ],
)
def test_too_few_grid_points_exits_1(argv, tmp_path, capsys):
    out = tmp_path / "o.csv"
    assert run(argv + ["--out", str(out)]) == 1
    assert "grid point" in capsys.readouterr().err
    assert not out.exists()


def test_medial_axis_single_point_axis_exits_1(tmp_path):
    out = tmp_path / "m.csv"
    rc = run(
        [
            "medial-axis",
            "--set-points=-1,0;1,0",
            "--box=-0.5,0.5",
            "--res",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 1
    assert not out.exists()


@pytest.mark.parametrize("header", ["2,3", "", "1,x,0,1"])
def test_malformed_grid_file_exits_2(header, tmp_path, capsys):
    grid = tmp_path / "g.csv"
    grid.write_text(header + "\n0\n1\n0\n")
    rc = run(
        ["dirderiv", "--function", f"grid:{grid}", "--point", "0.5", "--theta", "1"]
    )
    assert rc == 2
    assert "malformed grid file" in capsys.readouterr().err


def test_missing_grid_file_exits_1(tmp_path):
    missing = tmp_path / "none.csv"
    rc = run(
        ["dirderiv", "--function", f"grid:{missing}", "--point", "0.5", "--theta", "1"]
    )
    assert rc == 1


def test_grid_function_outside_its_samples_exits_1(tmp_path, capsys):
    # the default r_max reaches far beyond the sample box [-3, 3]^2
    grid = tmp_path / "g.csv"
    GridFunction.from_function(
        make_gauss(0.5, 2), [-3.0, -3.0], [3.0, 3.0], (41, 41)
    ).to_csv(grid)
    out = tmp_path / "mf.csv"
    argv = ["maximal-field", "--function", f"grid:{grid}", "--box=-1,1",
            "--res", "3", "--out", str(out)]
    assert run(argv) == 1
    err = capsys.readouterr().err
    assert "outside the sample box [-3, 3] x [-3, 3]" in err
    assert "xi" not in err
    # refused before any evaluation, naming the flag and the largest r_max
    # that keeps the balls of the field points (-1..1)^2 inside the box
    assert "--r-max" in err and "at most 2\n" in err
    assert not out.exists()
    assert run(argv + ["--r-max", "2.01"]) == 1
    assert "r_max 2.01 takes a ball outside" in capsys.readouterr().err
    assert not out.exists()
    assert run(argv + ["--r-max", "0.9"]) == 0
    assert out.exists()
    assert run(argv + ["--r-max", "2"]) == 0


@pytest.mark.parametrize(
    "hi, argv",
    [
        # the interpolant is nan on (0.25, 0.75) already: "derivative": NaN
        (1.0, ["dirderiv", "--point", "0.4", "--theta", "1"]),
        # nan on (0.75, 1.25): the ladder read 1.0 from its small rungs, tau
        # leaked a linprog error, and the scan flagged nothing, with exit 0
        (2.0, ["dirderiv", "--point", "0.6", "--theta", "1"]),
        (2.0, ["tau", "--point", "0.6"]),
        (2.0, ["singular-set", "--box=0.4,0.6", "--res", "3"]),
    ],
)
def test_nan_grid_sample_exits_1(hi, argv, tmp_path, capsys):
    # y = x on [0, hi] with 4 hi + 1 nodes, and a nan sample at the middle one
    samples = np.linspace(0.0, hi, int(4 * hi) + 1)
    samples[len(samples) // 2] = math.nan
    grid = tmp_path / "g.csv"
    grid.write_text(f"1,{len(samples)},0.0,{hi}\n" + "".join(f"{v!r}\n" for v in samples.tolist()))
    out = tmp_path / "o.out"
    assert run(argv[:1] + ["--function", f"grid:{grid}", "--out", str(out)] + argv[1:]) == 1
    err = capsys.readouterr().err
    assert "nonfinite evaluation nan at point" in err
    assert "linprog" not in err
    assert not out.exists()


def test_json_artifacts_are_strict():
    # no command can print NaN or Infinity, which JSON does not have
    cfg = ExperimentConfig("dirderiv", {})
    for bad in (math.nan, math.inf):
        with pytest.raises(ValueError, match="JSON compliant"):
            cli._write_json(None, cfg, {"derivative": bad})


def test_dirderiv_of_maximal_on_grid_function_takes_r_max(tmp_path, capsys):
    grid = tmp_path / "g.csv"
    GridFunction.from_function(
        make_gauss(0.5, 2), [-3.0, -3.0], [3.0, 3.0], (41, 41)
    ).to_csv(grid)
    out = tmp_path / "d.json"
    argv = ["dirderiv", "--function", f"grid:{grid}", "--point", "0.5,0.5",
            "--theta", "1,0", "--of", "maximal", "--out", str(out)]
    # the default r_max leaves the sample box
    assert run(argv) == 1
    assert "--r-max" in capsys.readouterr().err
    assert run(argv + ["--r-max", "2.5"]) == 0
    derivative = json.loads(out.read_text())["result"]["derivative"]
    assert abs(derivative - (-2.0 / math.e)) < 0.01


@pytest.mark.parametrize(
    "argv, message",
    [
        (["maximal-field", "--function", "gauss(1e300)", "--box=-1,1", "--res", "3"],
         "gauss width 1e+300 is too wide"),
        (["maximal-field", "--function", "gauss(1e154)", "--box=-1,1", "--res", "3"],
         "gauss width 1e+154 is too wide"),
        (["maximal-field", "--function", "abs", "--box=1e307,1.5e307", "--res", "3"],
         "the default r_max at x=[1e+307] is infinite; give a finite r_max (--r-max"),
        (["dirderiv", "--function", "abs", "--point", "1.5e307", "--theta", "1",
          "--of", "maximal", "--lambda", "1"],
         "the default r_max at x=[1.5e+307] is infinite"),
        # the ball volume of the default r_max overflows: 8 rows with exit 0
        (["maximal-field", "--function", "gauss(1e110,3)", "--box=0,1", "--res", "2"],
         "the default r_max 2.07846e+112 at x=[0.0, 0.0, 0.0] is too large: the volume "
         "of a ball in R^3 overflows beyond a radius of about 3.501e+102; give a "
         "smaller r_max (--r-max"),
        (["maximal-field", "--function", "gauss(3e152,2)", "--box=0,1", "--res", "2",
          "--r-max", "1e154"],
         "r_max 1e+154 at x=[0.0, 0.0] is too large"),
    ],
)
def test_overflowing_default_range_exits_1_by_name(argv, message, tmp_path, monkeypatch, capfd):
    # these printed numpy's "overflow encountered in dot", then blamed an
    # r_max the user never gave
    monkeypatch.chdir(tmp_path)
    assert run(argv + ["--out", "f.csv"]) == 1
    err = capfd.readouterr().err
    assert message in err
    assert "RuntimeWarning" not in err and "r_max must be finite" not in err
    assert not (tmp_path / "f.csv").exists()


# ---------------------------------------------------------------------------
# subcommands


def test_maximal_field_of_infconv_is_quiet(tmp_path, capfd):
    # an adaptive 1D integral of this grid-searched envelope warned of
    # roundoff; the shell profile makes no such request
    out = tmp_path / "mf.csv"
    argv = ["maximal-field", "--function", "infconv(tent,0.5)", "--box=-1,1",
            "--res", "3", "--r-max", "3", "--out", str(out)]
    assert run(argv) == 0
    assert capfd.readouterr().err == ""
    assert len(read_body(out).splitlines()) == 4


def test_maximal_field_value_at_two(tmp_path):
    out = tmp_path / "mf.csv"
    rc = run(
        [
            "maximal-field",
            "--function",
            "tent",
            "--box",
            "1.5,2.5",
            "--res",
            "3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = read_body(out).splitlines()
    header = lines[0].split(",")
    row = dict(zip(header, lines[2].split(",")))  # middle row is x = 2
    assert float(row["x1"]) == 2.0
    assert float(row["Mf"]) == pytest.approx((3.0 - math.sqrt(7.0)) / 2.0, abs=1e-6)
    assert float(row["r_best_1"]) == pytest.approx(math.sqrt(7.0), abs=1e-4)


def test_determinism_byte_identical(tmp_path):
    a = tmp_path / "a.csv"
    b = tmp_path / "b.csv"
    argv = ["singular-set", "--function", "abs", "--box=-1,1", "--res", "17",
            "--no-gamma"]
    assert run(argv + ["--out", str(a)]) == 0
    assert run(argv + ["--out", str(b)]) == 0
    # the echoed-config comment line carries the output path; the body
    # itself must be byte-identical across runs
    assert read_body(a) == read_body(b)


KINK_2D = "maxaffine[(1,0,0),(-1,0,0)]"
TWO_POINTS = [[-1.0, 0.0], [1.0, 0.0]]

# command: (flags, column names as a regex, the library's row count)
CSV_RUNS = {
    "maximal-field": (
        ["--function", "tent", "--box=-1,1", "--res", "5"],
        r"x1,Mf,r_best_count(,r_best_\d+)+",  # as many r_best_j as the widest set
        lambda: len(maximal_field(parse_function_spec("tent"), ([-1.0], [1.0]), 5)[0]),
    ),
    "singular-set": (
        ["--function", KINK_2D, "--box=-1,1", "--res", "17"],
        r"x1,x2,tau,gamma,sf_flag",
        lambda: len(singular_scan(parse_function_spec(KINK_2D), ([-1.0] * 2, [1.0] * 2), 17)),
    ),
    "medial-axis": (
        ["--set-points=-1,0;1,0", "--box=-0.5,0.5", "--res", "9"],
        r"x1,x2,dist,multiplicity",
        lambda: len(medial_scan(ClosedSetModel.from_points(TWO_POINTS), ([-0.5] * 2, [0.5] * 2), 9)),
    ),
}


@pytest.mark.parametrize("command", list(CSV_RUNS))
def test_csv_artifact_is_config_then_columns_then_rows(command, tmp_path):
    flags, columns, row_count = CSV_RUNS[command]
    out = tmp_path / "a.csv"
    assert run([command, *flags, "--out", str(out)]) == 0
    lines = out.read_text().splitlines()
    assert lines[0].startswith('# {"command": "' + command + '"')
    assert re.fullmatch(columns, lines[1])
    rows = row_count()
    assert rows > 0
    assert len(lines) == 2 + rows
    assert {line.count(",") for line in lines[2:]} == {lines[1].count(",")}


@pytest.mark.parametrize("command", list(CSV_RUNS))
def test_csv_artifact_header_replays_its_body(command, tmp_path):
    # the header's options, less out, are a --config file that reruns the
    # artifact; the required flags given here are all overridden
    flags, _, _ = CSV_RUNS[command]
    first, again = tmp_path / "first.csv", tmp_path / "again.csv"
    assert run([command, *flags, "--out", str(first)]) == 0
    header = json.loads(first.read_text().splitlines()[0][2:])
    options = dict(header["options"])
    del options["out"]
    cfgfile = tmp_path / "replay.json"
    cfgfile.write_text(json.dumps(options))
    required = ["--box=0,1"] + (["--function", "abs"] if "function" in options else [])
    argv = [command, *required, "--out", str(again), "--config", str(cfgfile)]
    assert run(argv) == 0
    body = lambda path: path.read_bytes().split(b"\n", 1)[1]  # noqa: E731
    assert body(again) == body(first)


def test_tau_subcommand_subspace_syntax(tmp_path):
    out = tmp_path / "t.json"
    rc = run(
        [
            "tau",
            "--function",
            "maxaffine[(1,0,0),(-1,0,0)]",
            "--point",
            "0,0.5",
            "--subspace",
            "V=[0,1]",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["tau"] < 1e-9


def test_tau_halfspace_spec(tmp_path):
    out = tmp_path / "t.json"
    rc = run(
        [
            "tau",
            "--function",
            "abs",
            "--point",
            "0",
            "--subspace",
            "ray=[1]",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    # |x| restricted to the positive ray is linear
    assert doc["result"]["tau"] < 1e-9


def test_gamma_subcommand(tmp_path):
    out = tmp_path / "g.json"
    rc = run(
        [
            "gamma",
            "--function",
            "maxaffine[(1,0,0),(-1,0,0)]",
            "--point",
            "0,0.3",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["gamma"] == 1


def test_medial_axis_subcommand(tmp_path):
    out = tmp_path / "m.csv"
    rc = run(
        [
            "medial-axis",
            "--set-points=-1,0;1,0",
            "--box=-0.5,0.5",
            "--res",
            "9",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    lines = read_body(out).splitlines()
    assert lines[0] == "x1,x2,dist,multiplicity"


def test_medial_axis_repeated_polygon_vertex_exits_1(tmp_path):
    poly = tmp_path / "poly.json"
    poly.write_text(json.dumps([[0, 0], [1, 0], [1, 1], [0, 1], [0, 0]]))
    out = tmp_path / "m.csv"
    rc = run(
        [
            "medial-axis",
            "--set-polygon",
            str(poly),
            "--box=0,1",
            "--res",
            "5",
            "--out",
            str(out),
        ]
    )
    assert rc == 1
    assert not out.exists()


def test_infconv_subcommand(tmp_path):
    out = tmp_path / "ic.json"
    rc = run(
        [
            "infconv",
            "--function",
            "abs",
            "--point",
            "2",
            "--y-box=-4,4",
            "--t",
            "1",
            "--out",
            str(out),
        ]
    )
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["value"] == pytest.approx(1.5, abs=1e-6)


def test_tangency_subcommand(tmp_path):
    pts = tmp_path / "cloud.csv"
    t = np.linspace(-1, 1, 60)
    with open(pts, "w") as fh:
        fh.write("x1,x2\n")
        for v in t:
            fh.write(f"{v},0.0\n")
    out = tmp_path / "r.json"
    rc = run(["tangency", "--points", str(pts), "--k", "1", "--bases", "4",
              "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["reports"]
    assert all(r["verdict"] == "tangential" for r in doc["result"]["reports"])


def test_tangency_sigma_flag(tmp_path):
    pts = tmp_path / "cloud.csv"
    t = np.linspace(-1, 1, 50)
    with open(pts, "w") as fh:
        for v in t:
            fh.write(f"{v},0.0\n")
        for v in t:
            fh.write(f"{v},{v}\n")
    out = tmp_path / "r.json"
    rc = run(["tangency", "--points", str(pts), "--k", "1", "--sigma",
              "--pieces", "4", "--out", str(out)])
    assert rc == 0
    doc = json.loads(out.read_text())
    assert doc["result"]["sigma"]["pass"] is True
    assert len(doc["result"]["sigma"]["pieces"]) == 2


@pytest.mark.parametrize("sigma", [[], ["--sigma"]])
@pytest.mark.parametrize("k", ["0", "3"])
def test_tangency_k_outside_dimension_exits_1(k, sigma, tmp_path, capsys):
    # each base's fit refused k and was skipped: exit 0, "reports": []
    pts = tmp_path / "cloud.csv"
    with open(pts, "w") as fh:
        for v in np.linspace(-1, 1, 40):
            fh.write(f"{v},0.0\n")
    out = tmp_path / "r.json"
    argv = ["tangency", "--points", str(pts), "--k", k, "--out", str(out)]
    assert run(argv + sigma) == 1
    assert "k must lie in 1..2" in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize(
    "flags, message",
    [(["--bases", "0"], "--bases must be >= 1, got 0"),
     (["--bases", "-1"], "--bases must be >= 1, got -1"),
     (["--sigma", "--pieces", "0"], "pieces must be >= 1, got 0")],
    ids=["bases-0", "bases-negative", "pieces-0"],
)
def test_tangency_count_below_one_exits_1(flags, message, tmp_path, capsys):
    # on this straight line --bases 0 wrote no reports and --pieces 0
    # "pass": false, both with exit 0; --bases -1 died in numpy
    pts = tmp_path / "cloud.csv"
    np.savetxt(pts, np.stack([np.linspace(-1, 1, 60), np.zeros(60)], axis=1), delimiter=",")
    out = tmp_path / "r.json"
    argv = ["tangency", "--points", str(pts), "--k", "1", "--out", str(out)]
    assert run(argv + flags) == 1
    assert message in capsys.readouterr().err
    assert not out.exists()


@pytest.mark.parametrize("sigma", [[], ["--sigma"]])
def test_tangency_nan_cloud_exits_1(sigma, tmp_path, capsys):
    # exited 0 with "reports": [], and with --sigma with "pass": false
    t = np.linspace(-0.5, 0.5, 60)
    cloud = np.stack([t, t * t], axis=1)
    cloud[7] = [np.nan, 0.0]
    pts = tmp_path / "nancloud.csv"
    np.savetxt(pts, cloud, delimiter=",")
    out = tmp_path / "r.json"
    argv = ["tangency", "--points", str(pts), "--k", "1", "--out", str(out)]
    assert run(argv + sigma) == 1
    assert "finite coordinates" in capsys.readouterr().err
    assert not out.exists()


FIELD_ARGV = ["maximal-field", "--function", "tent", "--box", "0,1", "--res", "3"]


def test_threads_flag_is_a_usage_error(tmp_path, capsys):
    # the field points run in order: --threads and TANGENTIA_THREADS are gone
    out = tmp_path / "mf.csv"
    with pytest.raises(SystemExit) as ei:
        run(FIELD_ARGV + ["--threads", "2", "--out", str(out)])
    assert ei.value.code == 2
    assert "unrecognized arguments: --threads 2" in capsys.readouterr().err
    assert not out.exists()


def test_config_threads_key_exits_2(tmp_path, capsys):
    # the header of an earlier maximal-field artifact carried "threads": 1
    cfgfile = tmp_path / "c.json"
    cfgfile.write_text(json.dumps({"threads": 1}))
    out = tmp_path / "mf.csv"
    assert run(FIELD_ARGV + ["--config", str(cfgfile), "--out", str(out)]) == 2
    assert "--config key 'threads': not one of" in capsys.readouterr().err
    assert not out.exists()


def test_maximal_field_header_has_no_threads(tmp_path):
    out = tmp_path / "mf.csv"
    assert run(FIELD_ARGV + ["--out", str(out)]) == 0
    header = json.loads(out.read_text().splitlines()[0][2:])
    assert header["command"] == "maximal-field" and "threads" not in header["options"]


# ---------------------------------------------------------------------------
# verify suites


@pytest.mark.parametrize("suite", list(cli.SUITES))
def test_verify_suite_passes(suite, capsys):
    assert run(["verify", "--suite", suite]) == 0
    out = capsys.readouterr().out
    assert f"suite {suite}:" in out
    assert "[FAIL]" not in out
    assert out.rstrip().endswith("VERIFY PASS")


def test_verify_failing_suite_exits_1(monkeypatch, capsys):
    monkeypatch.setitem(
        cli.SUITES, "translation-lemma34", lambda seed: (False, ["[FAIL] forced"])
    )
    assert run(["verify", "--suite", "translation-lemma34"]) == 1
    out = capsys.readouterr().out
    assert "[FAIL] forced" in out
    assert out.rstrip().endswith("VERIFY FAIL")


def test_verify_unknown_suite_exits_2(capsys):
    with pytest.raises(SystemExit) as ei:
        run(["verify", "--suite", "bogus"])
    assert ei.value.code == 2


# ---------------------------------------------------------------------------
# stderr


@pytest.mark.parametrize(
    "argv",
    [
        ["dirderiv", "--function", "gauss(0.5,3)", "--point", "1e200,0,0", "--theta", "1,0,0"],
        ["tau", "--function", "gauss(0.5)", "--point", "1e200"],
        ["maximal-field", "--function", "gauss(0.5)", "--box=1e200,1e200", "--res", "1"]
        + ["--r-max", "1", "--out", "f.csv"],
    ],
    ids=["dirderiv", "tau", "maximal-field"],
)
def test_gauss_far_from_the_origin_prints_no_numpy_warning(argv, tmp_path):
    # |y|^2 overflows there: numpy warned on stderr about the matmul of the
    # scalar kernel and the square of the batch kernel, under the default
    # warning filter of a console run (this process turns them into errors)
    src = str(Path(tangentia.__file__).resolve().parents[1])
    done = subprocess.run(
        [sys.executable, "-m", "tangentia.cli", *argv],
        cwd=tmp_path,
        env=dict(os.environ, PYTHONPATH=src),
        capture_output=True,
        text=True,
        check=True,
    )
    assert done.stderr == ""
