import json
import math

import numpy as np
import pytest

from tangentia import cli
from tangentia.cli import ExperimentConfig, run
from tangentia.funcspace import GridFunction, make_gauss


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


def test_gauss_dimension_parse_error_exits_2(capsys):
    rc = run(
        ["dirderiv", "--function", "gauss(0.5,4)", "--point", "0", "--theta", "1"]
    )
    assert rc == 2
    assert "gauss dimension" in capsys.readouterr().err


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
    assert not out.exists()
    assert run(argv + ["--r-max", "0.9"]) == 0
    assert out.exists()


# ---------------------------------------------------------------------------
# subcommands


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


def test_thread_env_cap(monkeypatch, tmp_path):
    monkeypatch.setenv("TANGENTIA_THREADS", "1")
    out = tmp_path / "mf.csv"
    rc = run(
        [
            "maximal-field",
            "--function",
            "tent",
            "--box",
            "0,1",
            "--res",
            "3",
            "--threads",
            "8",
            "--out",
            str(out),
        ]
    )
    assert rc == 0


# ---------------------------------------------------------------------------
# verify suites


@pytest.mark.parametrize(
    "suite", ["tangential-thm26", "translation-lemma34", "distance-eq21"]
)
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
