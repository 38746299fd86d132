import csv
import json
import math
import shlex
from pathlib import Path

import pytest

from couplekit import SeqVec, Window, char_fn
from couplekit.cli import build_parser, main


def _run(argv):
    return main([str(a) for a in argv])


def _json_no_ts(path):
    with open(path) as fh:
        d = json.load(fh)
    d.pop("timestamp", None)
    return d


def test_analyze_orlicz_power(tmp_path):
    out = tmp_path / "report.json"
    rc = _run(["analyze-orlicz", "--gen", "power:p=2", "--out", out])
    assert rc == 0
    d = _json_no_ts(out)
    assert d["elasticity"]["classification"] == "elastic-consistent"
    assert all(v == 0 for v in d["elasticity"]["phi_plus"])
    # nothing in the report is random, so no seed is taken or recorded
    assert d["config"] == {"gen": "power:p=2", "C0": 4.0, "kmax": 20}


@pytest.mark.parametrize("argv", [
    ["analyze-orlicz", "--gen", "example1"],
    ["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", "f.json", "--t-grid", "log:-2:1:4"],
], ids=["analyze-orlicz", "k-profile"])
def test_deterministic_commands_take_no_seed(tmp_path, argv):
    assert _run(argv + ["--seed", 3, "--out", tmp_path / "out"]) == 1


def test_analyze_orlicz_elastic_nl(tmp_path):
    # 32,770 window end points: indices() must not build the pair table
    out = tmp_path / "report.json"
    assert _run(["analyze-orlicz", "--gen", "elastic-nl", "--out", out]) == 0
    d = _json_no_ts(out)
    assert d["elasticity"]["classification"] == "elastic-consistent"
    assert math.isfinite(d["indices"]["alpha_inf"])


def test_k_profile_oracle(tmp_path):
    fpath = tmp_path / "unit_char.json"
    fpath.write_text(json.dumps(char_fn(0, 1).to_json_dict()))
    out = tmp_path / "profile.csv"
    rc = _run(["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
               "--t-grid", "log:-2:1:4", "--out", out])
    assert rc == 0
    with open(out) as fh:
        reader = csv.DictReader(fh)
        rows = list(reader)
    assert reader.fieldnames == ["t", "K", "x_mass", "y_mass", "lower", "converged"]
    ks = [float(r["K"]) for r in rows]
    assert ks == pytest.approx([0.25, 0.5, 1.0, 1.0], rel=1e-9)
    assert all(float(r["lower"]) <= float(r["K"]) for r in rows)
    assert all(r["converged"] == "True" for r in rows)


def test_shift_test_weighted_lp(tmp_path):
    out = tmp_path / "witness.json"
    rc = _run(["shift-test", "--space", "seq:lpw:p=2", "--side", "rsp",
               "--window=-24:-1", "--budget", 1500, "--seed", 7,
               "--out", out])
    assert rc == 0
    d = _json_no_ts(out)
    assert d["c_hat"] <= 1.0 + 1e-6
    assert d["config"]["seed"] == 7
    # the constant of a weighted ell_p is 1: the search stops on that bound
    assert d["stop"] == "upper" and d["upper"] == 1.0 and d["evals"] < 1500


def test_shift_test_stops_on_target(tmp_path):
    out = tmp_path / "witness.json"
    rc = _run(["shift-test", "--space", "seq:lpw:p=2", "--side", "rsp",
               "--window=-24:-1", "--budget", 1500, "--seed", 7,
               "--target", 0.5, "--out", out])
    assert rc == 0
    d = _json_no_ts(out)
    assert d["stop"] == "target" and d["evals"] < 1500
    assert d["c_hat"] >= 0.5


@pytest.mark.parametrize("target", [1.5, None], ids=["target", "no-target"])
def test_shift_test_replays_from_its_config(tmp_path, target):
    # every option of the run is in the artifact's config, target too
    out, again = tmp_path / "a.json", tmp_path / "b.json"
    argv = ["shift-test", "--space", "seq:orlicz-modular:gen=<example1>", "--side", "rsp",
            "--window=-24:-1", "--budget", 200, "--seed", 11]
    assert _run(argv + (["--target", target] if target else []) + ["--out", out]) == 0
    d = _json_no_ts(out)
    cfg = d["config"]
    assert cfg["target"] == target
    win = cfg["window"]
    replay = ["shift-test", "--space", cfg["space"], "--side", cfg["side"],
              f"--window={win['lo']}:{win['hi']}:{win['kind']}", "--budget", cfg["budget"],
              "--seed", cfg["seed"]]
    replay += ["--target", cfg["target"]] if cfg["target"] is not None else []
    assert _run(replay + ["--out", again]) == 0
    assert _json_no_ts(again) == d


@pytest.mark.parametrize("target", ["nan", "0", "-1"])
@pytest.mark.filterwarnings("error")  # stderr holds the one JSON error object only
def test_shift_test_target_not_above_zero_is_usage_error(tmp_path, capsys, target):
    out = tmp_path / "witness.json"
    assert _run(["shift-test", "--space", "seq:orlicz-modular:gen=<example1>", "--side",
                 "rsp", "--window=-24:-1", "--budget", 50, "--target", target,
                 "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"].startswith("target must be a number > 0")
    assert not out.exists()


def _readme_cli_argv():
    """The README's CLI lines as argv lists, shift-test at budget 300."""
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Quick start (CLI)", 1)[1].split("```", 2)[1]
    argvs = [shlex.split(line)[1:] for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("couplekit ")]
    for argv in argvs:
        if argv[0] == "shift-test":
            argv[argv.index("--budget") + 1] = "300"
    return argvs


def _write_readme_inputs(where):
    """The input files the README's CLI lines name, in ``where``."""
    (where / "unit_char.json").write_text(json.dumps(char_fn(0, 1).to_json_dict()))
    win = Window("Z-", -24, -1)
    for name, entries in (("x", {-6: 1.0, -3: 2.0}), ("y", {-5: 0.25, -2: 0.5})):
        (where / f"{name}.json").write_text(
            json.dumps(SeqVec.from_entries(win, entries).to_json_dict()))


@pytest.mark.parametrize("argv", _readme_cli_argv(), ids=lambda argv: argv[0])
def test_shift_test_replay_determinism(tmp_path, monkeypatch, argv):
    # two runs of each README command: equal JSON apart from timestamp, or
    # byte-equal CSV
    argv = list(argv)
    _write_readme_inputs(tmp_path)
    monkeypatch.chdir(tmp_path)
    flag = "--dump" if argv[0] == "generate" else "--out"
    out = argv[argv.index(flag) + 1]
    runs = []
    for run in ("a", "b"):
        argv[argv.index(flag) + 1] = f"{run}-{out}"
        assert _run(argv) == 0
        runs.append(tmp_path / f"{run}-{out}")
    if out.endswith(".json"):
        assert _json_no_ts(runs[0]) == _json_no_ts(runs[1])
    else:
        assert runs[0].read_bytes() == runs[1].read_bytes()


def test_iteration_cap_is_not_converged_exit_1(tmp_path, capsys, monkeypatch):
    # a Luxemburg solve that reaches its cap fails the command: no artifact
    monkeypatch.setattr("couplekit.orlicz._MAX_ITER", 1)
    out = tmp_path / "witness.json"
    assert _run(["shift-test", "--space", "seq:orlicz-modular:gen=<example1>", "--side",
                 "rsp", "--window=-16:-1", "--budget", 20, "--out", out]) == 1
    assert json.loads(capsys.readouterr().err)["error"] == "not-converged"
    assert not out.exists()


@pytest.mark.parametrize("budget", [0, -5])
@pytest.mark.parametrize("argv", [
    ["shift-test", "--space", "seq:lpw:p=2", "--side", "rsp", "--window=-24:-1"],
], ids=["shift-test"])
def test_budget_below_one_is_usage_error(tmp_path, capsys, argv, budget):
    out = tmp_path / "out.json"
    assert _run(argv + ["--budget", budget, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"] == f"budget must be at least 1; got {budget}"
    assert not out.exists()


@pytest.mark.parametrize("argv, detail", [
    (["shift-test", "--space", "seq:lpw", "--side", "rsp", "--window=-24:-1"],
     "spec is missing the argument 'p'"),
    (["analyze-orlicz", "--gen", "power:p=1e307"],
     "power:p=1e+307: log F is not finite on [0, 64]; its profile overflows"),
    (["verdict", "--X", "orlicz:gen=<power:p=1e307>", "--Y", "linf"],
     "power:p=1e+307: log F is not finite on [0, 64]; its profile overflows"),
    (["shift-test", "--space", "seq:from:<seq:lpw:p=1>,weightbase=nan", "--side", "rsp",
      "--window=-24:-1"], "expected a number, got 'nan'"),
    *[(["shift-test", "--space", f"seq:from:<seq:lpw:p=1>,weightbase={b}", "--side", "rsp",
        "--window=-24:-1"], f"weight base {shown} gives weights b^n not all finite and > 0")
      for b, shown in (("inf", "inf"), ("1e300", "1e+300"))],
    *[(["shift-test", "--space", spec, "--side", "rsp", "--window=-4:-1"],
       "expected a number, got 'nan'")
      for spec in ("seq:lpw:p=2,weights=<nan,1,1,1>", "seq:lpw:p=2,wexp=nan")],
    (["shift-test", "--space", "seq:lpw:p=2,wexp=2000", "--side", "rsp", "--window=-4:4:Z"],
     "need one finite, strictly positive weight per index"),
    # each b^n is finite on [-64, -1], but their product underflows or overflows
    *[(["shift-test", "--space", f"seq:from:<seq:from:<{inner}>,weightbase={b}>,weightbase={b}",
        "--side", "rsp"], "need one finite, strictly positive weight per index")
      for inner in ("seq:orlicz-modular:gen=<power:p=2>", "seq:orlicz-modular:gen=<example1>",
                    "seq:lpw:p=2")
      for b in ("1e4", "1e-4")],
    # a fit needs two x points 2^-4 .. 2^-kmax
    *[(["analyze-orlicz", "--gen", "example1", "--kmax", str(kmax)],
       f"x_grid needs at least two points for the fit; got {kmax - 3}") for kmax in (3, 4)],
    *[(["analyze-orlicz", "--gen", "example1", "--C0", c],
       f"counter threshold C must be finite and exceed 1; got {c}") for c in ("nan", "inf")],
    (["shift-test", "--space", "seq:lpw:p=2", "--side", "rsp", "--window", "a:b"],
     "--window must be lo:hi or lo:hi:kind, lo and hi integers; got 'a:b'"),
    (["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", "f.json", "--t-grid", "log:x:1:4"],
     "--t-grid must be log:<a>:<b>:<n> (2^a .. 2^b, integer n); got 'log:x:1:4'"),
], ids=["lpw-without-p", "analyze-overflow", "verdict-overflow", "weightbase-nan",
        "weightbase-inf", "weightbase-huge", "weights-nan", "wexp-nan", "wexp-overflow",
        *(f"nested-{inner}weights-{flow}" for inner in ("", "modular-", "lpw-")
          for flow in ("underflow", "overflow")), "analyze-kmax-3",
        "analyze-kmax-4", "analyze-C0-nan", "analyze-C0-inf", "window-not-integer",
        "t-grid-not-a-number"])
@pytest.mark.filterwarnings("error")  # stderr holds the one JSON error object only
def test_bad_spec_is_usage_error(tmp_path, capsys, argv, detail):
    out = tmp_path / "out.json"
    assert _run(argv + ["--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["error"], err["detail"]) == ("usage", detail)
    assert not out.exists()


_K_PROFILE = ["k-profile", "--Y", "linf", "--t-grid", "log:-2:1:4", "--X"]
_SHIFT_TEST = ["shift-test", "--side", "rsp", "--window=-4:-1", "--space"]


@pytest.mark.parametrize("argv, detail", [
    ([*_K_PROFILE, "lp:p=nan"], "expected a number, got 'nan'"),
    ([*_K_PROFILE, "orlicz:gen=<power:p=nan>"], "expected a number, got 'nan'"),
    ([*_SHIFT_TEST, "seq:lpw:p=nan,wexp=0.3"], "expected a number, got 'nan'"),
    ([*_K_PROFILE, "lp:p=2,p=3"], "spec repeats the argument 'p'"),
    ([*_K_PROFILE, "orlicz:gen=<power:p=2,q=9>"], "spec has an argument it does not take: 'q'"),
    ([*_SHIFT_TEST, "seq:lpw:p=2,zz=1"], "spec has an argument it does not take: 'zz'"),
    ([*_SHIFT_TEST, "seq:linf:p=3"], "spec has an argument it does not take: 'p'"),
    ([*_SHIFT_TEST, "seq:lpw:p=0"], "weighted lp needs p >= 1"),
], ids=["lp-nan", "power-nan", "lpw-nan", "lp-repeated", "power-stray", "lpw-stray",
        "linf-stray", "lpw-zero"])
@pytest.mark.filterwarnings("error")  # p = 0 is refused before 2^(n/p) warns
def test_spec_is_read_whole_or_refused(tmp_path, capsys, argv, detail):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(char_fn(0, 1).to_json_dict()))
    out = tmp_path / "out"
    assert _run(argv + ["--f", fpath] * (argv[0] == "k-profile") + ["--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["error"], err["detail"]) == ("usage", detail)
    assert not out.exists()


@pytest.mark.parametrize("grid, detail", [
    ("log:nan:1:3", "t-grid point 2^nan is not finite and > 0"),
    ("log:1:2000:3", "t-grid point 2^2000.0 is not finite and > 0"),
    ("log:-1100:1:3", "t-grid point 2^-1100.0 is not finite and > 0"),
], ids=["nan", "overflow", "underflow"])
@pytest.mark.filterwarnings("error")  # stderr holds the one JSON error object only
def test_bad_t_grid_is_usage_error(tmp_path, capsys, grid, detail):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(char_fn(0, 1).to_json_dict()))
    out = tmp_path / "profile.csv"
    assert _run(["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
                 "--t-grid", grid, "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["error"], err["detail"]) == ("usage", detail)
    assert not out.exists()


def test_transfer_cli_majorization(tmp_path):
    win = Window("Z-", -8, -1)
    x = SeqVec.from_entries(win, {-6: 1.0, -3: 2.0})
    y = SeqVec.from_entries(win, {-5: 0.25, -2: 0.5})
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    xp.write_text(json.dumps(x.to_json_dict()))
    yp.write_text(json.dumps(y.to_json_dict()))
    out = tmp_path / "T.json"
    rc = _run(["transfer", "--E", "seq:lpw:p=1", "--F", "seq:linf",
               "--x", xp, "--y", yp, "--mode", "majorization",
               "--window=-8:-1", "--check-norms", "--out", out])
    assert rc == 0
    d = _json_no_ts(out)
    assert d["certified_bounds"]["E"] is not None
    assert d["norm_checks"]["E"]["lower"] <= d["norm_checks"]["E"]["upper"] + 1e-9
    assert all(v >= 0 for (_, _, v) in d["triplets"])
    # on a weighted ell_1 and on ell_inf the search meets the exact closed form
    for check in d["norm_checks"].values():
        assert set(check) == {"lower", "upper", "evals", "stop"}
        assert check["stop"] == "upper" and 1 <= check["evals"] < 400


@pytest.mark.filterwarnings("error")  # stderr holds the one JSON error object only
def test_k_profile_non_finite_f_is_usage_error(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    f = char_fn(0, 1).to_json_dict()
    f["values"] = [math.nan]
    fpath.write_text(json.dumps(f))
    out = tmp_path / "profile.csv"
    assert _run(["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
                 "--t-grid", "log:-2:1:4", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["error"], err["detail"]) == (
        "usage", "f has a non-finite value nan at piece [0.0, 1.0)")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["majorization", "k"])
def test_transfer_non_finite_x_is_usage_error(tmp_path, capsys, mode):
    win = Window("Z", -4, 3)
    x = SeqVec.from_entries(win, {-3: 1.0, 1: 2.0}).to_json_dict()
    x["entries"]["1"] = math.nan
    y = SeqVec.from_entries(win, {-2: 0.25}).to_json_dict()
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    xp.write_text(json.dumps(x))
    yp.write_text(json.dumps(y))
    out = tmp_path / "T.json"
    assert _run(["transfer", "--E", "seq:lpw:p=1", "--F", "seq:linf", "--x", xp,
                 "--y", yp, "--mode", mode, "--window=-4:3", "--check-norms",
                 "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["error"], err["detail"]) == ("usage", "x has a non-finite value nan at index 1")
    assert not out.exists()


@pytest.mark.parametrize("mode", ["majorization", "k"])
def test_transfer_space_window_other_than_vectors_exit_1(tmp_path, capsys, mode):
    # x and y on Z[-12, 12], the spaces on --window Z[0, 24]: same size, so
    # the weights would fall on the wrong indices
    win = Window("Z", -12, 12)
    x = SeqVec.from_entries(win, {-9: 1.0, -5: 0.7, -1: 1.3, 3: 0.4, 7: 0.9})
    y = SeqVec.from_entries(win, {k + 1: 0.3 * v for k, v in x.entries().items()})
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    xp.write_text(json.dumps(x.to_json_dict()))
    yp.write_text(json.dumps(y.to_json_dict()))
    out = tmp_path / "T.json"
    assert _run(["transfer", "--mode", mode, "--E", "seq:orlicz-modular:gen=<example1>",
                 "--F", "seq:linf", "--x", xp, "--y", yp, "--window=0:24:Z",
                 "--check-norms", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert (err["error"], err["detail"]) == (
        "usage", "window mismatch: seq:orlicz-modular:gen=<example1> is on Z[0,24], "
                 "the vectors on Z[-12,12]")
    assert not out.exists()


def test_transfer_cli_hypothesis_violation_exit_2(tmp_path, capsys):
    win = Window("Z-", -8, -1)
    x = SeqVec.from_entries(win, {-3: 1.0})
    y = SeqVec.from_entries(win, {-6: 5.0})  # mass before x: majorization fails
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    xp.write_text(json.dumps(x.to_json_dict()))
    yp.write_text(json.dumps(y.to_json_dict()))
    rc = _run(["transfer", "--E", "seq:lpw:p=1", "--F", "seq:linf",
               "--x", xp, "--y", yp, "--window=-8:-1",
               "--out", tmp_path / "T.json"])
    assert rc == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "hypothesis-violation"


def test_verdict_cli(tmp_path):
    out = tmp_path / "verdict.json"
    rc = _run(["verdict", "--X", "lp:p=2", "--Y", "linf", "--out", out])
    assert rc == 0
    d = _json_no_ts(out)
    assert d["verdict"] == "calderon"


def test_generate_cli(tmp_path):
    out = tmp_path / "grid.csv"
    rc = _run(["generate", "--gen", "pwpower:p0=2,p1=3", "--dump", out,
               "--u-lo", -4, "--u-hi", 4, "--points", 17])
    assert rc == 0
    with open(out) as fh:
        rows = list(csv.DictReader(fh))
    assert len(rows) == 17
    mid = rows[8]
    assert float(mid["log_x"]) == pytest.approx(0.0)
    assert float(mid["log_F"]) == pytest.approx(0.0)


def test_generate_saturates_only_on_overflow(tmp_path):
    out = tmp_path / "grid.csv"
    assert _run(["generate", "--gen", "power:p=2", "--dump", out, "--u-lo", -800,
                 "--u-hi", 720, "--points", 3]) == 0
    with open(out) as fh:
        rows = [{k: float(v) for k, v in row.items()} for row in csv.DictReader(fh)]
    assert rows == [{"log_x": -800.0, "log_F": -1600.0, "x": 0.0, "F": 0.0},
                    {"log_x": -40.0, "log_F": -80.0, "x": math.exp(-40.0),
                     "F": math.exp(-80.0)},
                    {"log_x": 720.0, "log_F": 1440.0, "x": math.inf, "F": math.inf}]


_RANGE = "--u-lo and --u-hi must be finite"
_PROFILE = "power:p=2: log F is not finite"  # u is finite, but log F = 2u is not


@pytest.mark.parametrize("bounds, detail", [
    (["--u-lo", "nan"], _RANGE), (["--u-hi", "inf"], _RANGE), (["--u-lo=-inf"], _RANGE),
    (["--u-lo=-1e308", "--u-hi", "1e308"], _RANGE),
    (["--u-lo", "1e308", "--u-hi", "1.7e308"], _PROFILE),
    (["--u-lo=-1e308", "--u-hi=-5e307"], _PROFILE),
], ids=["lo-nan", "hi-inf", "lo-minus-inf", "span-overflow", "profile-overflow-top",
        "profile-overflow-bottom"])
@pytest.mark.filterwarnings("error")  # stderr holds the one JSON error object only
def test_generate_non_finite_range_is_usage_error(tmp_path, capsys, bounds, detail):
    out = tmp_path / "grid.csv"
    assert _run(["generate", "--gen", "power:p=2", "--dump", out, *bounds]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"].startswith(detail)
    assert not out.exists()


@pytest.mark.filterwarnings("error")
def test_generate_refuses_a_range_past_the_sample(tmp_path, capsys):
    # convexify<minimal> is built on a sample of h over [-64, 2048]; past it
    # the end slope is extrapolated (log F = 7,868.4 at u = 4096, where
    # F <= F1(2x)/log 2 needs at least 8,190.6), so generate refuses there
    out = tmp_path / "grid.csv"
    gen = "convexify<minimal:alpha=0.05>"
    assert _run(["generate", "--gen", gen, "--dump", out, "--u-lo", 4000, "--u-hi", 4096,
                 "--points", 2]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert "[-64.0, 2048.0]" in err["detail"]
    assert not out.exists()
    assert _run(["generate", "--gen", gen, "--dump", out, "--u-lo", -65, "--u-hi", 0]) == 1
    # inside the sampled range, and on generators that are not sampled, as before
    assert _run(["generate", "--gen", gen, "--dump", out, "--u-lo", -64, "--u-hi", 2048,
                 "--points", 5]) == 0
    assert _run(["generate", "--gen", "minimal:alpha=0.05", "--dump", out, "--u-lo", 4000,
                 "--u-hi", 4096, "--points", 2]) == 0


def test_readme_cli_lines_parse():
    # the documented command lines name only flags the parser has
    text = (Path(__file__).parents[1] / "README.md").read_text()
    block = text.split("## Quick start (CLI)", 1)[1].split("```", 2)[1]
    lines = [line for line in block.replace("\\\n", " ").splitlines()
             if line.startswith("couplekit ")]
    assert len(lines) == 6
    for line in lines:
        argv = shlex.split(line)[1:]
        assert build_parser().parse_args(argv).command == argv[0]


def test_usage_error_exit_1(tmp_path, capsys):
    rc = _run(["analyze-orlicz", "--gen", "nonsense:p=2",
               "--out", tmp_path / "x.json"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"


def test_missing_spec_argument_names_key(tmp_path, capsys):
    rc = _run(["analyze-orlicz", "--gen", "brudnyi:q=3:F",
               "--out", tmp_path / "x.json"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"] == "spec is missing the argument 'p'"


def test_k_profile_rejects_empty_t_grid(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(char_fn(0, 1).to_json_dict()))
    out = tmp_path / "profile.csv"
    rc = _run(["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
               "--t-grid", "log:-2:1:0", "--out", out])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"] == "t-grid needs at least one point, got n = 0"
    assert not out.exists()


def test_k_profile_sequence_space_with_step_function_exit_1(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(char_fn(0, 0.5).to_json_dict()))
    out = tmp_path / "profile.csv"
    rc = _run(["k-profile", "--X", "lp:p=1", "--Y", "seq:linf", "--f", fpath,
               "--t-grid", "log:-2:1:4", "--out", out])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"] == "seq:linf is a sequence space; a step function needs function spaces"
    assert not out.exists()


def test_k_profile_missing_json_key_names_file(tmp_path, capsys):
    d = char_fn(0, 1).to_json_dict()
    del d["domain"]
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(d))
    rc = _run(["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
               "--t-grid", "log:-2:1:4", "--out", tmp_path / "profile.csv"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"] == f"{fpath} is missing the key 'domain'"


@pytest.mark.parametrize("which,key", [("x", "lo"), ("y", "kind")])
def test_transfer_missing_json_key_names_file(tmp_path, capsys, which, key):
    win = Window("Z-", -8, -1)
    paths = {}
    for name in ("x", "y"):
        d = SeqVec.from_entries(win, {-3: 1.0}).to_json_dict()
        if name == which:
            del d[key]
        paths[name] = tmp_path / f"{name}.json"
        paths[name].write_text(json.dumps(d))
    rc = _run(["transfer", "--E", "seq:lpw:p=1", "--F", "seq:linf",
               "--x", paths["x"], "--y", paths["y"], "--window=-8:-1",
               "--out", tmp_path / "T.json"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"] == f"{paths[which]} is missing the key {key!r}"


def test_k_profile_json_not_an_object_exit_1(tmp_path, capsys):
    fpath = tmp_path / "f.json"
    fpath.write_text("[0.0, 1.0]")
    rc = _run(["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
               "--t-grid", "log:-2:1:4", "--out", tmp_path / "profile.csv"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"] == f"{fpath} must hold a JSON object"


def test_k_profile_unknown_domain_exit_1(tmp_path, capsys):
    d = char_fn(0, 1).to_json_dict()
    d["domain"] = "circle"
    fpath = tmp_path / "f.json"
    fpath.write_text(json.dumps(d))
    rc = _run(["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
               "--t-grid", "log:-2:1:4", "--out", tmp_path / "profile.csv"])
    assert rc == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["detail"] == "unknown domain 'circle'"


@pytest.mark.parametrize("command, content", [
    ("k-profile", '{"domain": "unit", "breakpoints": null, "values": [1.0]}'),
    ("k-profile", '{"domain": "unit", "breakpoints": [0, 1], "values": ["abc"]}'),
    ("k-profile", "not json"),
    ("transfer", '{"kind": "Z-", "lo": null, "hi": -1, "entries": {}}'),
], ids=["breakpoints-null", "value-string", "not-json", "lo-null"])
def test_malformed_input_file_is_usage_error(tmp_path, capsys, command, content):
    # a field of the wrong type or text that is not JSON is refused naming the file
    fpath = tmp_path / "in.json"
    fpath.write_text(content)
    out = tmp_path / "out"
    argv = (["k-profile", "--X", "lp:p=1", "--Y", "linf", "--t-grid", "log:-2:1:4", "--f", fpath]
            if command == "k-profile" else
            ["transfer", "--E", "seq:lpw:p=1", "--F", "seq:linf", "--window=-8:-1",
             "--x", fpath, "--y", fpath])
    assert _run(argv + ["--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage"
    assert err["detail"].startswith(f"{fpath} does not hold valid input: ")
    assert not out.exists()


@pytest.mark.parametrize("error", [KeyError, ValueError])
def test_defect_is_not_reported_as_usage(tmp_path, capsys, monkeypatch, error):
    # an exception that is no refusal leaves main as a traceback, not exit 1
    def broken(*args, **kwargs):
        raise error("internal")
    monkeypatch.setattr("couplekit.verdict.classify_couple", broken)
    with pytest.raises(error, match="internal"):
        _run(["verdict", "--X", "lp:p=2", "--Y", "linf", "--out", tmp_path / "v.json"])
    assert capsys.readouterr().err == ""


def test_bad_subcommand_exit_1(capsys):
    assert _run(["no-such-command"]) == 1


@pytest.mark.parametrize("argv, detail", [
    (["shift-test", "--space", "seq:lpw:p=2", "--side", "rsp", "--budget", "abc", "--out", "o"],
     "couplekit shift-test: argument --budget: invalid int value: 'abc'"),
    (["verdict", "--X", "lp:p=2", "--Y", "linf", "--out", "o", "--colour", "red"],
     "couplekit: unrecognized arguments: --colour red"),
    (["verdict", "--X", "lp:p=2", "--out", "o"],
     "couplekit verdict: the following arguments are required: --Y"),
    (["no-such-command"], "couplekit: argument command: invalid choice: 'no-such-command'"),
], ids=["bad-type", "unknown-option", "missing-flag", "unknown-command"])
def test_command_line_error_is_one_json_object(capsys, argv, detail):
    # argparse's refusals meet the same rule as the commands' own: exit 1 and
    # one JSON object on stderr, not argparse's usage text
    assert _run(argv) == 1
    err = capsys.readouterr().err
    assert err.count("\n") == 1
    err = json.loads(err)
    assert err["error"] == "usage" and err["detail"].startswith(detail)


def test_help_exits_0(capsys):
    assert _run(["verdict", "--help"]) == 0
    assert "--seed" in capsys.readouterr().out


@pytest.mark.parametrize("argv, detail", [
    (["shift-test", "--space", "seq:lpw:p=2", "--side", "rsp", "--window=-8:-1",
      "--seed", -1, "--budget", 5, "--out", "o.json"], "seed must be >= 0; got -1"),
    (["generate", "--gen", "power:p=2", "--points", -1, "--dump", "o.csv"],
     "--points must be >= 0; got -1"),
], ids=["seed", "points"])
def test_negative_seed_or_points_is_usage_error(tmp_path, capsys, monkeypatch, argv, detail):
    monkeypatch.chdir(tmp_path)
    assert _run(argv) == 1
    assert json.loads(capsys.readouterr().err) == {"error": "usage", "detail": detail}
    assert not list(tmp_path.iterdir())


def test_transfer_on_reversed_space_names_its_error(tmp_path, capsys):
    # rev:<inner> lives on --window; K mode used to die with an IndexError
    win = Window("Z-", -24, -1)
    x = SeqVec.from_entries(win, {-20: 0.7, -13: 1.1, -9: 0.4, -2: 0.9})
    y = SeqVec.from_entries(win, {-19: 0.3, -12: 0.4, -8: 0.2, -1: 0.35})
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    xp.write_text(json.dumps(x.to_json_dict()))
    yp.write_text(json.dumps(y.to_json_dict()))
    base = ["transfer", "--E", "rev:<seq:lpw:p=1>", "--F", "seq:linf", "--x", xp,
            "--y", yp, "--window=-24:-1"]
    # rho(n) = 2^-(n+1) falls, so the couple is not exponentially separated
    assert _run(base + ["--mode", "k", "--out", tmp_path / "Tk.json"]) == 2
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "hypothesis-violation"
    assert "separated" in err["detail"]
    assert _run(base + ["--mode", "majorization", "--out", tmp_path / "Tm.json"]) == 0


@pytest.mark.parametrize("E", ["seq:induced:<lorentz:p=2,w=pow:0.3>",
                               "rev:<seq:induced:<lorentz:p=2,w=pow:0.3>>"],
                         ids=["induced", "rev-induced"])
@pytest.mark.filterwarnings("error")  # stderr holds the one JSON error object only
def test_transfer_on_a_space_without_functionals_is_usage_error(tmp_path, capsys, E):
    # the majorization transfer needs norming functionals, and an induced
    # space without a weighted-lp form has none
    win = Window("Z-", -8, -1)
    xp, yp = tmp_path / "x.json", tmp_path / "y.json"
    xp.write_text(json.dumps(SeqVec.basis(win, -6).to_json_dict()))
    yp.write_text(json.dumps(SeqVec.basis(win, -3, 0.5).to_json_dict()))
    out = tmp_path / "T.json"
    assert _run(["transfer", "--E", E, "--F", "seq:linf", "--x", xp, "--y", yp,
                 "--mode", "majorization", "--window=-8:-1", "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err == {"error": "usage", "detail": "no norming functional for InducedSeq; "
                   "supported: weighted lp and Orlicz modular, reversed or b^n-weighted"}
    assert not out.exists()


@pytest.mark.filterwarnings("error")  # stderr holds the one JSON error object only
def test_a_lorentz_weight_table_is_usage_error(tmp_path, capsys):
    # pow:<exponent> is the one weight form
    out = tmp_path / "verdict.json"
    assert _run(["verdict", "--X", "lorentz:p=2,w=table:<-1,0>:<0,1>", "--Y", "linf",
                 "--out", out]) == 1
    err = json.loads(capsys.readouterr().err.strip())
    assert err["error"] == "usage" and "pow:<exponent>" in err["detail"]
    assert not out.exists()
