import json
import subprocess
import sys
import tempfile
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineperc import InputError, cli, estimator, grid
from lineperc.cli import dispatch, parse_p_expression


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "lineperc", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


def test_p_expression_grammar():
    assert parse_p_expression("0.25", 10) == 0.25
    assert parse_p_expression("n^-1.5", 100) == 100.0**-1.5
    assert parse_p_expression("0.5*n^-1.5", 100) == 0.5 * 100.0**-1.5
    assert parse_p_expression("2 * n^-2", 10) == 2 * 10.0**-2
    with pytest.raises(InputError):
        parse_p_expression("spam", 10)


def test_closure_stdin_json():
    pts = "\n".join(f"{x},{y}" for x in (1, 2, 3) for y in (1, 2, 3))
    proc = run_cli(
        ["closure", "--n", "8", "--d", "2", "--r", "3", "--points", "-"], stdin=pts
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["percolates"] is True
    assert rec["rounds"] == 2
    assert rec["infected_count"] == 64
    assert len(rec["saturated_lines"]) == 16
    assert rec["schema"] == "lineperc.v1.closure"


def test_theory_json():
    proc = run_cli(["theory", "--r", "2"])
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert abs(rec["lambda"] - 0.832555) < 1e-5
    assert rec["s"] == 1
    assert rec["gamma"] == "1/1"


def test_pc_byte_determinism_across_threads():
    args = ["pc", "--n", "24", "--d", "2", "--r", "2", "--trials", "40",
            "--seed", "7"]
    outs = [run_cli(args + ["--threads", t]).stdout for t in ("1", "4", "0")]
    assert outs[0] == outs[1] == outs[2]
    again = run_cli(args + ["--threads", "1"]).stdout
    assert again == outs[0]


def test_theta_csv_and_thresholds_flag(tmp_path):
    csv_path = tmp_path / "trials.csv"
    proc = run_cli(
        ["theta", "--n", "10", "--d", "2", "--thresholds", "2,3", "--p", "0.2",
         "--trials", "25", "--seed", "3", "--threads", "1", "--csv", str(csv_path)]
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["thresholds"] == [2, 3]
    lines = csv_path.read_text().splitlines()
    assert lines[0] == "trial,percolates"
    assert len(lines) == 26
    frac = sum(int(x.split(",")[1]) for x in lines[1:]) / 25
    assert frac == rec["theta"]


def test_sweep_with_config(tmp_path):
    cfg = tmp_path / "sweep.cfg"
    csv_out = tmp_path / "pc.csv"
    fit_out = tmp_path / "fit.json"
    cfg.write_text(
        "# pc sweep\n"
        "d = 2\nr = 2\nn_list = 8,12,16\ntrials = 30\nseed = 5\n"
        f"csv = {csv_out}\njson = {fit_out}\nfit = true\n"
    )
    proc = run_cli(["sweep", "--config", str(cfg), "--threads", "1"])
    assert proc.returncode == 0, proc.stderr
    rows = csv_out.read_text().splitlines()
    assert rows[0] == "n,median_pc,ci_low,ci_high"
    assert len(rows) == 4
    fit = json.loads(fit_out.read_text())
    assert fit["predicted_slope"] == -1.5
    assert "slope" in fit and "stderr" in fit


def test_sweep_theta_rule(tmp_path):
    csv_out = tmp_path / "theta.csv"
    proc = run_cli(
        ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12,16", "--p-rule",
         "n^-1.2", "--trials", "40", "--seed", "2", "--threads", "1",
         "--csv", str(csv_out)]
    )
    assert proc.returncode == 0, proc.stderr
    rows = csv_out.read_text().splitlines()
    assert rows[0] == "n,p,theta,ci_low,ci_high"


def test_preface_stats_csv():
    proc = run_cli(
        ["preface-stats", "--n", "16", "--r", "2", "--p", "0.6*n^-1.5",
         "--trials", "200", "--seed", "1"]
    )
    assert proc.returncode == 0
    lines = proc.stdout.splitlines()
    assert lines[0] == "classification,preface,slow,count,frequency"
    total = sum(int(row.split(",")[-2]) for row in lines[1:])
    assert total == 200


def test_plane_stats_json():
    proc = run_cli(
        ["plane-stats", "--n", "16", "--r", "2", "--p", "0.2*n^-2",
         "--trials", "50", "--seed", "1"]
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert 0.0 <= rec["frac_all_k_within"] <= 1.0
    assert rec["per_k"][0]["k"] == 1


def test_minset_search_json():
    proc = run_cli(["minset", "search", "--n", "3", "--d", "2", "--r", "2"])
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["min_size"] == 4
    assert len(rec["witness"]) == 4


def test_minset_verify_json():
    proc = run_cli(
        ["minset", "verify", "--n", "5", "--d", "2", "--r", "2",
         "--samples", "20", "--seed", "3"]
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert rec["all_ok"] is True
    assert rec["construction_percolates"] is True
    assert rec["certificates_checked"] == 20


def test_exit_codes():
    assert dispatch(["theory", "--r", "1"]) == 1  # input error
    assert dispatch(["nonsense"]) == 1  # unknown subcommand -> usage error
    proc = run_cli(["theta", "--n", "8", "--d", "2", "--r", "2", "--p", "junk",
                    "--trials", "5", "--seed", "1"])
    assert proc.returncode == 1
    proc = run_cli(["closure", "--n", "3", "--d", "2", "--r", "2",
                    "--points", "-"], stdin="9,9\n")
    assert proc.returncode == 1
    proc = run_cli(["--bogus-flag"])
    assert proc.returncode == 1


def test_oversized_grid_exit_code(monkeypatch, capsys):
    # refused by GridSpec before any per-line table is built
    def no_tables(spec):
        raise AssertionError("per-line tables built for an oversized grid")

    monkeypatch.setattr(grid, "_SpecTables", no_tables)
    cases = [
        (["--n", "1000000", "--d", "3"], "lines"),
        # one line, but one saturation would touch 10^9 points
        (["--n", "1000000000", "--d", "1"], "side length"),
    ]
    for shape, reason in cases:
        argv = ["theta", *shape, "--r", "1", "--p", "0.5", "--trials", "1",
                "--seed", "1", "--threads", "1"]
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err, argv


def test_oversized_minset_verify_exit_code(monkeypatch, capsys):
    # refused before the construction check and before any sample permutes
    # the n^d sites
    def no_cascade(*args, **kwargs):
        raise AssertionError("a cascade ran on an oversized grid")

    monkeypatch.setattr(cli, "percolates", no_cascade)
    monkeypatch.setattr(cli, "certify_non_percolation", no_cascade)
    argv = ["minset", "verify", "--n", "100000", "--d", "2", "--r", "2",
            "--samples", "1"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sites" in err


def test_bad_threads_env_exit_code(monkeypatch, capsys):
    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    monkeypatch.setattr(estimator, "ProcessPoolExecutor", no_pool)
    monkeypatch.setenv("LINEPERC_THREADS", "abc")
    argv = ["pc", "--n", "16", "--d", "2", "--r", "2", "--trials", "10", "--seed", "1"]
    assert dispatch(argv) == 1
    err = capsys.readouterr().err
    assert "LINEPERC_THREADS" in err and "Traceback" not in err


def test_search_space_refusal_exit_code():
    proc = run_cli(["minset", "search", "--n", "10", "--d", "3", "--r", "4"])
    assert proc.returncode == 1
    assert "search space" in proc.stderr


def test_bad_list_values_exit_code(tmp_path, capsys):
    pts = tmp_path / "pts.txt"
    pts.write_text("1,1\n")
    cases = [
        ["pc", "--n", "16", "--d", "2", "--thresholds", "2,x", "--trials", "10",
         "--seed", "1", "--threads", "1"],
        ["theta", "--n", "16", "--d", "2", "--thresholds", ",", "--p", "0.1",
         "--trials", "10", "--seed", "1", "--threads", "1"],
        ["closure", "--n", "3", "--d", "2", "--thresholds", "2,x", "--points", str(pts)],
        ["minset", "search", "--n", "3", "--d", "2", "--thresholds", "2,2.5"],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "64,abc", "--trials", "10",
         "--seed", "1", "--threads", "1"],
        ["sweep", "--d", "2", "--thresholds", "2,x", "--n-list", "8,12,16",
         "--trials", "10", "--seed", "1", "--threads", "1"],
        ["theta", "--n", "16", "--d", "2", "--r", "2", "--p", "n^400",
         "--trials", "10", "--seed", "1", "--threads", "1"],
        ["minset", "verify", "--n", "4", "--d", "2", "--r", "2", "--seed", "-1"],
        ["minset", "verify", "--n", "4", "--d", "2", "--r", "2", "--seed", str(2**64)],
        ["minset", "verify", "--n", "4", "--d", "2", "--r", "2", "--samples", "-3"],
    ]
    for argv in cases:
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "Traceback" not in err, argv


def test_nonpositive_trials_exit_code(capsys):
    cases = [
        ["plane-stats", "--n", "8", "--r", "2", "--p", "0.1", "--trials", "0",
         "--seed", "1"],
        ["preface-stats", "--n", "8", "--r", "2", "--p", "0.1", "--trials", "-2",
         "--seed", "1"],
        ["preface-stats", "--n", "8", "--r", "2", "--p", "0.1", "--trials", "0",
         "--seed", "1"],
    ]
    for argv in cases:
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and "trials" in err, argv


@pytest.mark.parametrize(
    "line",
    ["d = x", "r = 2.0", "trials = ten", "seed = 0x10", "thresholds = 2,x",
     "n_list = 8,abc"],
)
def test_bad_config_values_exit_code(tmp_path, capsys, line):
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"d = 2\nr = 2\nn_list = 8,12,16\ntrials = 10\nseed = 1\n{line}\n")
    assert dispatch(["sweep", "--config", str(cfg), "--threads", "1"]) == 1
    key = line.split(" =")[0].replace("_", " ")
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key in err


# A valid small argv, then up to two of its flags replaced by hostile values
# (ints just outside the valid range, junk text, magnitudes no grid takes) or
# dropped.  Every valid draw finishes well within a second on one thread.
_valid_p = st.sampled_from(["0", "1", "0.3", "1e-300", "n^-1", "0.5*n^-1.5"])
_junk = st.sampled_from(["x", "", "1.5", "1e3", "2,x", ",", "0x10"])
_HOSTILE = {
    "--n": st.one_of(st.integers(-2, 0).map(str), _junk),
    "--d": st.one_of(st.sampled_from(["-1", "0", "64"]), _junk),
    "--r": st.one_of(st.sampled_from(["-1", "0", "1000"]), _junk),
    "--thresholds": st.one_of(
        st.lists(st.integers(-1, 4), max_size=4).map(lambda xs: ",".join(map(str, xs))),
        _junk,
    ),
    "--n-list": st.one_of(
        st.lists(st.integers(-2, 16), max_size=4).map(lambda xs: ",".join(map(str, xs))),
        _junk,
    ),
    "--trials": st.one_of(st.integers(-2, 9).map(str), _junk),
    "--seed": _junk,
    "--p": st.sampled_from(
        ["-0.1", "2", "nan", "inf", "-inf", "1e309", "n^400", "n^", "*n^2", "x", ""]
    ),
}
_HOSTILE["--p-rule"] = _HOSTILE["--p"]


@settings(max_examples=150, deadline=None)
@given(data=st.data())
def test_hostile_flag_values_exit_cleanly(data):
    cmd = data.draw(st.sampled_from(["pc", "theta", "sweep", "closure"]))
    d = data.draw(st.integers(1, 3))
    n = data.draw(st.integers(1, 16))
    flags = {"--d": str(d), "--r": str(data.draw(st.integers(1, 4)))}
    if data.draw(st.booleans()):
        thr = data.draw(st.lists(st.integers(1, 4), min_size=d, max_size=d))
        flags["--thresholds"] = ",".join(map(str, thr))
    if cmd == "sweep":
        ns = data.draw(st.lists(st.integers(1, 16), min_size=1, max_size=4, unique=True))
        flags["--n-list"] = ",".join(map(str, sorted(ns)))
        if data.draw(st.booleans()):
            flags["--p-rule"] = data.draw(_valid_p)
    else:
        flags["--n"] = str(n)
    if cmd != "closure":
        flags["--trials"] = str(data.draw(st.integers(10, 30)))
        flags["--seed"] = str(data.draw(st.integers(-(2**65), 2**65)))
    if cmd == "theta":
        flags["--p"] = data.draw(_valid_p)
    bad = data.draw(st.lists(st.sampled_from(sorted(flags)), max_size=2, unique=True))
    for name in bad:
        hostile = _HOSTILE[name]
        if name == "--n" and d >= 2 and "--d" not in bad:
            # too many lines at d >= 2, so refused before a site is drawn
            hostile = st.one_of(hostile, st.just(str(2**24 + 1)))
        value = data.draw(st.one_of(st.none(), hostile), label=name)
        if value is None:
            del flags[name]
        else:
            flags[name] = value
    argv = [cmd] + [x for kv in flags.items() for x in kv]
    argv += ["--fit"] if cmd == "sweep" and data.draw(st.booleans()) else []
    argv += ["--threads", "1"] if cmd != "closure" else []
    pool = estimator.ProcessPoolExecutor

    def no_pool(*args, **kwargs):
        raise AssertionError("a process pool was started")

    estimator.ProcessPoolExecutor = no_pool
    try:
        with tempfile.TemporaryDirectory() as tmp:
            if cmd == "closure":
                point = st.lists(st.integers(1, n), min_size=d, max_size=d)
                pts = data.draw(st.lists(point, max_size=2 * n))
                path = Path(tmp) / "pts.txt"
                path.write_text("".join(",".join(map(str, p)) + "\n" for p in pts))
                argv += ["--points", str(path)]
            try:
                code = dispatch(argv)
            except SystemExit as exc:  # argparse's own exit
                assert exc.code == 2, argv
                return
    finally:
        estimator.ProcessPoolExecutor = pool
    assert code in (0, 1), argv
