import hashlib
import json
import multiprocessing
import os
import subprocess
import sys
import tempfile
import tracemalloc
from collections import Counter
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from lineperc import GridSpec, InputError, cli, estimator, grid
from lineperc.cli import dispatch, parse_p_expression
from lineperc.engine import _closed
from lineperc.processes import (
    LineCountClass,
    classify_line_count,
    is_slow,
    preface_of,
    preface_text,
    run_alternating_2d,
)
from lineperc.sampling import TrialSeed, sample_codes


def run_cli(args, stdin=""):
    proc = subprocess.run(
        [sys.executable, "-m", "lineperc", *args],
        input=stdin,
        capture_output=True,
        text=True,
    )
    return proc


def stdout_digest(stdout: str) -> str:
    """sha256 of a command's stdout without its ``"build"`` line."""
    kept = [ln for ln in stdout.splitlines(keepends=True) if '"build"' not in ln]
    return hashlib.sha256("".join(kept).encode()).hexdigest()


def test_p_expression_grammar():
    assert parse_p_expression("0.25", 10) == 0.25
    assert parse_p_expression("n^-1.5", 100) == 100.0**-1.5
    assert parse_p_expression("0.5*n^-1.5", 100) == 0.5 * 100.0**-1.5
    assert parse_p_expression("2 * n^-2", 10) == 2 * 10.0**-2
    # a zero density that parses as -0.0 is 0.0
    for zero in ("-0.0", "-0*n^-1"):
        assert str(parse_p_expression(zero, 10)) == "0.0"
    with pytest.raises(InputError):
        parse_p_expression("spam", 10)


def test_zero_density_prints_as_zero(tmp_path, capsys):
    argv = ["--n", "8", "--trials", "5", "--seed", "1", "--threads", "1"]
    assert dispatch(["theta", "--d", "2", "--r", "2", "--p=-0.0", *argv]) == 0
    out = capsys.readouterr().out
    assert '"p": 0.0,' in out and "-0.0" not in out
    csv_out = tmp_path / "theta.csv"
    assert dispatch(["sweep", "--d", "2", "--r", "2", "--n-list", "8,12",
                     "--p-rule=-0*n^-1", *argv[2:], "--csv", str(csv_out)]) == 0
    rows = csv_out.read_text().splitlines()
    assert [row.split(",")[1] for row in rows[1:]] == ["0.0", "0.0"]


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


@pytest.mark.parametrize("r, p", [(2, 16**-1.5), (3, 16 ** (-4 / 3))])
def test_preface_trial_matches_stopped_alternating_run(r, p):
    # a closed set skips the run: its line-count h = (0,) classifies as none
    spec = GridSpec.uniform(16, 2, r)
    kinds = Counter()
    for i in range(200):
        seed = TrialSeed(5, i)
        codes = sample_codes(spec, p, seed)
        _, lc = run_alternating_2d(spec, codes, stop_rule=True)
        cls = classify_line_count(lc, r)
        want = (cls.value, "", "")
        if cls is not LineCountClass.NO_PERCOLATION:
            pref = preface_of(lc, r)
            want = (cls.value, preface_text(pref), str(int(is_slow(pref, 1))))
        assert cli._preface_trial(spec, seed, p, 1) == want
        kinds[_closed(spec, codes), cls.value] += 1
    assert min(kinds[True, "none"], kinds[False, "none"]) > 0, kinds
    assert kinds[False, "horizontal"] + kinds[False, "vertical"] > 0, kinds


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
    # pinned bytes of stdout, without the build line
    assert stdout_digest(proc.stdout) == (
        "5edd8c4fcf2b3dd32b7ea4d1815bfe7c1e5ba3175822a8fcbeadae7bd86e440f"
    )


def test_plane_stats_json():
    proc = run_cli(
        ["plane-stats", "--n", "16", "--r", "2", "--p", "0.2*n^-2",
         "--trials", "50", "--seed", "1"]
    )
    assert proc.returncode == 0
    rec = json.loads(proc.stdout)
    assert 0.0 <= rec["frac_all_k_within"] <= 1.0
    assert rec["per_k"][0]["k"] == 1
    # pinned bytes of stdout, without the build line
    assert stdout_digest(proc.stdout) == (
        "e8dd3feea42ca971e174b07e4a4a050ba6926a6a734794326bfa875bfd094636"
    )


def test_plane_stats_json_in_the_window():
    # at 2 n^-2 many lines saturate: batches of parallel lines and queues
    # stopped at their percolation proof feed the plane counts
    proc = run_cli(
        ["plane-stats", "--n", "16", "--r", "2", "--p", "2*n^-2",
         "--trials", "50", "--seed", "1"]
    )
    assert proc.returncode == 0
    # pinned bytes of stdout, without the build line.  The queue stops
    # before the runs its counted lines already prove: counting queued lines
    # took this from 1fe6f366... (mean N_1 17.62, N_2 3.48) to 14b20e9a...
    # (mean N_1 6.98, N_2 0.48); a full plane counting the lines it will
    # saturate took it on to mean N_1 3.38 (max 20 -> 8, within 0.02 ->
    # 0.16) and N_2 0.0 (max 2 -> 0, within 0.68 -> 1.0), with
    # frac_all_k_within 0.02 -> 0.16
    assert stdout_digest(proc.stdout) == (
        "0fdee77d6f98284ab010a8aa8d857134d75f737ea833414a18eb5ea8068b40db"
    )


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


def test_sweep_refuses_a_bad_n_or_p_before_any_estimate(monkeypatch, capsys):
    # the n = 64 and n = 128 estimates ran before n = 10^8 was refused
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran")

    monkeypatch.setattr(cli, "estimate_pc", no_estimate)
    monkeypatch.setattr(cli, "estimate_theta", no_estimate)
    argv = ["sweep", "--d", "2", "--r", "2", "--trials", "200", "--seed", "1",
            "--threads", "1"]
    cases = [
        (["--n-list", "64,128,100000000"],
         "side length 100000000 is more than the supported 16777216"),
        # p = 2 at n = 4
        (["--n-list", "1,2,4", "--p-rule", "0.5*n^1"], "outside [0, 1]: {4: 2.0}"),
    ]
    for extra, reason in cases:
        assert dispatch(argv + extra) == 1, extra
        out, err = capsys.readouterr()
        assert out == "" and err.startswith("error: ") and reason in err, err


def test_oversized_sample_exit_code(capsys):
    # a grid the line bound accepts, at a p that would draw about 6.4e12
    # sites: refused before any code is drawn
    argv = ["theta", "--n", "8000000", "--d", "2", "--r", "2", "--p", "0.1",
            "--trials", "1", "--seed", "1", "--threads", "1"]
    tracemalloc.start()
    try:
        assert dispatch(argv) == 1
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    err = capsys.readouterr().err
    assert err.startswith("error: ") and "sites" in err and "Traceback" not in err
    assert peak < 16 << 20


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


def test_oversized_dimension_exit_code(capsys):
    # refused before the (r,) * d thresholds are built, and the line count,
    # thousands of digits at d = 20000, is never formatted
    proc = run_cli(["pc", "--n", "2", "--d", "20000", "--r", "2", "--trials", "10",
                    "--seed", "1"])
    assert proc.returncode == 1
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr
    assert "dimension" in proc.stderr
    cases = [
        (["pc", "--n", "2", "--d", "30", "--r", "2", "--trials", "10", "--seed", "1"],
         "lines"),
        # (2,) * 2^63 raises OverflowError, so a late check would not pass
        (["minset", "verify", "--n", "2", "--d", str(2**63), "--r", "2"], "dimension"),
        (["sweep", "--d", str(2**63), "--r", "2", "--n-list", "2,3,4", "--trials", "10",
          "--seed", "1"], "dimension"),
    ]
    for argv, reason in cases:
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and reason in err, argv


def test_trials_above_the_bound_exit_code(monkeypatch, capsys):
    def no_trial(*args, **kwargs):
        raise AssertionError("a trial ran")

    for module in (cli, estimator):
        monkeypatch.setattr(module, "sample_codes", no_trial)
    monkeypatch.setattr(estimator, "critical_p_of_sample", no_trial)
    many = ["--trials", str(10**12), "--seed", "1"]
    cases = [
        ["pc", "--n", "8", "--d", "2", "--r", "2", *many, "--threads", "1"],
        ["theta", "--p", "0.1", "--n", "8", "--d", "2", "--r", "2", *many,
         "--threads", "1"],
        ["preface-stats", "--n", "8", "--r", "2", "--p", "0.1", *many],
        ["plane-stats", "--n", "8", "--r", "2", "--p", "0.1", *many],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12,16", *many,
         "--threads", "1"],
    ]
    for argv in cases:
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and str(estimator.MAX_TRIALS) in err


def test_dash_output_is_stdout(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    pc = ["pc", "--n", "16", "--d", "2", "--r", "2", "--trials", "10", "--seed", "1",
          "--threads", "1"]
    assert dispatch(pc + ["--out", "pc.json"]) == 0
    assert capsys.readouterr().out == ""
    assert dispatch(pc + ["--out", "-"]) == 0
    assert capsys.readouterr().out == Path("pc.json").read_text()
    assert dispatch(pc + ["--csv", "-", "--out", "pc.json"]) == 0
    assert capsys.readouterr().out.startswith("rank,p_star\n")
    assert dispatch(["theory", "--r", "2", "--out", "-"]) == 0
    assert json.loads(capsys.readouterr().out)["s"] == 1
    assert not Path("-").exists()


def test_two_outputs_on_stdout_refused(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)

    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran")

    monkeypatch.setattr(cli, "estimate_pc", no_estimate)
    monkeypatch.setattr(cli, "estimate_theta", no_estimate)
    spec = ["--n", "16", "--d", "2", "--r", "2", "--trials", "10", "--seed", "1"]
    cases = [
        ["pc", *spec, "--csv", "-"],
        ["pc", *spec, "--csv", "-", "--out", "-"],
        ["theta", *spec, "--p", "0.1", "--csv", "-"],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12,16", "--trials", "10",
         "--seed", "1", "--fit", "--fit-out", "-"],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12,16", "--trials", "10",
         "--seed", "1", "--fit", "--csv", "-"],
    ]
    for argv in cases:
        assert dispatch(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "stdout" in captured.err, argv
        assert captured.out == ""
    assert not list(tmp_path.iterdir())


_NO_SCIPY = """
import contextlib, io, sys
from lineperc.cli import dispatch
for argv in {runs!r}:
    with contextlib.redirect_stdout(io.StringIO()):
        assert dispatch(argv) == 0, argv
assert not any(k.split(".")[0] == "scipy" for k in sys.modules)
assert "numpy.ma" not in sys.modules
"""


def test_cli_import_loads_no_scipy(tmp_path):
    # scipy.stats was most of every CLI call's start-up; no module of the
    # library loads scipy now, which the tests keep as an oracle.  Nor does
    # any load numpy.ma, which np.unique and np.median import on first use
    # (about 10 ms of start-up)
    one = ["--threads", "1", "--trials", "20", "--seed", "1"]
    points = tmp_path / "points.txt"
    points.write_text("1,1\n2,1\n3,3\n1,1\n")
    sparse = ["--p", "0.1", "--trials", "5", "--seed", "1"]
    runs = [
        [],
        ["pc", "--n", "16", "--d", "2", "--r", "2", *one],
        ["theta", "--n", "16", "--d", "2", "--r", "2", "--p", "0.05", *one],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12,16", "--fit", *one],
        ["theory", "--r", "3"],
        ["preface-stats", "--n", "8", "--r", "2", *sparse],
        ["plane-stats", "--n", "8", "--r", "2", *sparse],
        ["closure", "--n", "4", "--d", "2", "--r", "2", "--points", str(points)],
        ["minset", "search", "--n", "3", "--d", "2", "--r", "2"],
    ]
    for run in runs:
        code = _NO_SCIPY.format(runs=[run] if run else [])
        assert subprocess.run([sys.executable, "-c", code]).returncode == 0, run


_SWEEP_3N = ["sweep", "--d", "2", "--r", "2", "--n-list", "16,24,32", "--fit",
             "--trials", "40", "--seed", "11"]


@pytest.mark.skipif((os.cpu_count() or 1) < 2, reason="a pool needs 2 cores")
def test_sweep_forks_one_pool_for_every_n(monkeypatch, capsys):
    sizes, joins = [], []

    class CountedPool(estimator.ProcessPoolExecutor):
        def __init__(self, max_workers):
            sizes.append(max_workers)
            super().__init__(max_workers=max_workers)

        def shutdown(self, wait=True, **kwargs):
            super().shutdown(wait=wait, **kwargs)
            joins.append(wait)

    monkeypatch.setattr(estimator, "ProcessPoolExecutor", CountedPool)
    assert dispatch(_SWEEP_3N + ["--threads", "2"]) == 0
    assert (sizes, joins) == ([2], [True])
    assert multiprocessing.active_children() == []
    parallel = capsys.readouterr().out
    assert dispatch(_SWEEP_3N + ["--threads", "1"]) == 0
    assert capsys.readouterr().out == parallel
    assert (sizes, joins) == ([2], [True])


def _die(*args):
    os._exit(3)


def test_dead_worker_exit_code(monkeypatch, capsys):
    # two cores even on one, so the chunks never run in this process
    monkeypatch.setattr(estimator.os, "cpu_count", lambda: 2)
    monkeypatch.setattr(estimator, "_pc_trial", _die)
    argv = ["pc", "--n", "16", "--d", "2", "--r", "2", "--trials", "20",
            "--seed", "1", "--threads", "2"]
    assert dispatch(argv) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert multiprocessing.active_children() == []


def test_search_space_refusal_exit_code():
    proc = run_cli(["minset", "search", "--n", "10", "--d", "3", "--r", "4"])
    assert proc.returncode == 1
    assert "search space" in proc.stderr


def test_seeds_outside_64_bits_exit_code(tmp_path, capsys):
    # a master seed is one Philox key word, so -1 and 2^64 + 1 would give the
    # samples of 2^64 - 1 and 1: every --seed is refused outside [0, 2^64)
    runs = [
        ["pc", "--n", "16", "--d", "2", "--r", "2", "--trials", "10", "--threads", "1"],
        ["theta", "--n", "16", "--d", "2", "--r", "2", "--p", "0.1", "--trials", "2",
         "--threads", "1"],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12", "--trials", "10",
         "--threads", "1"],
        ["preface-stats", "--n", "16", "--r", "2", "--p", "0.1", "--trials", "2"],
        ["plane-stats", "--n", "8", "--r", "2", "--p", "0.05", "--trials", "2"],
        ["minset", "verify", "--n", "4", "--d", "2", "--r", "2", "--samples", "1"],
    ]
    config = tmp_path / "sweep.cfg"
    for seed in (-1, 2**64, 2**64 + 1):
        config.write_text(f"d = 2\nr = 2\nn_list = 8,12\ntrials = 10\nseed = {seed}\n")
        for argv in runs + [["sweep", "--config", str(config), "--threads", "1"]]:
            if argv[0] != "sweep" or "--config" not in argv:
                argv = argv + ["--seed", str(seed)]
            assert dispatch(argv) == 1, argv
            err = capsys.readouterr().err
            assert "--seed must lie in [0, 2^64)" in err and "Traceback" not in err
    for argv in runs:
        assert dispatch(argv + ["--seed", str(2**64 - 1)]) == 0, argv
    capsys.readouterr()


def test_negative_max_size_exit_code(capsys):
    argv = ["minset", "search", "--n", "3", "--d", "2", "--r", "2", "--max-size", "-1"]
    assert dispatch(argv) == 1
    assert "max_size must be >= 0" in capsys.readouterr().err


def test_thresholds_above_170_exit_code(capsys):
    # r! is beyond a float above r = 170; lambda_r, which sets the 2D p*
    # search's first cap, and the theory residual check work in logs there
    assert dispatch(["theory", "--r", "171"]) == 0
    assert json.loads(capsys.readouterr().out)["lambda"] > 0
    argv = ["pc", "--n", "200", "--d", "2", "--r", "171", "--trials", "10", "--seed", "1",
            "--threads", "1"]
    assert dispatch(argv) == 0
    assert json.loads(capsys.readouterr().out)["n_degenerate"] == 0


def test_thresholds_and_theory_r_beyond_bounds_exit_code(capsys):
    # no line holds more than MAX_LINES points, and such thresholds overflowed
    # the int64 line tables (or, as plane-stats' r, counted up to sqrt r);
    # theory's output grows by one regime per unit of r
    big = str(10**400)
    cases = [
        ["pc", "--n", "64", "--d", "2", "--thresholds", f"2,{big}", "--trials", "10",
         "--seed", "1"],
        ["pc", "--n", "16", "--d", "3", "--thresholds", f"2,2,{10**23}", "--trials",
         "10", "--seed", "1"],
        ["plane-stats", "--n", "8", "--r", str(10**26), "--p", "0.1", "--trials", "1",
         "--seed", "1"],
        ["theory", "--r", big],
        ["theory", "--r", "1000000"],
        ["theory", "--r", str(cli.MAX_THEORY_R + 1)],
    ]
    for argv in cases:
        assert dispatch(argv) == 1, argv
        captured = capsys.readouterr()
        assert captured.err.startswith("error: ") and "Traceback" not in captured.err
        assert not captured.out, argv
    assert dispatch(["theory", "--r", str(cli.MAX_THEORY_R)]) == 0
    assert len(capsys.readouterr().out) < 1 << 20


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


def test_thresholds_or_r_is_decided_once(tmp_path, capsys):
    # --thresholds wins whenever it is given, so an empty value is refused,
    # also beside --r, with one message on every command and a sweep config
    # line alike; giving neither is refused with one message too
    pts = tmp_path / "pts.txt"
    pts.write_text("1,1\n")
    base = ["d = 2", "r = 2", "n_list = 8,12,16", "trials = 10", "seed = 1"]
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("\n".join(base + ["thresholds ="]) + "\n")
    bare = tmp_path / "bare.cfg"
    bare.write_text("\n".join(base[:1] + base[2:]) + "\n")
    spec = ["--n", "8", "--d", "2"]
    run = ["--trials", "10", "--seed", "1", "--threads", "1"]
    sweep = ["sweep", "--d", "2", "--n-list", "8,12,16", *run]
    commands = [
        ["closure", *spec, "--points", str(pts)],
        ["theta", *spec, "--p", "0.1", *run],
        ["pc", *spec, *run],
        ["minset", "search", *spec],
        sweep,
    ]
    empty = "error: --thresholds must be comma-separated integers, got ''\n"
    neither = "error: supply --r or --thresholds\n"
    cases = [(argv + ["--thresholds", ""], empty) for argv in commands]
    cases += [(argv + ["--r", "2", "--thresholds", ""], empty) for argv in commands]
    cases += [(argv, neither) for argv in commands]
    cases += [(["sweep", "--config", str(cfg), "--threads", "1"], empty),
              (["sweep", "--config", str(bare), "--threads", "1"], neither)]
    for argv, message in cases:
        assert dispatch(argv) == 1, argv
        out, err = capsys.readouterr()
        assert out == "" and err == message, (argv, err)


def test_minset_verify_bounds_the_certificate_and_samples(capsys):
    # r^d above MAX_MONOMIALS and n below r are refused before any matrix is
    # built, even with no samples; --samples is capped like every trial count
    cases = [
        (["minset", "verify", "--n", "100", "--d", "2", "--r", "100"], "r^d"),
        (["minset", "verify", "--n", "100", "--d", "2", "--r", "100",
          "--samples", "0"], "r^d"),
        (["minset", "verify", "--n", "4", "--d", "2", "--r", "2", "--samples",
          str(estimator.MAX_TRIALS + 1)], "--samples must lie in [0, 1000000]"),
        # refused before the corner block, which would not fit on the grid
        (["minset", "verify", "--n", "1", "--d", "2", "--r", "2"], "needs n >= r"),
    ]
    for argv, message in cases:
        assert dispatch(argv) == 1, argv
        err = capsys.readouterr().err
        assert err.startswith("error: ") and message in err, (argv, err)
        assert "Traceback" not in err


def test_nonpositive_trials_exit_code(capsys):
    cases = [
        ["plane-stats", "--n", "8", "--r", "2", "--p", "0.1", "--trials", "0",
         "--seed", "1"],
        ["preface-stats", "--n", "8", "--r", "2", "--p", "0.1", "--trials", "-2",
         "--seed", "1"],
        ["preface-stats", "--n", "8", "--r", "2", "--p", "0.1", "--trials", "0",
         "--seed", "1"],
        ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12,16", "--p-rule",
         "n^-1.2", "--trials", "0", "--seed", "1", "--threads", "1"],
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
    key = line.split(" =")[0]
    # the bad line stands in for its key's line, as a repeated key is refused
    base = ["d = 2", "r = 2", "n_list = 8,12,16", "trials = 10", "seed = 1"]
    kept = [ln for ln in base if ln.split(" =")[0] != key]
    cfg.write_text("\n".join(kept + [line]) + "\n")
    assert dispatch(["sweep", "--config", str(cfg), "--threads", "1"]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and key.replace("_", " ") in err
    assert "more than once" not in err


@pytest.mark.parametrize(
    "line, key",
    [("fit = True", "fit"), ("fit = maybe", "fit"), ("p_rul = n^-1.5", "p_rul"),
     ("cvs = out.csv", "cvs"), ("threads = 2", "threads"),
     ("trials = 20", "trials")],
)
def test_unknown_config_keys_and_fit_values_exit_code(
    tmp_path, monkeypatch, capsys, line, key
):
    # a typo in a sweep config would run a sweep it does not describe
    def no_estimate(*args, **kwargs):
        raise AssertionError("an estimate ran")

    monkeypatch.setattr(cli, "estimate_pc", no_estimate)
    monkeypatch.setattr(cli, "estimate_theta", no_estimate)
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text(f"d = 2\nr = 2\nn_list = 8,12,16\ntrials = 10\nseed = 1\n{line}\n")
    assert dispatch(["sweep", "--config", str(cfg), "--threads", "1"]) == 1
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("error: ") and key in err, err


@pytest.mark.parametrize(
    "argv",
    [["closure", "--n", "8", "--d", "2", "--r", "2", "--points"],
     ["sweep", "--threads", "1", "--config"]],
)
def test_undecodable_input_file_exit_code(tmp_path, argv):
    # the head of a binary file: an ELF header, then bytes that are not UTF-8
    path = tmp_path / "binary"
    path.write_bytes(b"\x7fELF\x02\x01\x01\x00" + bytes(range(128, 256)))
    proc = run_cli(argv + [str(path)])
    assert proc.returncode == 1 and proc.stdout == ""
    assert proc.stderr.startswith("error: ") and "Traceback" not in proc.stderr


def test_sweep_fit_failures_write_nothing(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    runs = []
    pc = cli.estimate_pc

    def counted(*args, **kwargs):
        runs.append(args)
        return pc(*args, **kwargs)

    monkeypatch.setattr(cli, "estimate_pc", counted)
    # too few n values for a fit: refused before any estimate
    few = ["sweep", "--d", "2", "--r", "2", "--n-list", "8,16", "--trials", "10",
           "--seed", "1", "--threads", "1", "--fit"]
    for extra in ([], ["--csv", "pc.csv"]):
        assert dispatch(few + extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and "3 n values" in err and runs == []
    cfg = tmp_path / "sweep.cfg"
    cfg.write_text("d = 2\nr = 2\nn_list = 8,16\ntrials = 10\nseed = 1\nfit = yes\n")
    assert dispatch(["sweep", "--config", str(cfg), "--threads", "1"]) == 1
    assert capsys.readouterr().out == "" and runs == []
    # a theta sweep that never percolates has no point to fit: the fit
    # fails after the estimates, and no CSV is written
    never = ["sweep", "--d", "2", "--r", "2", "--n-list", "8,12,16", "--p-rule",
             "n^-3", "--trials", "10", "--seed", "1", "--threads", "1", "--fit"]
    for extra in ([], ["--csv", "theta.csv"]):
        assert dispatch(never + extra) == 1
        out, err = capsys.readouterr()
        assert out == "" and "need at least 3 points" in err
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sweep.cfg"]


def test_predicted_slope_is_theory_exponent():
    # the sweep's fit record and ``theory`` print the same exponents
    for r in range(2, 101):
        report = cli.theory_report(r).to_json_dict()
        for d in (2, 3):
            sw = cli.SweepConfig(d, (r,) * d, [8, 16, 32], 10, 1)
            assert sw.predicted_slope == report[f"pc{d}_exponent"], (d, r)


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
