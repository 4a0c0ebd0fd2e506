import json
import subprocess
import sys

import pytest

from lineperc import InputError, grid
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
    argv = ["theta", "--n", "1000000", "--d", "3", "--r", "2", "--p", "0.1",
            "--trials", "1", "--seed", "0", "--threads", "1"]
    assert dispatch(argv) == 1
    assert "lines" in capsys.readouterr().err


def test_search_space_refusal_exit_code():
    proc = run_cli(["minset", "search", "--n", "10", "--d", "3", "--r", "4"])
    assert proc.returncode == 1
    assert "search space" in proc.stderr
