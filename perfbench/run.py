"""lineperc CLI benchmark: closed-loop jobs, pinned outputs, traced layers.

    python3 perfbench/run.py --workload pc-2d --seed 1 --seconds 25 --trace 0

Run from anywhere; the repository root is the parent of this directory and
``src/lineperc`` there is the code under test (no install needed).  Each
workload is a closed loop with one client: every job is a fresh
``python -m lineperc ...`` subprocess (see ``job.py``), and the next job
starts when the previous one has ended.  A job starts only if it can end
within ``--seconds``.  Every job's output is compared with a digest pinned
in ``pinned.json``; the job seeds come from the pinned pool, in an order
drawn from ``--seed``.  End-to-end times are scaled by a calibration timed
between the jobs (see ``calibrate``).

``--trace 0`` reports the end-to-end metrics, ``--trace 1`` the per-layer
metrics from traced jobs (see ``tracer.py``).  Metric names and units are
those of ``BENCHMARK.json``.  Every line but the last is a human-readable
report starting with ``#``; the last line is one JSON object.
``--pin`` re-records ``pinned.json`` from the current code instead.

See README.md for what each metric and workload is for.
"""

from __future__ import annotations

import argparse
import hashlib
import importlib.metadata
import json
import os
import platform
import random
import re
import shutil
import signal
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass
from pathlib import Path

from tracer import EXACT_COUNTS, job_totals, layer_metrics, scipy_import_s

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
JOB = HERE / "job.py"
PINNED = HERE / "pinned.json"

SEED_POOL = tuple(range(1, 25))  # job seeds whose outputs are pinned
HARD_LIMIT_S = 170.0  # a run must end well within 180 s


@dataclass(frozen=True)
class Workload:
    args: tuple[str, ...]  # lineperc arguments without --seed/--threads/--csv
    threads: int  # worker count of the end-to-end runs
    trials: int  # trials one job completes, over all its estimates
    csv: bool  # also write and pin the sorted p* samples (pc only)


WORKLOADS = {
    "pc-2d": Workload(
        ("pc", "--n", "1024", "--d", "2", "--r", "2", "--trials", "500"),
        1, 500, True),
    "pc-3d": Workload(
        ("pc", "--n", "128", "--d", "3", "--r", "2", "--trials", "40"),
        1, 40, True),
    "theta-2d": Workload(
        ("theta", "--n", "1024", "--d", "2", "--r", "2", "--p", "n^-1.7",
         "--trials", "10000"),
        1, 10000, False),
    "sweep-2d": Workload(
        ("sweep", "--d", "2", "--r", "2", "--n-list", "64,128,256,512", "--fit",
         "--trials", "300"),
        2, 4 * 300, False),
}


class BenchError(Exception):
    """The benchmark cannot run here; no result is printed."""


# ---------------------------------------------------------------------------
# one job
# ---------------------------------------------------------------------------

_BUILD_LINE = re.compile(rb'^[ \t]*"build": "[^"\n]*",?\r?\n', re.M)


def output_digest(stdout: bytes, csv: bytes | None) -> str:
    """sha256 of stdout without its ``build`` lines (they embed the git rev),
    followed by the --csv file when there is one."""
    h = hashlib.sha256(_BUILD_LINE.sub(b"", stdout))
    if csv is not None:
        h.update(b"\0csv\0" + csv)
    return h.hexdigest()


@dataclass
class Job:
    seed: int
    mode: str
    ok: bool = False
    why: str = ""
    setup_s: float = 0.0
    import_s: float = 0.0
    solve_s: float = 0.0
    rss_mb: float = 0.0
    digest: str = ""
    record: dict | None = None
    totals: dict | None = None  # job_totals of a traced job
    stderr: str = ""


def run_job(tmp: Path, name: str, seed: int, mode: str, threads: int,
            pinned: dict, deadline: float) -> Job:
    wl = WORKLOADS[name]
    job = Job(seed, mode)
    record_path = tmp / "record.json"
    csv_path = tmp / "pstar.csv"
    for p in (record_path, csv_path):
        p.unlink(missing_ok=True)
    argv = [*wl.args, "--seed", str(seed), "--threads", str(threads)]
    if wl.csv:
        argv += ["--csv", str(csv_path)]
    cmd = [sys.executable]
    if mode == "trace":
        cmd += ["-X", "importtime"]
    cmd += [str(JOB), str(record_path), mode, "--", *argv]
    env = dict(os.environ, PYTHONPATH=str(SRC))
    env.pop("LINEPERC_THREADS", None)
    t_spawn = time.monotonic()
    proc = subprocess.Popen(cmd, cwd=ROOT, env=env, stdout=subprocess.PIPE,
                            stderr=subprocess.PIPE, start_new_session=True)
    try:
        out, err = proc.communicate(timeout=max(1.0, deadline - t_spawn))
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)  # the job and its pool workers
        proc.communicate()
        job.why = "timed out"
        return job
    job.stderr = err.decode(errors="replace")
    if proc.returncode != 0:
        job.why = f"exit code {proc.returncode}: {job.stderr.strip()[-300:]}"
        return job
    try:
        rec = json.loads(record_path.read_text())
    except (OSError, ValueError) as exc:
        job.why = f"no job record: {exc}"
        return job
    if not Path(rec["cli_file"]).resolve().is_relative_to(SRC):
        job.why = f"imported lineperc from {rec['cli_file']}, not {SRC}"
        return job
    if mode == "trace":
        job.totals = job_totals(rec)
        del rec["spans"], rec["names"]
    job.record = rec
    job.setup_s = rec["t_ready"] - t_spawn
    job.import_s = rec["t_ready"] - rec["t_import"]
    job.solve_s = rec["t_end"] - rec["t_ready"]
    job.rss_mb = (rec["rss_self_kib"] + sum(rec["rss_workers_kib"])) * 1024 / 1e6
    if mode == "import":
        job.ok = True
        return job
    csv = csv_path.read_bytes() if wl.csv and csv_path.exists() else None
    if wl.csv and csv is None:
        job.why = "no --csv output"
        return job
    job.digest = output_digest(out, csv)
    want = pinned.get(str(seed))
    if job.digest != want:
        job.why = f"output digest {job.digest[:16]} != pinned {str(want)[:16]}"
        return job
    job.ok = True
    return job


# ---------------------------------------------------------------------------
# runs
# ---------------------------------------------------------------------------


CALIBRATION = "import numpy, scipy.stats"
CAL_REF_S = 1.0  # the reference scale: a machine where CALIBRATION takes 1 s


def calibrate(deadline: float) -> float:
    """Seconds for a fresh interpreter to run CALIBRATION.

    That is the set-up a job spends outside lineperc's own modules, and no
    change to src/ alters it.  On a shared host the machine runs up to 1.7x
    slower for minutes at a time, and import work and solve work slow down
    together; scaling each job's times by the calibrations just before and
    after it takes about a third of that swing out of the run-to-run spread.
    """
    t0 = time.monotonic()
    try:
        subprocess.run([sys.executable, "-c", CALIBRATION], check=True,
                       capture_output=True, timeout=max(1.0, deadline - t0))
    except (OSError, subprocess.SubprocessError) as exc:
        raise BenchError(f"calibration failed: {exc}") from exc
    return time.monotonic() - t0


def _median(vals: list[float]) -> float:
    return statistics.median(vals) if vals else 0.0


def _spread(vals: list[float]) -> str:
    if len(vals) < 2:
        return f"n={len(vals)}"
    q1, _, q3 = statistics.quantiles(vals, n=4)
    return f"p25={q1:.6g} p75={q3:.6g} n={len(vals)}"


class Run:
    def __init__(self, name: str, seed: int, seconds: float, pinned: dict,
                 tmp: Path):
        self.name = name
        self.wl = WORKLOADS[name]
        self.pinned = pinned
        self.tmp = tmp
        self.seconds = seconds
        self.deadline = 0.0  # set once warmed up
        self.hard_deadline = time.monotonic() + HARD_LIMIT_S
        self.order = random.Random(seed).sample(SEED_POOL, len(SEED_POOL))
        self.jobs: list[Job] = []
        self.failures: list[str] = []

    def job(self, seed: int, mode: str, threads: int | None = None) -> Job:
        job = run_job(self.tmp, self.name, seed, mode, threads or self.wl.threads,
                      self.pinned, self.hard_deadline)
        self.jobs.append(job)
        status = "ok" if job.ok else f"FAILED ({job.why})"
        print(f"# job {len(self.jobs)} seed={seed} mode={mode} "
              f"setup_s={job.setup_s:.4f} solve_s={job.solve_s:.4f} "
              f"rss_mb={job.rss_mb:.1f} digest={job.digest[:16]} {status}")
        if not job.ok:
            self.failures.append(f"job seed={seed} mode={mode}: {job.why}")
        return job

    def warm_up(self) -> None:
        """Compile src/ to bytecode and fill the page cache; not counted.
        The measured ``--seconds`` start afterwards."""
        job = run_job(self.tmp, self.name, 0, "import", 1, {}, self.hard_deadline)
        if not job.ok:
            raise BenchError(f"lineperc does not import: {job.why}")
        self.deadline = time.monotonic() + self.seconds

    def seeds(self):
        """Job seeds in this run's order.  After the first, a seed is handed
        out only if the work done for it, timed like the previous ones, ends
        by the deadline, so every run measures about ``--seconds``."""
        took: list[float] = []
        i = 0
        while True:
            now = time.monotonic()
            if took and (now + _median(took) > self.deadline
                         or now > self.hard_deadline - 30):
                return
            yield self.order[i % len(self.order)]
            took.append(time.monotonic() - now)
            i += 1

    def end_to_end(self) -> dict[str, float]:
        cals = [calibrate(self.hard_deadline)]
        for seed in self.seeds():
            self.job(seed, "off")
            cals.append(calibrate(self.hard_deadline))
        print("# calibration_s " + " ".join(f"{c:.4f}" for c in cals))
        # job i ran between calibrations i and i + 1
        runs = [(j, (a + b) / 2 / CAL_REF_S)
                for j, a, b in zip(self.jobs, cals, cals[1:])]
        good = ([(j, slow) for j, slow in runs if j.ok]
                or [(j, slow) for j, slow in runs if j.solve_s])
        measured = {
            "trials_per_s": [self.wl.trials / j.solve_s for j, _ in good],
            "setup_s": [j.setup_s for j, _ in good],
        }
        values = {
            # times on the reference scale, see calibrate()
            "trials_per_s": [self.wl.trials / j.solve_s * slow for j, slow in good],
            "setup_s": [j.setup_s / slow for j, slow in good],
            "peak_rss_mb": [j.rss_mb for j, _ in good],
        }
        for key, vals in measured.items():
            print(f"# measured {key}: median={_median(vals):.6g} {_spread(vals)}")
        for key, vals in values.items():
            print(f"# {key}: median={_median(vals):.6g} {_spread(vals)}")
        metrics = {key: _median(vals) for key, vals in values.items()}
        metrics["ok_frac"] = sum(j.ok for j in self.jobs) / len(self.jobs)
        return metrics

    def per_layer(self) -> dict[str, float]:
        """Per seed: an untraced serial job, a traced serial job and, for a
        multi-worker workload, a job at its worker count that counts pool
        starts.  Then the first seed is traced again for the exact counts."""
        parallel = self.wl.threads > 1
        refs, traced, pools = [], [], []
        for seed in self.seeds():
            refs.append(self.job(seed, "off", 1))
            traced.append(self.job(seed, "trace", 1))
            if parallel:
                pools.append(self.job(seed, "pools"))
        self.check_exact_counts(traced[0], pools[0] if parallel else None)
        # a job with the wrong output still measured its layers; its failure
        # is already counted
        refs, traced, pools = ([j for j in jobs if j.record]
                               for jobs in (refs, traced, pools))
        totals = [j.totals for j in traced]
        metrics = layer_metrics(totals, max(1, self.wl.trials * len(totals)))
        ref_solve = _median([j.solve_s for j in refs])
        traced_solve = _median([j.solve_s for j in traced])
        metrics["cli.import_s"] = _median([j.import_s for j in refs])
        metrics["cli.import_scipy_s"] = _median(
            [scipy_import_s(j.stderr) for j in traced])
        metrics["cli.build_id_s"] = _median(
            [t.get("cli.build_id.ns", 0) / 1e9 for t in totals])
        metrics["estimator.pool_starts"] = max(
            (j.record["pool_starts"] for j in (pools if parallel else traced)),
            default=0)
        if parallel:
            par_solve = _median([j.solve_s for j in pools])
            metrics["estimator.parallel_efficiency"] = (
                ref_solve / (self.wl.threads * par_solve) if par_solve else 0.0)
        else:
            # the workload runs on one worker: its serial run is the run
            metrics["estimator.parallel_efficiency"] = 1.0
        metrics["trace.overhead_frac"] = (
            traced_solve / ref_solve - 1.0 if ref_solve else 0.0)
        return metrics

    def check_exact_counts(self, traced: Job, pools: Job | None) -> None:
        """Trace the first seed again: counts that depend only on code and
        inputs must repeat exactly, or the run fails."""
        if not traced.record or (pools and not pools.record):
            return
        again = self.job(traced.seed, "trace", 1)
        pools_again = self.job(pools.seed, "pools") if pools else None
        if not again.record or (pools_again and not pools_again.record):
            return
        first, second = dict(traced.totals), dict(again.totals)
        if pools:
            first["pool_starts"] = pools.record["pool_starts"]
            second["pool_starts"] = pools_again.record["pool_starts"]
        differ = []
        for key in EXACT_COUNTS:
            a, b = first.get(key, 0), second.get(key, 0)
            print(f"# exact count {key}: {a} then {b}")
            if a != b:
                differ.append(f"{key} {a} != {b}")
        if differ:
            self.failures.append(f"exact counts differ between two runs of seed "
                                 f"{traced.seed}: {', '.join(differ)}")


# ---------------------------------------------------------------------------
# reporting
# ---------------------------------------------------------------------------


def machine_info() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh
                        if ln.startswith("model name")), cpu)
    except OSError:
        pass
    try:
        git = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"], cwd=ROOT, capture_output=True,
            text=True, timeout=10,
            env=dict(os.environ, GIT_CEILING_DIRECTORIES=str(ROOT.parent)))
        rev = git.stdout.strip() if git.returncode == 0 else "none"
    except (OSError, subprocess.SubprocessError):
        rev = "none"
    src_files = sorted(SRC.rglob("*.py"))
    src_hash = hashlib.sha256()
    for f in src_files:
        src_hash.update(f.relative_to(SRC).as_posix().encode() + b"\0"
                        + f.read_bytes() + b"\0")
    versions = {}
    for pkg in ("numpy", "scipy"):
        try:
            versions[pkg] = importlib.metadata.version(pkg)
        except importlib.metadata.PackageNotFoundError:
            versions[pkg] = "missing"
    return {
        "nproc": os.cpu_count(),
        "cpu": cpu,
        "python": platform.python_version(),
        **versions,
        "git_rev": rev,
        "src_sha256": src_hash.hexdigest()[:16],
        "src_loc": sum(len(f.read_bytes().splitlines()) for f in src_files),
    }


def metric_units(trace: bool) -> dict[str, str]:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"]
            for m in spec["per_layer" if trace else "end_to_end"]}


def load_pinned(name: str) -> dict:
    pinned = json.loads(PINNED.read_text()).get(name)
    if pinned is None or pinned["args"] != list(WORKLOADS[name].args):
        raise BenchError(f"{PINNED.name} has no digests for {name} with args "
                         f"{list(WORKLOADS[name].args)}; re-pin with --pin")
    return pinned["digests"]


def pin(names: list[str], tmp: Path) -> None:
    """Record the digest of every pooled job seed with the current code."""
    pinned = json.loads(PINNED.read_text()) if PINNED.exists() else {}
    for name in names:
        digests = {}
        for seed in SEED_POOL:
            job = run_job(tmp, name, seed, "off", WORKLOADS[name].threads, {},
                          time.monotonic() + HARD_LIMIT_S)
            if not job.digest:
                raise BenchError(f"{name} seed {seed}: {job.why}")
            digests[str(seed)] = job.digest
            print(f"# pinned {name} seed={seed} {job.digest[:16]} "
                  f"solve_s={job.solve_s:.3f}")
        pinned[name] = {"args": list(WORKLOADS[name].args), "digests": digests}
    PINNED.write_text(json.dumps(pinned, indent=1, sort_keys=True) + "\n")


def main(argv: list[str] | None = None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS), required=True)
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=float, default=25.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--pin", action="store_true",
                    help="re-record pinned.json for --workload and exit")
    args = ap.parse_args(argv)
    if not (SRC / "lineperc" / "cli.py").is_file():
        print(f"error: no lineperc sources at {SRC}", file=sys.stderr)
        return 2
    tmp = ROOT / ".perfbench_tmp" / f"run-{os.getpid()}"
    tmp.mkdir(parents=True)
    try:
        if args.pin:
            pin([args.workload], tmp)
            return 0
        units = metric_units(bool(args.trace))
        run = Run(args.workload, args.seed, args.seconds,
                  load_pinned(args.workload), tmp)
        print(f"# perfbench workload={args.workload} seed={args.seed} "
              f"seconds={args.seconds:g} trace={args.trace} "
              f"lineperc {' '.join(WORKLOADS[args.workload].args)}")
        print(f"# machine {json.dumps(machine_info(), sort_keys=True)}")
        run.warm_up()
        values = run.per_layer() if args.trace else run.end_to_end()
    except BenchError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    finally:
        shutil.rmtree(tmp, ignore_errors=True)
        try:
            tmp.parent.rmdir()
        except OSError:
            pass
    for failure in run.failures:
        print(f"# FAILURE {failure}")
    for name, unit in units.items():
        print(f"# metric {name} = {values[name]:.6g} {unit}")
    print(json.dumps({
        "correct": not run.failures,
        "attempted": len(run.jobs),
        "failed": len(run.failures),
        "metrics": {name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
