"""Command-line interface.

One executable, one subcommand per capability.  Single-record results are
JSON on stdout; tabular results are CSV.  Every output embeds the spec, seed,
trial count, schema tag, and a build id, and is byte-identical across reruns
and thread counts (timings go to stderr).  An output path of ``-`` is stdout.

Exit codes: 0 success, 1 input error, 2 internal assertion failure or a
worker process that died.

The p mini-grammar accepts ``0.01``, ``n^-1.5``, and ``0.5*n^-1.5``.
"""

from __future__ import annotations

import argparse
import csv
import io
import json
import os
import re
import subprocess
import sys
from collections import Counter
from concurrent.futures.process import BrokenProcessPool
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .engine import _closed, closure, percolates, percolation_run
from .estimator import (
    MAX_TRIALS,
    estimate_pc,
    estimate_theta,
    fit_exponent,
    run_trials,
    worker_pool,
)
from .grid import (
    GridSpec,
    InputError,
    decode_point,
    format_line,
    format_point,
    parse_point,
    require_dimension,
    require_small_grid,
)
from .minset import _certificate_box, certify_non_percolation, min_percolating_size
from .processes import (
    LineCountClass,
    classify_line_count,
    is_slow,
    plane_statistics,
    preface_of,
    preface_text,
    run_alternating_2d,
)
from .sampling import TrialSeed, sample_codes
from .theory import gamma_of_r, pc2_exponent, pc3_exponent, s_of_r, theory_report

SCHEMA = "lineperc.v1"

# ``theory`` lists r regimes of about 90 bytes each: under 1 MB of output
MAX_THEORY_R = 10_000


@lru_cache(maxsize=1)
def build_id() -> str:
    try:
        rev = subprocess.run(
            ["git", "rev-parse", "--short", "HEAD"],
            cwd=Path(__file__).resolve().parent,
            capture_output=True,
            text=True,
            timeout=5,
        )
        if rev.returncode == 0:
            return f"{__version__}+g{rev.stdout.strip()}"
    except (OSError, subprocess.SubprocessError):
        pass
    return __version__


def parse_p_expression(text: str, n: int) -> float:
    """Evaluate a density expression: <float>, n^<float>, or <float>*n^<float>."""
    text = text.strip()
    try:
        m = re.fullmatch(r"([0-9.eE+-]+)?\s*\*?\s*n\^([0-9.eE+-]+)", text)
        p = float(text) if m is None else (
            float(m.group(1) or 1.0) * float(n) ** float(m.group(2)))
    except (ValueError, OverflowError) as exc:
        raise InputError(f"cannot parse p expression {text!r} "
                         "(use <float>, n^<a>, or <c>*n^<a>)") from exc
    return p + 0.0  # a zero density parsed as -0.0 prints as 0.0


def _int(text: str, what: str) -> int:
    try:
        return int(text)
    except ValueError:
        raise InputError(f"{what} must be an integer, got {text!r}") from None


def _int_list(text: str, what: str) -> list[int]:
    """Comma-separated integers, e.g. ``2,3``."""
    try:
        return [int(x) for x in str(text).split(",")]
    except ValueError:
        raise InputError(
            f"{what} must be comma-separated integers, got {text!r}"
        ) from None


def _seed(seed: int) -> int:
    """A master seed: one Philox key word, so seeds outside [0, 2^64) would
    alias others."""
    if not 0 <= seed < 2**64:
        raise InputError(f"--seed must lie in [0, 2^64), got {seed}")
    return seed


def _thresholds(d: int, r: int | None, thresholds: str | None) -> tuple[int, ...]:
    """The per-axis thresholds: ``--thresholds`` when given, an empty value
    refused, else ``--r`` on each of the d axes."""
    if thresholds is not None:
        return tuple(_int_list(thresholds, "--thresholds"))
    if r is None:
        raise InputError("supply --r or --thresholds")
    return (r,) * require_dimension(d)


def _spec_from_args(args) -> GridSpec:
    return GridSpec(args.n, args.d, _thresholds(args.d, args.r, args.thresholds))


def _resolve_threads(args) -> int:
    """``--threads``, or every core when it is absent or not positive."""
    if args.threads is None or args.threads <= 0:
        return os.cpu_count() or 1
    return args.threads


def _to_stdout(path: str | None) -> bool:
    return not path or path == "-"


def _one_stdout(*paths: str | None) -> None:
    """Refuse an explicit ``-`` for one of a command's outputs when another
    also goes to stdout.  sweep's default CSV-then-fit stdout stays."""
    if "-" in paths and sum(map(_to_stdout, paths)) > 1:
        raise InputError("only one output can go to stdout; give the others a file")


def _write(text: str, path: str | None) -> None:
    """Write one output to ``path``; no path or ``-`` is stdout."""
    if _to_stdout(path):
        sys.stdout.write(text)
    else:
        Path(path).write_text(text)


def _emit_json(obj: dict, path: str | None) -> None:
    _write(json.dumps(obj, indent=2) + "\n", path)


def _emit_csv(header: list[str], rows: list[list], path: str | None) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    _write(buf.getvalue(), path)


def _base_record(spec: GridSpec, kind: str) -> dict:
    return {
        "schema": f"{SCHEMA}.{kind}",
        "build": build_id(),
        "n": spec.n,
        "d": spec.d,
        "thresholds": list(spec.thresholds),
    }


# ---------------------------------------------------------------------------
# subcommands
# ---------------------------------------------------------------------------


def cmd_closure(args) -> int:
    spec = _spec_from_args(args)
    if args.points == "-":
        lines = sys.stdin.read().splitlines()
    else:
        lines = Path(args.points).read_text().splitlines()
    state = closure(spec, [parse_point(spec, ln) for ln in lines if ln.strip()])
    rec = _base_record(spec, "closure")
    rec.update(
        {
            "percolates": bool(state.percolated),
            "infected_count": int(state.infected_total),
            "saturated_lines": [format_line(l) for l in state.saturated_lines()],
            "rounds": state.trace.num_rounds,
        }
    )
    _emit_json(rec, args.out)
    return 0


def cmd_theta(args) -> int:
    spec = _spec_from_args(args)
    if args.csv:
        _one_stdout(args.out, args.csv)
    p = parse_p_expression(args.p, spec.n)
    with worker_pool(_resolve_threads(args)):
        est = estimate_theta(spec, p, args.trials, _seed(args.seed))
    print(f"theta run: {est.wall_seconds:.2f}s", file=sys.stderr)
    rec = _base_record(spec, "theta")
    rec.update(est.to_json_dict())
    _emit_json(rec, args.out)
    if args.csv:
        rows = [[i, int(ok)] for i, ok in enumerate(est.outcomes)]
        _emit_csv(["trial", "percolates"], rows, args.csv)
    return 0


def cmd_pc(args) -> int:
    spec = _spec_from_args(args)
    if args.csv:
        _one_stdout(args.out, args.csv)
    with worker_pool(_resolve_threads(args)):
        est = estimate_pc(spec, args.trials, _seed(args.seed))
    print(f"pc run: {est.wall_seconds:.2f}s", file=sys.stderr)
    rec = _base_record(spec, "pc")
    rec.update(est.to_json_dict())
    _emit_json(rec, args.out)
    if args.csv:
        rows = [[i, float(v)] for i, v in enumerate(est.samples)]
        _emit_csv(["rank", "p_star"], rows, args.csv)
    return 0


@dataclass
class SweepConfig:
    """Resolved parameters of one sweep (flags merged over the config file)."""

    d: int
    thresholds: tuple[int, ...]
    n_list: list[int]
    trials: int
    master_seed: int
    p_rule: str | None = None  # None: pc sweep; else a theta sweep at this rule
    fit: bool = False
    csv_path: str | None = None
    fit_path: str | None = None

    def __post_init__(self):
        if not self.n_list or any(
            b <= a for a, b in zip(self.n_list, self.n_list[1:])
        ):
            raise InputError(f"n list must be non-empty ascending, got {self.n_list}")
        if self.fit and len(self.n_list) < 3:
            raise InputError(f"a fit needs at least 3 n values, got {len(self.n_list)}")
        # every n's grid, and a theta sweep's density, is checked before the
        # first estimate runs
        self._specs = {n: GridSpec(n, self.d, self.thresholds) for n in self.n_list}
        self.p_of = {n: parse_p_expression(self.p_rule, n) for n in self.n_list if self.p_rule}
        bad = {n: p for n, p in self.p_of.items() if not 0.0 <= p <= 1.0}
        if bad:
            raise InputError(f"p rule {self.p_rule!r} gives p outside [0, 1]: {bad}")

    def spec_for(self, n: int) -> GridSpec:
        return self._specs[n]

    @property
    def predicted_slope(self) -> float | None:
        if self.p_rule or len(set(self.thresholds)) != 1:
            return None
        r = self.thresholds[0]
        if r < 2 or self.d not in (2, 3):
            return None
        return float(pc2_exponent(r) if self.d == 2 else pc3_exponent(r))


CONFIG_KEYS = "d r thresholds n_list p_rule trials seed csv json fit".split()
FIT_ON, FIT_OFF = ("1", "true", "yes"), ("0", "false", "no")


def _read_config(path: str) -> dict:
    """key = value lines; # comments; only the keys of the sweep flags."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"bad config line {raw!r} (expected key = value)")
        key, val = (part.strip() for part in line.split("=", 1))
        key = key.replace("-", "_")
        if key not in CONFIG_KEYS:
            raise InputError(f"unknown config key {key!r}; keys are {CONFIG_KEYS}")
        if key in out:
            raise InputError(f"config key {key!r} given more than once")
        out[key] = val
    return out


def _sweep_config(args) -> SweepConfig:
    cfg = _read_config(args.config) if args.config else {}

    def pick(flag, key, conv=None):
        if flag is not None:
            return flag
        if key not in cfg:
            return None
        return conv(cfg[key], f"config {key}") if conv else cfg[key]

    d = pick(args.d, "d", _int)
    r = pick(args.r, "r", _int)
    thresholds = pick(args.thresholds, "thresholds")
    n_list = pick(args.n_list, "n_list")
    trials = pick(args.trials, "trials", _int)
    seed = pick(args.seed, "seed", _int)
    if d is None or n_list is None or trials is None or seed is None:
        raise InputError("sweep needs --d, --n-list, --trials, --seed")
    fit = cfg.get("fit", "0")
    if fit not in FIT_ON + FIT_OFF:
        raise InputError(f"config fit must be one of {FIT_ON + FIT_OFF}: {fit!r}")
    return SweepConfig(
        d=d,
        thresholds=_thresholds(d, r, thresholds),
        n_list=_int_list(n_list, "n list"),
        trials=trials,
        master_seed=_seed(seed),
        p_rule=pick(args.p_rule, "p_rule"),
        fit=args.fit or fit in FIT_ON,
        csv_path=pick(args.csv, "csv"),
        fit_path=pick(args.fit_out, "json"),
    )


def cmd_sweep(args) -> int:
    sw = _sweep_config(args)
    if sw.fit:
        _one_stdout(sw.csv_path, sw.fit_path)
    rows = []
    fit_points = []
    with worker_pool(_resolve_threads(args)):  # one pool for every n
        for n in sw.n_list:
            spec = sw.spec_for(n)
            if sw.p_rule:
                p = sw.p_of[n]
                est = estimate_theta(spec, p, sw.trials, sw.master_seed)
                print(f"n={n}: theta={est.point_estimate:.5f} "
                      f"({est.wall_seconds:.2f}s)", file=sys.stderr)
                rows.append([n, p, est.point_estimate, est.ci_low, est.ci_high])
                if est.point_estimate > 0:
                    fit_points.append((n, est.point_estimate))
            else:
                est = estimate_pc(spec, sw.trials, sw.master_seed)
                print(f"n={n}: median_pc={est.median:.6g} "
                      f"({est.wall_seconds:.2f}s)", file=sys.stderr)
                rows.append([n, est.median, est.ci_low, est.ci_high])
                fit_points.append((n, est.median))
    # a theta sweep fits only its positive estimates, so fit before writing
    fit = fit_exponent(fit_points) if sw.fit else None
    if sw.p_rule:
        _emit_csv(["n", "p", "theta", "ci_low", "ci_high"], rows, sw.csv_path)
    else:
        _emit_csv(["n", "median_pc", "ci_low", "ci_high"], rows, sw.csv_path)
    if fit is not None:
        rec = {
            "schema": f"{SCHEMA}.fit",
            "build": build_id(),
            "d": sw.d,
            "thresholds": list(sw.thresholds),
            "trials": sw.trials,
            "seed": sw.master_seed,
            "slope": fit.slope,
            "stderr": fit.stderr,
            "predicted_slope": sw.predicted_slope,
        }
        _emit_json(rec, sw.fit_path)
    return 0


def cmd_theory(args) -> int:
    if args.r > MAX_THEORY_R:
        raise InputError(f"--r must be <= {MAX_THEORY_R}, got {args.r}")
    rec = {"schema": f"{SCHEMA}.theory", "build": build_id()}
    rec.update(theory_report(args.r).to_json_dict())
    _emit_json(rec, args.out)
    return 0


def _preface_trial(spec: GridSpec, seed: TrialSeed, p: float, s: int) -> tuple:
    """(classification, preface, slow) of one stopped alternating run."""
    codes = sample_codes(spec, p, seed)
    if _closed(spec, codes):  # no line saturates: the line-count is h = (0,)
        return LineCountClass.NO_PERCOLATION.value, "", ""
    _, lc = run_alternating_2d(spec, codes, stop_rule=True)
    cls = classify_line_count(lc, spec.r)
    if cls is LineCountClass.NO_PERCOLATION:
        return cls.value, "", ""
    pref = preface_of(lc, spec.r)
    return cls.value, preface_text(pref), str(int(is_slow(pref, s)))


def cmd_preface_stats(args) -> int:
    spec = GridSpec.uniform(args.n, 2, args.r)
    p = parse_p_expression(args.p, spec.n)
    s = s_of_r(args.r) if args.r >= 2 else 0
    keys = run_trials(_preface_trial, spec, args.trials, _seed(args.seed), p, s)
    rows = [
        [cls, pref, slow, cnt, cnt / args.trials]
        for (cls, pref, slow), cnt in sorted(
            Counter(keys).items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    _emit_csv(
        ["classification", "preface", "slow", "count", "frequency"], rows, args.csv
    )
    return 0


def _plane_trial(spec: GridSpec, seed: TrialSeed, p: float, kmax: int) -> tuple:
    """N_1, ..., N_kmax of one cascade, run until percolation is proved or
    to its fixed point."""
    state = percolation_run(spec, sample_codes(spec, p, seed))
    return plane_statistics(spec, state).n_k_profile(kmax)


def cmd_plane_stats(args) -> int:
    spec = GridSpec.uniform(args.n, 3, args.r)
    p = parse_p_expression(args.p, spec.n)
    g = float(gamma_of_r(args.r))
    s = s_of_r(args.r)
    kmax = s + 1
    bounds = [spec.n ** (1.0 - k * g / (args.r - g)) for k in range(1, kmax + 1)]
    profiles = run_trials(_plane_trial, spec, args.trials, _seed(args.seed), p, kmax)
    nk = np.array(profiles, dtype=np.int64).reshape(args.trials, kmax)
    ok = nk <= np.array(bounds)
    within, sums, maxima = ok.sum(axis=0), nk.sum(axis=0), nk.max(axis=0)
    all_within = int(ok.all(axis=1).sum())
    rec = _base_record(spec, "plane_stats")
    rec.update(
        {
            "p": p,
            "trials": args.trials,
            "seed": args.seed,
            "frac_all_k_within": all_within / args.trials,
            "per_k": [
                {
                    "k": k + 1,
                    "bound": bounds[k],
                    "mean_nk": sums[k] / args.trials,
                    "max_nk": int(maxima[k]),
                    "frac_within": within[k] / args.trials,
                }
                for k in range(kmax)
            ],
        }
    )
    _emit_json(rec, args.out)
    return 0


def cmd_minset(args) -> int:
    if args.minset_cmd == "search":
        spec = _spec_from_args(args)
        res = min_percolating_size(spec, max_size=args.max_size)
        rec = _base_record(spec, "minset_search")
        rec.update(
            {
                "min_size": res.min_size,
                "witness": [format_point(p) for p in res.witness]
                if res.witness
                else None,
                "subsets_tested": res.subsets_tested,
            }
        )
        _emit_json(rec, args.out)
        return 0
    # verify
    if not 0 <= args.samples <= MAX_TRIALS:
        raise InputError(f"--samples must lie in [0, {MAX_TRIALS}], got {args.samples}")
    _seed(args.seed)
    spec = GridSpec.uniform(args.n, args.d, args.r)
    # each sample permutes all n^d sites and certifies its closure
    require_small_grid(spec, "minset verify")
    block = [tuple(a + 1 for a in alpha) for alpha in _certificate_box(spec)]
    block_ok = percolates(spec, block)
    rng = TrialSeed(args.seed, 0).generator()
    target = len(block) - 1
    for _ in range(args.samples):
        codes = rng.permutation(spec.num_sites)[:target]
        pts = [decode_point(spec, int(c)) for c in codes]
        certify_non_percolation(spec, pts)  # raises on a failed certificate
    rec = _base_record(spec, "minset_verify")
    rec.update(
        {
            "construction_percolates": bool(block_ok),
            "certificates_checked": args.samples,
            "all_ok": bool(block_ok),
        }
    )
    _emit_json(rec, args.out)
    return 0


# ---------------------------------------------------------------------------
# parser
# ---------------------------------------------------------------------------


class _Parser(argparse.ArgumentParser):
    def error(self, message):  # exit 1 on usage errors, not argparse's 2
        raise InputError(message)


def _add_spec_flags(p):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--thresholds", type=str, default=None,
                   help="comma-separated per-axis thresholds r1,r2,...")


def build_parser() -> argparse.ArgumentParser:
    ap = _Parser(prog="lineperc", description=__doc__)
    sub = ap.add_subparsers(dest="cmd", required=True)

    p = sub.add_parser("closure", help="infection closure of a point set")
    _add_spec_flags(p)
    p.add_argument("--points", required=True, help="file of points, or - for stdin")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_closure)

    p = sub.add_parser("theta", help="Monte Carlo percolation probability")
    _add_spec_flags(p)
    p.add_argument("--p", required=True, help="density (mini-grammar)")
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--csv", default=None, help="also write per-trial CSV here")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_theta)

    p = sub.add_parser("pc", help="Monte Carlo critical probability (median p*)")
    _add_spec_flags(p)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--csv", default=None, help="also write sorted p* samples here")
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_pc)

    p = sub.add_parser("sweep", help="pc or theta sweep over n with optional fit")
    p.add_argument("--d", type=int, default=None)
    p.add_argument("--r", type=int, default=None)
    p.add_argument("--thresholds", type=str, default=None)
    p.add_argument("--n-list", dest="n_list", default=None)
    p.add_argument("--p-rule", dest="p_rule", default=None,
                   help="theta sweep at this density expression instead of pc")
    p.add_argument("--trials", type=int, default=None)
    p.add_argument("--seed", type=int, default=None)
    p.add_argument("--threads", type=int, default=None)
    p.add_argument("--fit", action="store_true")
    p.add_argument("--csv", default=None)
    p.add_argument("--fit-out", dest="fit_out", default=None)
    p.add_argument("--config", default=None, help="key = value config file")
    p.set_defaults(fn=cmd_sweep)

    p = sub.add_parser("theory", help="closed-form constants and exponents")
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_theory)

    p = sub.add_parser("preface-stats", help="line-count preface statistics (d=2)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--csv", default=None)
    p.set_defaults(fn=cmd_preface_stats)

    p = sub.add_parser("plane-stats", help="plane-count statistics (d=3)")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--r", type=int, required=True)
    p.add_argument("--p", required=True)
    p.add_argument("--trials", type=int, required=True)
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--out", default=None)
    p.set_defaults(fn=cmd_plane_stats)

    p = sub.add_parser("minset", help="minimal percolating set tools")
    msub = p.add_subparsers(dest="minset_cmd", required=True)
    q = msub.add_parser("search", help="exhaustive minimal size search")
    _add_spec_flags(q)
    q.add_argument("--max-size", dest="max_size", type=int, default=None)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_minset)
    q = msub.add_parser("verify", help="construction + certificate spot checks")
    q.add_argument("--n", type=int, required=True)
    q.add_argument("--d", type=int, required=True)
    q.add_argument("--r", type=int, required=True)
    q.add_argument("--samples", type=int, default=100)
    q.add_argument("--seed", type=int, default=0)
    q.add_argument("--out", default=None)
    q.set_defaults(fn=cmd_minset)

    return ap


def dispatch(argv: list[str]) -> int:
    ap = build_parser()
    try:
        args = ap.parse_args(argv)
        return args.fn(args)
    except (InputError, OSError, UnicodeDecodeError) as exc:
        # a --points or --config file that is not text cannot be decoded
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2
    except BrokenProcessPool as exc:
        print(f"error: a worker process died: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
