"""Command-line interface.

One executable, one subcommand per capability.  Single-record results are
JSON on stdout; tabular results are CSV.  Every output embeds the spec, seed,
trial count, schema tag, and a build id, and is byte-identical across reruns
and thread counts (timings go to stderr).

Exit codes: 0 success, 1 input error, 2 internal assertion failure.

The p mini-grammar accepts ``0.01``, ``n^-1.5``, and ``0.5*n^-1.5``.
"""

from __future__ import annotations

import argparse
import csv
import io
import itertools
import json
import os
import re
import subprocess
import sys
from dataclasses import dataclass
from functools import lru_cache
from pathlib import Path

import numpy as np

from . import __version__
from .engine import percolates, percolation_run
from .estimator import estimate_pc, estimate_theta, fit_exponent
from .grid import (
    GridSpec,
    InputError,
    decode_point,
    format_line,
    format_point,
    parse_point,
    require_small_grid,
)
from .minset import certify_non_percolation, min_percolating_size
from .processes import (
    LineCountClass,
    classify_line_count,
    is_slow,
    plane_statistics,
    preface_of,
    preface_text,
    run_alternating_2d,
    run_synchronous,
)
from .sampling import TrialSeed, sample_codes
from .theory import gamma_of_r, s_of_r, theory_report

SCHEMA = "lineperc.v1"


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
        if m:
            coeff = float(m.group(1)) if m.group(1) else 1.0
            return coeff * float(n) ** float(m.group(2))
        return float(text)
    except (ValueError, OverflowError) as exc:
        raise InputError(f"cannot parse p expression {text!r} "
                         "(use <float>, n^<a>, or <c>*n^<a>)") from exc


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


def _spec_from_args(args) -> GridSpec:
    if getattr(args, "thresholds", None):
        thr = tuple(_int_list(args.thresholds, "--thresholds"))
    elif getattr(args, "r", None) is not None:
        thr = (int(args.r),) * args.d
    else:
        raise InputError("supply --r or --thresholds")
    return GridSpec(args.n, args.d, thr)


def _resolve_threads(args) -> int:
    t = getattr(args, "threads", None)
    if t is None:
        env = os.environ.get("LINEPERC_THREADS")
        try:
            t = int(env) if env else 0
        except ValueError:
            raise InputError(
                f"LINEPERC_THREADS must be an integer, got {env!r}"
            ) from None
    t = int(t)
    if t <= 0:
        t = os.cpu_count() or 1
    return t


def _emit_json(obj: dict, path: str | None) -> None:
    text = json.dumps(obj, indent=2) + "\n"
    if path:
        Path(path).write_text(text)
    else:
        sys.stdout.write(text)


def _emit_csv(header: list[str], rows: list[list], path: str | None) -> None:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(header)
    w.writerows(rows)
    if path:
        Path(path).write_text(buf.getvalue())
    else:
        sys.stdout.write(buf.getvalue())


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
    pts = [parse_point(spec, ln) for ln in lines if ln.strip()]
    state, trace = run_synchronous(spec, pts)
    rec = _base_record(spec, "closure")
    rec.update(
        {
            "percolates": bool(state.percolated),
            "infected_count": int(state.infected_total),
            "saturated_lines": [format_line(l) for l in state.saturated_lines()],
            "rounds": trace.num_rounds,
        }
    )
    _emit_json(rec, args.out)
    return 0


def cmd_theta(args) -> int:
    spec = _spec_from_args(args)
    p = parse_p_expression(args.p, spec.n)
    workers = _resolve_threads(args)
    est = estimate_theta(spec, p, args.trials, args.seed, workers=workers)
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
    workers = _resolve_threads(args)
    est = estimate_pc(spec, args.trials, args.seed, workers=workers)
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
        if self.trials < 1:
            raise InputError(f"trials must be >= 1, got {self.trials}")

    def spec_for(self, n: int) -> GridSpec:
        return GridSpec(n, self.d, self.thresholds)

    @property
    def predicted_slope(self) -> float | None:
        if self.p_rule or len(set(self.thresholds)) != 1:
            return None
        r = self.thresholds[0]
        if r < 2:
            return None
        if self.d == 2:
            return -1.0 - 1.0 / r
        if self.d == 3:
            return -1.0 - 1.0 / (r - float(gamma_of_r(r)))
        return None


def _read_config(path: str) -> dict:
    """key = value lines; # comments; keys as in the sweep flags."""
    out = {}
    for raw in Path(path).read_text().splitlines():
        line = raw.split("#", 1)[0].strip()
        if not line:
            continue
        if "=" not in line:
            raise InputError(f"bad config line {raw!r} (expected key = value)")
        key, val = (part.strip() for part in line.split("=", 1))
        out[key.replace("-", "_")] = val
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
    if thresholds is not None:
        thr = tuple(_int_list(thresholds, "thresholds"))
    elif r is not None:
        thr = (r,) * d
    else:
        raise InputError("sweep needs --r or --thresholds")
    return SweepConfig(
        d=d,
        thresholds=thr,
        n_list=_int_list(n_list, "n list"),
        trials=trials,
        master_seed=seed,
        p_rule=pick(args.p_rule, "p_rule"),
        fit=args.fit or cfg.get("fit") in ("1", "true", "yes"),
        csv_path=pick(args.csv, "csv"),
        fit_path=pick(args.fit_out, "json"),
    )


def cmd_sweep(args) -> int:
    sw = _sweep_config(args)
    workers = _resolve_threads(args)
    rows = []
    fit_points = []
    for n in sw.n_list:
        spec = sw.spec_for(n)
        if sw.p_rule:
            p = parse_p_expression(sw.p_rule, n)
            est = estimate_theta(spec, p, sw.trials, sw.master_seed, workers=workers)
            print(f"n={n}: theta={est.point_estimate:.5f} "
                  f"({est.wall_seconds:.2f}s)", file=sys.stderr)
            rows.append([n, p, est.point_estimate, est.ci_low, est.ci_high])
            if est.point_estimate > 0:
                fit_points.append((n, est.point_estimate))
        else:
            est = estimate_pc(spec, sw.trials, sw.master_seed, workers=workers)
            print(f"n={n}: median_pc={est.median:.6g} "
                  f"({est.wall_seconds:.2f}s)", file=sys.stderr)
            rows.append([n, est.median, est.ci_low, est.ci_high])
            fit_points.append((n, est.median))
    if sw.p_rule:
        _emit_csv(["n", "p", "theta", "ci_low", "ci_high"], rows, sw.csv_path)
    else:
        _emit_csv(["n", "median_pc", "ci_low", "ci_high"], rows, sw.csv_path)
    if sw.fit:
        fit = fit_exponent(fit_points)
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
    rec = {"schema": f"{SCHEMA}.theory", "build": build_id()}
    rec.update(theory_report(args.r).to_json_dict())
    _emit_json(rec, args.out)
    return 0


def cmd_preface_stats(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    spec = GridSpec.uniform(args.n, 2, args.r)
    p = parse_p_expression(args.p, spec.n)
    s = s_of_r(args.r) if args.r >= 2 else 0
    tally: dict[tuple[str, str, str], int] = {}
    for i in range(args.trials):
        codes = sample_codes(spec, p, TrialSeed(args.seed, i))
        _, lc = run_alternating_2d(spec, None, stop_rule=True, _codes=codes)
        cls = classify_line_count(lc, args.r)
        if cls is LineCountClass.NO_PERCOLATION:
            key = (cls.value, "", "")
        else:
            pref = preface_of(lc, args.r)
            key = (cls.value, preface_text(pref), str(int(is_slow(pref, s))))
        tally[key] = tally.get(key, 0) + 1
    rows = [
        [cls, pref, slow, cnt, cnt / args.trials]
        for (cls, pref, slow), cnt in sorted(
            tally.items(), key=lambda kv: (-kv[1], kv[0])
        )
    ]
    _emit_csv(
        ["classification", "preface", "slow", "count", "frequency"], rows, args.csv
    )
    return 0


def cmd_plane_stats(args) -> int:
    if args.trials < 1:
        raise InputError(f"--trials must be >= 1, got {args.trials}")
    spec = GridSpec.uniform(args.n, 3, args.r)
    p = parse_p_expression(args.p, spec.n)
    g = float(gamma_of_r(args.r))
    s = s_of_r(args.r)
    kmax = s + 1
    bounds = [spec.n ** (1.0 - k * g / (args.r - g)) for k in range(1, kmax + 1)]
    within = np.zeros(kmax, dtype=np.int64)
    sums = np.zeros(kmax, dtype=np.float64)
    maxima = np.zeros(kmax, dtype=np.int64)
    all_within = 0
    for i in range(args.trials):
        codes = sample_codes(spec, p, TrialSeed(args.seed, i))
        state = percolation_run(spec, codes)
        stats = plane_statistics(spec, state)
        prof = stats.n_k_profile(kmax)
        ok = True
        for k in range(kmax):
            sums[k] += prof[k]
            maxima[k] = max(maxima[k], prof[k])
            if prof[k] <= bounds[k]:
                within[k] += 1
            else:
                ok = False
        all_within += int(ok)
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
    if args.samples < 0:
        raise InputError(f"--samples must be >= 0, got {args.samples}")
    if not 0 <= args.seed < 2**64:
        raise InputError(f"--seed must lie in [0, 2^64), got {args.seed}")
    spec = GridSpec.uniform(args.n, args.d, args.r)
    # each sample permutes all n^d sites and certifies its closure
    require_small_grid(spec, "minset verify")
    block = [
        tuple(c + 1 for c in digits)
        for digits in itertools.product(range(args.r), repeat=args.d)
    ]
    block_ok = percolates(spec, block)
    rng = np.random.Generator(np.random.Philox(key=np.uint64(args.seed)))
    target = args.r**args.d - 1
    checked = 0
    for _ in range(args.samples):
        codes = rng.permutation(spec.num_sites)[:target]
        pts = [decode_point(spec, int(c)) for c in codes]
        certify_non_percolation(spec, pts)
        checked += 1
    rec = _base_record(spec, "minset_verify")
    rec.update(
        {
            "construction_percolates": bool(block_ok),
            "certificates_checked": checked,
            "all_ok": bool(block_ok) and checked == args.samples,
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


def _add_spec_flags(p, *, with_thresholds=True):
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--d", type=int, required=True)
    p.add_argument("--r", type=int, default=None)
    if with_thresholds:
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
    except (InputError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1
    except AssertionError as exc:
        print(f"internal assertion failed: {exc}", file=sys.stderr)
        return 2


def main() -> None:
    sys.exit(dispatch(sys.argv[1:]))
