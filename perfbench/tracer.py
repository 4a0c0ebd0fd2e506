"""Spans around lineperc's public names, recorded from outside ``src/``.

``Tracer.install`` replaces each traced name where its caller looks it up
(``lineperc.sampling.percolation_run`` and ``lineperc.estimator.percolation_run``
are two lookups of one function) by a wrapper that records a span: name,
parent span, start and end on ``perf_counter_ns``.  Counts are read from
public return values only: ``PcSample.n_probes`` and ``n_realized``,
``state.trace.line_ids``, ``state.percolated`` and ``state.infected_total``.
Spans stay in memory and leave the job in its record file.

``job_totals`` turns one job's spans into sums, and ``layer_metrics`` turns
the sums of a run into the per-layer metrics listed in README.md.
"""

from __future__ import annotations

import time
from collections import defaultdict

_clock = time.perf_counter_ns

CRITICAL_P = "sampling.critical_p_of_sample"
REALIZE_STEP = "sampling.realize_coupled_step"
PERCOLATION_RUN = "engine.percolation_run"
CONSTRUCT = "engine.InfectionState.__init__"
RUNS = ("engine.run_fifo", "engine.run_rounds", "engine.run_half_steps")
ESTIMATES = ("estimator.estimate_pc", "estimator.estimate_theta")

# counts that are a pure function of code and inputs: two runs of the same
# code and seed must agree on them exactly
EXACT_COUNTS = ("probes", "realized", "saturations", "pool_starts")


def _pc_counts(sample, args, kwargs):
    return [sample.n_probes, sample.n_realized]


def _percolation_counts(state, args, kwargs):
    early = bool(state.percolated) and state.infected_total < state.spec.num_sites
    return [len(args[1]), len(state.trace.line_ids), int(bool(state.percolated)),
            int(early)]


def _saturations(result, args, kwargs):
    return len(args[0].trace.line_ids)


class Tracer:
    """In-memory span recorder for one job process (single-threaded)."""

    def __init__(self) -> None:
        self.names: list[str] = []
        self.spans: list[list] = []  # [name index, parent, start, end, counts]
        self._stack = [-1]
        self.pool_starts = 0

    def _name(self, name: str) -> int:
        self.names.append(name)
        return len(self.names) - 1

    def call(self, name: str, fn, counts=None):
        """``fn`` wrapped so that every call records one span."""
        key = self._name(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            span = [key, stack[-1], _clock(), 0, None]
            stack.append(len(spans))
            spans.append(span)
            try:
                result = fn(*args, **kwargs)
            finally:
                span[3] = _clock()
                stack.pop()
            if counts is not None:
                span[4] = counts(result, args, kwargs)
            return result

        return traced

    def steps(self, name: str, gen_fn):
        """Generator function ``gen_fn`` wrapped so that each step is a span;
        a step that yields has counts 1, the final exhausted step has none."""
        key = self._name(name)
        spans, stack = self.spans, self._stack

        def traced(*args, **kwargs):
            it = gen_fn(*args, **kwargs)
            while True:
                span = [key, stack[-1], _clock(), 0, None]
                stack.append(len(spans))
                spans.append(span)
                try:
                    item = next(it)
                except StopIteration:
                    return
                finally:
                    span[3] = _clock()
                    stack.pop()
                span[4] = 1
                yield item

        return traced

    def install_pool_counter(self) -> None:
        import lineperc.estimator as est

        pool_cls = est.ProcessPoolExecutor

        def counted_pool(*args, **kwargs):
            self.pool_starts += 1
            return pool_cls(*args, **kwargs)

        est.ProcessPoolExecutor = counted_pool

    def install(self) -> None:
        import lineperc.cli as cli
        import lineperc.engine as eng
        import lineperc.estimator as est
        import lineperc.processes as prc
        import lineperc.sampling as smp

        self.install_pool_counter()
        cli.build_id = self.call("cli.build_id", cli.build_id)
        cli.estimate_pc = self.call("estimator.estimate_pc", cli.estimate_pc)
        cli.estimate_theta = self.call("estimator.estimate_theta", cli.estimate_theta)

        smp.TrialSeed.generator = self.call(
            "sampling.TrialSeed.generator", smp.TrialSeed.generator
        )
        est.sample_codes = self.call("sampling.sample_codes", est.sample_codes)
        est.critical_p_of_sample = self.call(
            CRITICAL_P, est.critical_p_of_sample, _pc_counts
        )
        realize = self.steps(REALIZE_STEP, smp.realize_coupled)
        smp.realize_coupled = est.realize_coupled = realize

        run = self.call(PERCOLATION_RUN, eng.percolation_run, _percolation_counts)
        smp.percolation_run = est.percolation_run = run
        eng.InfectionState.__init__ = self.call(CONSTRUCT, eng.InfectionState.__init__)
        for name in RUNS:
            method = name.split(".")[1]
            setattr(
                eng.InfectionState,
                method,
                self.call(name, getattr(eng.InfectionState, method), _saturations),
            )

        est.check_2d_process_properties = self.call(
            "processes.check_2d_process_properties", est.check_2d_process_properties
        )
        est.run_alternating_2d = self.call(
            "processes.run_alternating_2d", est.run_alternating_2d
        )
        # imported inside check_2d_process_properties at call time
        prc.run_synchronous = self.call(
            "processes.run_synchronous", prc.run_synchronous
        )

    def export(self) -> dict:
        return {
            "names": self.names,
            "spans": self.spans,
            "pool_starts": self.pool_starts,
        }


def job_totals(record: dict) -> dict:
    """Sums over one traced job: calls, ns and self ns per span name, plus
    the counts the layer metrics need."""
    names, spans = record["names"], record["spans"]
    child_ns = [0] * len(spans)
    for _, parent, t0, t1, _ in spans:
        if parent >= 0:
            child_ns[parent] += t1 - t0
    tot: dict = defaultdict(int)
    pstar_ns: list[int] = []
    # per p* search: (smallest percolating prefix, its saturations, all saturations)
    searches: dict[int, list[int]] = {}
    for i, (key, parent, t0, t1, counts) in enumerate(spans):
        name = names[key]
        dur = t1 - t0
        tot[name + ".calls"] += 1
        tot[name + ".ns"] += dur
        tot[name + ".self_ns"] += dur - child_ns[i]
        parent_name = names[spans[parent][0]] if parent >= 0 else None
        if name == CRITICAL_P:
            pstar_ns.append(dur)
            tot["probes"] += counts[0]
            tot["realized"] += counts[1]
        elif name == REALIZE_STEP and counts and parent_name == CRITICAL_P:
            tot["caps"] += 1
        elif name == PERCOLATION_RUN:
            k, sats, percolated, early = counts
            tot["stop_runs"] += 1
            tot["early_stops"] += early
            if parent_name == CRITICAL_P:
                s = searches.setdefault(parent, [1 << 62, 0, 0])
                s[2] += sats
                if percolated and k < s[0]:
                    s[0], s[1] = k, sats
        elif name in RUNS:
            tot["runs"] += 1
            tot["saturations"] += counts
    tot["search_saturations"] = sum(s[2] for s in searches.values())
    tot["useful_saturations"] = sum(s[1] for s in searches.values())
    tot["pool_starts"] = record["pool_starts"]
    out = dict(tot)
    out["pstar_ns"] = pstar_ns
    return out


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def _quantile(sorted_vals: list, q: float) -> float:
    """Nearest-rank quantile; 0 for an empty list."""
    if not sorted_vals:
        return 0.0
    idx = min(len(sorted_vals) - 1, max(0, int(q * len(sorted_vals) + 0.5) - 1))
    return float(sorted_vals[idx])


def layer_metrics(jobs: list[dict], trials: int) -> dict[str, float]:
    """Per-layer metrics of the traced jobs of a run (``trials`` in total).

    Per-trial figures are sums over all jobs divided by all trials; a layer
    that never runs on the workload reports 0.
    """
    tot: dict = defaultdict(int)
    pstar: list[int] = []
    for job in jobs:
        for key, val in job.items():
            if key == "pstar_ns":
                pstar.extend(val)
            else:
                tot[key] += val
    pstar.sort()
    runs_self = sum(tot[n + ".self_ns"] for n in RUNS)
    checks = tot["processes.check_2d_process_properties.calls"]
    alternating = tot["processes.run_alternating_2d.calls"]
    return {
        "sampling.rng_us_per_trial":
            tot["sampling.TrialSeed.generator.ns"] / 1e3 / trials,
        "sampling.draw_us_per_trial": (
            tot["sampling.sample_codes.self_ns"] + tot[REALIZE_STEP + ".self_ns"]
        ) / 1e3 / trials,
        "sampling.caps_per_trial": tot["caps"] / trials,
        "sampling.realized_per_trial": tot["realized"] / trials,
        "sampling.probes_per_trial": tot["probes"] / trials,
        "sampling.pstar_ms_p50": _quantile(pstar, 0.50) / 1e6,
        "sampling.pstar_ms_p99": _quantile(pstar, 0.99) / 1e6,
        "sampling.saturation_yield":
            _ratio(tot["useful_saturations"], tot["search_saturations"]),
        "engine.runs_per_trial": tot["runs"] / trials,
        "engine.construct_us_per_run":
            _ratio(tot[CONSTRUCT + ".ns"], tot[CONSTRUCT + ".calls"]) / 1e3,
        "engine.saturations_per_trial": tot["saturations"] / trials,
        "engine.us_per_saturation": _ratio(runs_self, tot["saturations"]) / 1e3,
        "engine.early_stop_ratio": _ratio(tot["early_stops"], tot["stop_runs"]),
        "processes.check_ms_per_trial":
            tot["processes.check_2d_process_properties.ns"] / 1e6 / trials,
        "processes.alternating_ms_per_call":
            _ratio(tot["processes.run_alternating_2d.ns"], alternating) / 1e6,
        "processes.sync_fallback_ratio":
            _ratio(tot["processes.run_synchronous.calls"], checks),
        "estimator.self_s": sum(
            tot[n + ".self_ns"] for n in ESTIMATES
        ) / 1e9 / max(1, len(jobs)),
    }


def scipy_import_s(importtime_stderr: str) -> float:
    """Seconds spent importing scipy, from ``python -X importtime`` output:
    the cumulative time of every scipy module not imported by another."""
    rows = []
    for line in importtime_stderr.splitlines():
        if not line.startswith("import time:"):
            continue
        parts = line[len("import time:"):].split("|")
        if len(parts) != 3 or not parts[1].strip().isdigit():
            continue  # the header row
        raw = parts[2]
        name = raw.strip()
        depth = (len(raw) - len(raw.lstrip(" ")) - 1) // 2
        rows.append((depth, name, int(parts[1])))
    total_us = 0
    ancestors: list[str] = []
    # the output lists children before their parent; walk it parent-first
    for depth, name, cum_us in reversed(rows):
        del ancestors[depth:]
        if name.split(".")[0] == "scipy" and not any(
            a.split(".")[0] == "scipy" for a in ancestors
        ):
            total_us += cum_us
        ancestors.append(name)
    return total_us / 1e6
