"""Reproducible Bernoulli initial sets and the monotone p* coupling.

Every trial owns a counter-based Philox stream keyed by
(master_seed, trial_index), so results are a pure function of the seed pair
and identical under any parallel schedule.

The coupling assigns every site an i.i.d. uniform weight; A_p is the set of
sites with weight <= p, which is monotone in p.  The per-sample critical
probability p* is the smallest realized weight whose prefix percolates.
Sites are only ever materialized below a growing cap: the count of new sites
in (cap_prev, cap] is Binomial(remaining, (cap-cap_prev)/(1-cap_prev)) and
their weights are uniform on that interval, which reproduces the Bernoulli
field exactly without touching all n^d sites.

p* is found in one pass in weight order (the add-one-site sweep of Newman &
Ziff, PRL 85, 4104 (2000)): the realized sites are fed, lightest first, into a
single growing cascade, which stops at the first site after which
percolation is proved.  Because the closure is monotone in the seed set, each
line saturates at most once per trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np

from . import theory
from .engine import Cascade2D, InfectionState, new_state
from .grid import GridSpec, InputError, Point, decode_point

_MASK64 = (1 << 64) - 1


@dataclass(frozen=True)
class TrialSeed:
    """Key of one trial's random stream; fully determines every draw."""

    master_seed: int
    trial_index: int

    def generator(self) -> np.random.Generator:
        return np.random.Generator(
            np.random.Philox(
                key=np.array(
                    [self.master_seed & _MASK64, self.trial_index & _MASK64],
                    dtype=np.uint64,
                )
            )
        )


@dataclass
class CoupledSample:
    """Realized sites with weight below the cap, sorted by weight."""

    spec: GridSpec
    cap: float
    codes: np.ndarray  # int64, sorted by weight
    weights: np.ndarray  # float64, ascending


@dataclass(frozen=True)
class PcSample:
    """Per-sample critical probability from the coupling."""

    p_star: float
    degenerate: bool
    trial: TrialSeed
    n_realized: int  # sites realized up to the cap that holds p*
    n_probes: int  # caps visited, i.e. coupled samples drawn
    # the cascade grown on A_{p*}, stopped at the proof that it percolates;
    # None for a degenerate sample
    witness: Cascade2D | InfectionState | None = field(
        default=None, compare=False, repr=False
    )


def _draw_distinct_codes(
    rng: np.random.Generator, n_sites: int, k: int, taken: set[int]
) -> np.ndarray:
    """k uniform distinct codes outside ``taken``, by rejection."""
    out: list[int] = []
    seen = taken
    while len(out) < k:
        batch = rng.integers(0, n_sites, size=max(2 * (k - len(out)), 16))
        for c in batch.tolist():
            if c not in seen:
                seen.add(c)
                out.append(c)
                if len(out) == k:
                    break
    return np.asarray(out, dtype=np.int64)


def sample_codes(spec: GridSpec, p: float, seed: TrialSeed) -> np.ndarray:
    """Codes of a Bernoulli(p) initial set: K ~ Bin(n^d, p), then K distinct
    uniform sites."""
    if not (0.0 <= p <= 1.0):
        raise InputError(f"p must lie in [0, 1], got {p}")
    rng = seed.generator()
    n_sites = spec.num_sites
    k = int(rng.binomial(n_sites, p))
    if k == n_sites:
        return np.arange(n_sites, dtype=np.int64)
    return _draw_distinct_codes(rng, n_sites, k, set())


def sample_initial(spec: GridSpec, p: float, seed: TrialSeed) -> set[Point]:
    """A Bernoulli(p) random subset of [n]^d as a set of points."""
    return {decode_point(spec, int(c)) for c in sample_codes(spec, p, seed)}


def pc_guess(spec: GridSpec) -> float:
    """Theory-guided starting cap for the coupled search (speed only)."""
    n, d = spec.n, spec.d
    r = max(spec.thresholds)
    if d == 1:
        return min(1.0, 3.0 * r / n)
    if r < 2:
        return min(1.0, 3.0 / n**d)
    if d == 2:
        return min(1.0, theory.lambda_r(r) * n ** (-1.0 - 1.0 / r))
    if d == 3:
        g = float(theory.gamma_of_r(r))
        return min(1.0, n ** (-1.0 - 1.0 / (r - g)))
    return min(1.0, n ** (-1.0 - 1.0 / r))


def realize_coupled(
    spec: GridSpec, seed: TrialSeed, *, cap0: float | None = None
) -> Iterator[CoupledSample]:
    """Yield CoupledSamples at caps cap0, 2*cap0, ..., 1.0 (one shared stream).

    Consecutive samples extend each other: previously realized sites keep
    their codes and weights.
    """
    rng = seed.generator()
    n_sites = spec.num_sites
    cap_prev = 0.0
    cap = min(1.0, cap0 if cap0 is not None else 2.0 * pc_guess(spec))
    codes = np.zeros(0, dtype=np.int64)
    weights = np.zeros(0, dtype=np.float64)
    taken: set[int] = set()
    while True:
        q = (cap - cap_prev) / (1.0 - cap_prev)
        remaining = n_sites - codes.size
        k_new = int(rng.binomial(remaining, q)) if q < 1.0 else remaining
        if k_new:
            new_codes = _draw_distinct_codes(rng, n_sites, k_new, taken)
            new_w = cap_prev + (cap - cap_prev) * rng.random(k_new)
            codes = np.concatenate([codes, new_codes])
            weights = np.concatenate([weights, new_w])
            order = np.lexsort((codes, weights))
            codes = codes[order]
            weights = weights[order]
        yield CoupledSample(spec, cap, codes, weights)
        if cap >= 1.0:
            return
        cap_prev = cap
        cap = min(1.0, 2.0 * cap)


def critical_p_of_sample(
    spec: GridSpec, seed: TrialSeed, *, cap0: float | None = None
) -> PcSample:
    """p* = the smallest realized weight w with A_w percolating.

    Found in one pass in weight order: the caps of ``realize_coupled`` are
    visited in turn, and each cap's new sites, all heavier than the sites
    before them, are grown one by one into a single cascade state.  p*
    is the weight of the first site after which the grown cascade proves
    percolation; the state was at a non-percolating fixed point just before
    it, which certifies percolates(A_{p*}) and not percolates(A_{p*-eps}).
    The grown state is returned as ``witness`` (its seeds are exactly
    A_{p*}), and ``n_probes`` counts the caps visited.

    When n is below the largest threshold no line can ever saturate, and the
    conventional result is p* = 1 with ``degenerate`` set (the full grid is
    trivially its own closure, but the cascade logic never fires).
    """
    if spec.n < max(spec.thresholds):
        return PcSample(1.0, True, seed, 0, 0)
    state = new_state(spec, ())
    fed = 0
    caps = 0
    for sample in realize_coupled(spec, seed, cap0=cap0):
        caps += 1
        for k, code in enumerate(sample.codes[fed:].tolist(), start=fed + 1):
            if state.grow(code):
                return PcSample(
                    float(sample.weights[k - 1]), False, seed,
                    int(sample.codes.size), caps, state,
                )
        fed = sample.codes.size
    raise AssertionError("the full grid always percolates at cap 1.0")
