"""Reproducible Bernoulli initial sets and the monotone p* coupling.

Every trial owns a counter-based Philox stream keyed by
(master_seed, trial_index), so results are a pure function of the seed pair
and identical under any parallel schedule.  The two words are the whole
Philox key and the counter starts at 0, so opening a stream draws no OS
entropy (Salmon et al., "Parallel random numbers: as easy as 1, 2, 3",
SC'11).  Samples are point codes, the seed format of every cascade
(``grid.decode_point`` turns one into a point).

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
percolation is proved.  ``realize_coupled`` yields each cap's new sites
alone, already in weight order; they are grown as one array, and the kernel
counts the seeds between two cascades in one step.  Because the
closure is monotone in the seed set, each line saturates at most once per
trial.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterator

import numpy as np
from numpy.random import Generator, Philox
from numpy.random.bit_generator import ISeedSequence

from . import theory
from .engine import Cascade2D, InfectionState, new_state
from .grid import GridSpec, InputError, as_int

# sites one sample may draw: the draw peaks at about 150 bytes of RSS per code
# and a theta trial on it at about 320 (measured at 1M and 4M codes, d = 1)
MAX_DRAWN_SITES = 1 << 22


@dataclass(frozen=True)
class TrialSeed:
    """Key of one trial's random stream; fully determines every draw.

    Each number is one 64-bit Philox key word, so one that is no integer or
    lies outside [0, 2^64) is refused: it would alias another.  The two
    words are the whole key, and ``generator`` draws no OS entropy.
    """

    master_seed: int
    trial_index: int

    def __post_init__(self):
        for name, value in (("master_seed", self.master_seed),
                            ("trial_index", self.trial_index)):
            if not 0 <= as_int(value, name) < 2**64:
                raise InputError(f"{name} must lie in [0, 2^64), got {value}")

    def generator(self) -> Generator:
        """A fresh generator at the start of this trial's stream."""
        return Generator(Philox(_PhiloxKey(self.master_seed, self.trial_index)))


class _PhiloxKey(ISeedSequence):
    """Hands Philox its two key words as they are.  ``Philox(key=...)`` would
    first fill a ``SeedSequence`` from OS entropy and then discard it; given
    a seed sequence, Philox asks it only for ``generate_state(2, uint64)``,
    the key.  Any other request is refused, so a numpy that asked for more
    would fail here rather than key the stream wrongly."""

    def __init__(self, *words: int):
        self.words = words

    def generate_state(self, n_words, dtype):
        if n_words != 2 or np.dtype(dtype) != np.uint64:
            raise RuntimeError(
                f"Philox asked for {n_words} words of {np.dtype(dtype)}, "
                "not its 2 uint64 key words")
        return np.array(self.words, dtype=np.uint64)


@dataclass(frozen=True)
class PcSample:
    """Per-sample critical probability from the coupling."""

    p_star: float
    degenerate: bool
    n_realized: int  # sites realized up to the cap that holds p*
    n_probes: int  # caps visited
    # the cascade grown on A_{p*}, stopped at the proof that it percolates;
    # None for a degenerate sample
    witness: Cascade2D | InfectionState | None = field(
        default=None, compare=False, repr=False
    )


def _check_drawn(k: int) -> None:
    if k > MAX_DRAWN_SITES:
        raise InputError(
            f"a sample of {k} sites is more than the supported {MAX_DRAWN_SITES}"
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
    _check_drawn(k)
    if k == n_sites:
        return np.arange(n_sites, dtype=np.int64)
    return _draw_distinct_codes(rng, n_sites, k, set())


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
    spec: GridSpec, seed: TrialSeed
) -> Iterator[tuple[float, np.ndarray, np.ndarray]]:
    """Yield ``(cap, codes, weights)`` at caps c, 2c, ..., 1.0, starting at
    c = 2 * ``pc_guess(spec)`` (one shared stream): the sites new in
    (previous cap, cap], sorted by weight, then code.

    Every site is realized at exactly one cap, so no code repeats across
    caps, and each cap's weights lie in [previous cap, cap].
    """
    rng = seed.generator()
    n_sites = spec.num_sites
    cap_prev = 0.0
    cap = min(1.0, 2.0 * pc_guess(spec))
    drawn = 0
    taken: set[int] = set()
    while True:
        q = (cap - cap_prev) / (1.0 - cap_prev)
        remaining = n_sites - drawn
        k_new = int(rng.binomial(remaining, q)) if q < 1.0 else remaining
        drawn += k_new
        _check_drawn(drawn)
        codes = _draw_distinct_codes(rng, n_sites, k_new, taken)
        weights = cap_prev + (cap - cap_prev) * rng.random(k_new)
        order = np.lexsort((codes, weights))
        yield cap, codes[order], weights[order]
        if cap >= 1.0:
            return
        cap_prev = cap
        cap = min(1.0, 2.0 * cap)


def critical_p_of_sample(spec: GridSpec, seed: TrialSeed) -> PcSample:
    """p* = the smallest realized weight w with A_w percolating.

    Found in one pass in weight order: each cap's new sites from
    ``realize_coupled``, all heavier than the sites before them, are grown
    as they arrive, in weight order, into a single cascade state.  p* is the
    weight of the first site after which the grown cascade proves
    percolation; the state was at a non-percolating fixed point just before
    it, which certifies percolates(A_{p*}) and not percolates(A_{p*-eps}).
    The grown state is returned as ``witness`` (its ``seeds`` are exactly
    A_{p*}); ``n_realized`` counts the sites of every cap visited, and
    ``n_probes`` the caps.

    When n is below every threshold no line can ever saturate, and the
    conventional result is p* = 1 with ``degenerate`` set (the full grid is
    trivially its own closure, but the cascade logic never fires).  With
    mixed thresholds, lines of an axis whose threshold is at most n can
    still saturate and fill the grid, so such a sample is not degenerate.
    """
    if spec.n < min(spec.thresholds):
        return PcSample(1.0, True, 0, 0)
    state = new_state(spec, ())
    realized = 0
    for caps, (_, codes, weights) in enumerate(realize_coupled(spec, seed), 1):
        realized += codes.size
        k = state.grow(codes)
        if k:
            return PcSample(float(weights[k - 1]), False, realized, caps, state)
    raise AssertionError("the full grid always percolates at cap 1.0")
