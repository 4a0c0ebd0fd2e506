"""Three schedules, one closure: generations, half-steps, and line scans.

The synchronous process advances whole generations; the alternating 2D
process saturates only horizontal lines in one half-step and only vertical
lines in the next, recording the line-count (h, v); the sequential process
inspects a single line per step, in passes over the lines.  All reach the same fixed
point, which is what makes the instrumented variants trustworthy.
"""

import numpy as np

from lineperc import (
    GridSpec,
    classify_line_count,
    encode_points,
    is_slow,
    preface_of,
    run_alternating_2d,
    run_sequential,
    run_synchronous,
    s_of_r,
)
from lineperc.sampling import TrialSeed, sample_codes

spec = GridSpec.uniform(8, 2, 3)
# the runners take point codes; encode_points turns points into them
block = encode_points(spec, [(x, y) for x in range(1, 4) for y in range(1, 4)])

state, trace = run_synchronous(spec, block)
print("synchronous from [3]^2 on [8]^2, r=3:")
for g, counts in enumerate(trace.round_axis_counts, start=1):
    print(f"  round {g}: {counts[0]} horizontal, {counts[1]} vertical")

state, lc = run_alternating_2d(spec, block)  # stops at 3 parallel lines
print(f"\nalternating with stop rule: h={lc.h} v={lc.v} "
      f"-> {classify_line_count(lc, 3).value}")

# a run that needs several half-steps before one direction wins
spec = GridSpec.uniform(64, 2, 2)
rng_seed = TrialSeed(424242, 7)
p = 2.2 * 64.0**-1.5
codes = sample_codes(spec, p, rng_seed)
state, lc = run_alternating_2d(spec, codes)
cls = classify_line_count(lc, 2)
print(f"\nrandom seed at p={p:.4f} on [64]^2, r=2: h={lc.h} v={lc.v} -> {cls.value}")
if cls.value != "none":
    pref = preface_of(lc, 2)
    s = s_of_r(2)
    print(f"  preface h={pref.h} v={pref.v}, slow (s={s}): {is_slow(pref, s)}")

# sequential: one line per step, in passes over the lines; each pass that
# saturates a line is one round of the trace
spec = GridSpec.uniform(5, 2, 2)
state, trace = run_sequential(
    spec, encode_points(spec, [(1, 1), (2, 1), (1, 3), (2, 3), (4, 4)])
)
print(f"\nsequential on [5]^2: {len(trace.line_ids)} saturations")
for g, counts in enumerate(trace.round_axis_counts, start=1):
    print(f"  pass {g}: {counts[0]} horizontal, {counts[1]} vertical")
print(f"  final infected: {state.infected_total} points")

# all three schedules agree on random instances
rng = np.random.default_rng(0)
spec = GridSpec.uniform(9, 2, 2)
agree = 0
for i in range(200):
    k = int(rng.binomial(81, 0.2))
    codes = rng.choice(81, size=k, replace=False).astype(np.int64)
    a, _ = run_synchronous(spec, codes)
    b, _ = run_sequential(spec, codes)
    c, _ = run_alternating_2d(spec, codes, stop_rule=False)
    sets = [set(s.infected_codes().tolist()) for s in (a, b, c)]
    agree += int(sets[0] == sets[1] == sets[2])
print(f"\nschedule invariance on 200 random instances: {agree}/200 agree")
