"""Plane bookkeeping in three dimensions.

3D percolation is driven by planes: a plane that accumulates enough parallel
fully infected lines must fill, and enough full parallel planes force the
whole grid.  Per plane, ``plane_statistics`` counts the parallel saturated
lines in each in-plane direction (N_k counts planes holding at least k), and
``boosted_points`` replays the trace for the boosted points (points whose
first saturated line was perpendicular to the plane).  Below the critical
window these counters stay tiny.
"""

import numpy as np

from lineperc import GridSpec, gamma_of_r, plane_statistics, s_of_r
from lineperc.engine import new_state
from lineperc.processes import boosted_points
from lineperc.sampling import TrialSeed, sample_codes

r = 2
g = float(gamma_of_r(r))
s = s_of_r(r)
print(f"r={r}: s={s}, gamma={g}, critical exponent -1-1/(r-gamma) = {-1-1/(r-g)}")

n = 64
spec = GridSpec.uniform(n, 3, r)

# one saturated line lies in exactly two planes
state = new_state(
    spec, np.array([0, n - 1], dtype=np.int64)  # two ends of one axis-2 line
).run_rounds()
stats = plane_statistics(spec, state)
print(f"\nsingle saturated line: N_1={stats.n_k(1)}, N_2={stats.n_k(2)}, "
      f"boosted={boosted_points(spec, state).sum()}")

# deep subcritical: run to true termination; conditioned on not percolating,
# the counters stay tiny (the threshold is not sharp, so a stray trial can
# still percolate and fill every plane)
for c in (0.2, 0.5):
    p = c * float(n) ** (-1.0 - 1.0 / (r - g))
    profile = np.zeros(3, dtype=float)
    boosted = 0.0
    survived = 0
    percolated = 0
    trials = 300
    for i in range(trials):
        codes = sample_codes(spec, p, TrialSeed(606, i))
        state = new_state(spec, codes).run_rounds()
        if state.percolated:
            percolated += 1
            continue
        stats = plane_statistics(spec, state)
        profile += stats.n_k_profile(3)
        boosted += boosted_points(spec, state).sum()
        survived += 1
    profile /= survived
    print(f"\np = {c} * n^-2 = {p:.2e} ({trials} trials, run to termination)")
    print(f"  percolated {percolated}/{trials}; over the rest: "
          f"mean N_1={profile[0]:.2f}  N_2={profile[1]:.3f}  N_3={profile[2]:.3f}, "
          f"mean boosted {boosted / survived:.2f}")

bound = [n ** (1.0 - k * g / (r - g)) for k in (1, 2)]
print(f"\nsubcritical containment: the N_k stay within n^(1-k*gamma/(r-gamma)) "
      f"= {bound[0]:.0f}, {bound[1]:.3f} for small c")

# through the window: percolation frequency (early-stopped runs, so cheap)
from lineperc.engine import percolation_run

print("\npercolation frequency across the critical window (c * n^-2):")
for c in (0.5, 0.9, 1.5, 3.0):
    p = c * float(n) ** (-1.0 - 1.0 / (r - g))
    hits = sum(
        int(percolation_run(spec, sample_codes(spec, p, TrialSeed(707, i))).percolated)
        for i in range(200)
    )
    print(f"  c={c:3.1f}: {hits / 200:.2f}")
