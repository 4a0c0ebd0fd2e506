"""Why r^d points are necessary: polynomial certificates, exactly.

Any set with fewer than r^d points admits a nonzero polynomial of degree at
most r-1 in each variable vanishing on it (the evaluation map out of an
r^d-dimensional space has a kernel).  Saturating a line pins r roots of a
degree-(r-1) univariate restriction, so the polynomial also vanishes on
everything the cascade ever infects -- and a nonzero such polynomial cannot
vanish on all of [n]^d.  The certificate below is exact integer arithmetic
end to end.
"""

import itertools

import numpy as np

from lineperc import (
    GridSpec,
    certify_non_percolation,
    closure,
    eval_rank,
    min_percolating_size,
    vanishing_polynomial,
)
from lineperc.grid import decode_point

r, d, n = 2, 2, 8
spec = GridSpec.uniform(n, d, r)

block = list(itertools.product(range(1, r + 1), repeat=d))
print(f"eval rank of [r]^d = {eval_rank(block, (r,) * d)} (full: {r**d}) "
      "-> no vanishing polynomial, and indeed the block percolates")

pts = [(1, 1), (5, 2), (3, 7)]
poly = vanishing_polynomial(pts, (r,) * d)
print(f"\n|A| = 3 < 4: vanishing polynomial {poly.text()}")
cert = certify_non_percolation(spec, pts)
print(f"certificate: closure has {cert.closure_size} points, "
      f"polynomial vanishes on every one, percolates = {cert.percolates}")

rng = np.random.default_rng(5)
checked = 0
for _ in range(200):
    codes = rng.choice(spec.num_sites, size=r**d - 1, replace=False)
    sample = [decode_point(spec, int(c)) for c in codes]
    certify_non_percolation(spec, sample)  # raises if anything is off
    checked += 1
print(f"\n{checked} random 3-point sets certified non-percolating")

print("\nexhaustive minimal sizes (bitmask cascade with pruning):")
for spec_, label in [
    (GridSpec.uniform(3, 2, 2), "n=3, d=2, r=2"),
    (GridSpec.uniform(4, 2, 3), "n=4, d=2, r=3"),
    (GridSpec.uniform(2, 3, 2), "n=2, d=3, r=2"),
    (GridSpec(4, 2, (2, 3)), "n=4, d=2, thresholds (2,3)"),
]:
    res = min_percolating_size(spec_)
    print(f"  {label}: min size {res.min_size} "
          f"({res.subsets_tested} candidate sets tested)")

state = closure(GridSpec.uniform(4, 2, 3), [(1, 1), (2, 2)])
print(f"\nand a sanity check the other way: 2 points on [4]^2 with r=3 "
      f"stay put (closure size {state.infected_total})")
