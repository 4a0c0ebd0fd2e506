"""Cascade basics: seed a block, watch whole lines flip.

In line percolation a line saturates as soon as it carries enough infected
points (the threshold of its axis), and then every point on it is infected.
An r x r block therefore takes over the whole square grid: its rows and
columns saturate immediately, after which every other line crosses r
saturated lines.
"""

from lineperc import (
    GridSpec,
    closure,
    encode_points,
    lines_through,
    naive_closure,
    percolates,
    run_synchronous,
)

spec = GridSpec.uniform(8, 2, 3)
block = [(x, y) for x in range(1, 4) for y in range(1, 4)]

state = closure(spec, block)
print(f"grid [8]^2, r=3, seed = [3]^2 ({len(block)} points)")
print(f"  percolates: {state.percolated}")
print(f"  infected:   {state.infected_total} of {spec.num_sites}")
print(f"  saturated:  {len(state.saturated_lines())} of {spec.num_lines} lines")

# below closure and percolates, a seed set is an array of point codes
codes = encode_points(spec, block)
state, trace = run_synchronous(spec, codes)
print(f"  as codes {codes.tolist()}: {trace.num_rounds} synchronous rounds, "
      f"percolates={state.percolated}")

# drop one corner point and the block is one short of the threshold pattern
defect = [p for p in block if p != (3, 3)]
state = closure(spec, defect)
print(f"\nsame seed minus (3,3): percolates={state.percolated}, "
      f"closure size {state.infected_total}")

# the sparse engine and the rescan-everything oracle always agree
seed = [(1, 1), (2, 1), (1, 2)]
small = GridSpec.uniform(3, 2, 2)
print(f"\n[3]^2 with r=2, seed {seed}:")
print(f"  engine: {sorted(closure(small, seed).infected_points())}")
print(f"  oracle: {sorted(naive_closure(small, seed))}")

# membership queries never materialize the grid
spec = GridSpec.uniform(4096, 2, 2)
state = closure(spec, [(1, 1), (2048, 1), (1, 2048)])
print(f"\n[4096]^2: row 1 and column 1 saturate from two points each, "
      "then the cascade dies")
print(f"  (3000, 1) infected: {state.is_infected((3000, 1))}")
print(f"  (3000, 2) infected: {state.is_infected((3000, 2))}")
print(f"  lines through (3000, 1): {lines_through(spec, (3000, 1))}")

# per-axis thresholds: rows need 2 points, columns need 3
mixed = GridSpec(5, 2, (2, 3))
rect = [(x, y) for x in (1, 2) for y in (1, 2, 3)]
print(f"\nthresholds (2,3) on [5]^2: [2]x[3] percolates: {percolates(mixed, rect)}")
