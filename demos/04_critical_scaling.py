"""Finite-size scaling of the critical density.

Each trial assigns every site an i.i.d. uniform weight; the sample's
critical density p* is the smallest weight whose sublevel set percolates,
found in one pass along the weight order: sites join a single growing
cascade, lightest first, until it percolates (one coupled cascade pipeline
yields the entire theta curve).  Medians of p* scale like n^(-1-1/r) in 2D
and n^(-1-1/(r-gamma)) in 3D; a log-log fit over a handful of sizes already
lands on the predicted exponents.
"""

from lineperc import GridSpec, estimate_pc, fit_exponent, gamma_of_r, lambda_r

print("2D, r=2: median p* over n, scaled by n^(3/2)")
pts = []
for n in (64, 128, 256, 512):
    est = estimate_pc(GridSpec.uniform(n, 2, 2), trials=800, master_seed=7)
    pts.append((n, est.median))
    print(f"  n={n:4d}: median={est.median:.3e}  "
          f"median*n^1.5={est.median * n**1.5:.4f}  "
          f"CI*n^1.5=[{est.ci_low * n**1.5:.4f}, {est.ci_high * n**1.5:.4f}]")
fit = fit_exponent(pts)
print(f"  fitted slope {fit.slope:.4f} +- {fit.stderr:.4f}; "
      f"theory: -1-1/r = -1.5, constant lambda = {lambda_r(2):.4f}")

print("\n3D, r=2: gamma = {} so the predicted exponent is -2".format(gamma_of_r(2)))
pts = []
for n in (24, 32, 48, 64):
    est = estimate_pc(GridSpec.uniform(n, 3, 2), trials=400, master_seed=7)
    pts.append((n, est.median))
    print(f"  n={n:4d}: median={est.median:.3e}  median*n^2={est.median * n**2:.4f}")
fit = fit_exponent(pts)
print(f"  fitted slope {fit.slope:.4f} +- {fit.stderr:.4f}")

print("\nthe same samples give the whole curve: theta_p = P(p* <= p)")
est = estimate_pc(GridSpec.uniform(128, 2, 2), trials=800, master_seed=9)
for mult in (0.6, 0.8, 1.0, 1.25, 1.6):
    p = mult * est.median
    print(f"  theta({mult:4.2f} * median) ~ {est.ecdf(p):.3f}")
