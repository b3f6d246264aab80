"""Walk through the core capability: exact posterior vs gamma approximations.

Computes the exact posterior of the count level k for one observed count x
under two reference parameter sets (a small and a large exponential rate),
builds both gamma approximations, and prints the distance metrics plus a
small overlay excerpt around the posterior mode.
"""

import numpy as np

from gpgamma import (
    build_gamma,
    compare_kinds,
    derive_params,
    exact_posterior,
    posterior_moments,
)

X_OBSERVED = 10

for label, (a, b, c) in [
    ("small rate (b = 0.1)", (1.5, 0.1, -0.05)),
    ("large rate (b = 0.5)", (1.5, 0.5, -0.05)),
]:
    params = derive_params(a, b, c)
    print(f"\n=== {label}: a={a}, b={b}, c={c} ===")
    print(f"m = {params.m:.6f}, rate = b*sqrt(m) = {params.rate:.6f}, w = {params.w:.6f}")

    table = exact_posterior(params, X_OBSERVED)
    mu, var = posterior_moments(table)
    print(f"posterior support k = {table.k_min}..{table.k_max}, "
          f"tail bound {table.tail_bound:.2e}")
    print(f"posterior mean {mu:.4f}, variance {var:.4f}")

    discs = {}
    print(f"{'kind':<16} {'shape':>10} {'scale':>10} {'tv':>10} {'kl':>10} {'sup':>10}")
    for disc, rep in compare_kinds(table):
        discs[rep.kind] = disc
        g = build_gamma(rep.kind, table)  # for its shape and scale
        print(f"{rep.kind:<16} {g.shape:>10.4f} {g.scale:>10.4f} "
              f"{rep.tv:>10.6f} {rep.kl:>10.6f} {rep.sup_abs:>10.6f}")

    # overlay excerpt around the mode, plot-ready columns
    mode = table.k_min + int(np.argmax(table.probs))
    lo = max(table.k_min, mode - 3)
    print(f"\noverlay near the mode (k = {lo}..{mode + 3}):")
    print(f"{'k':>5} {'exact':>12} {'theorem1':>12} {'moment_matched':>15}")
    for k in range(lo, mode + 4):
        i = k - table.k_min
        print(f"{k:>5} {table.probs[i]:>12.6f} "
              f"{discs['theorem1'].probs[i]:>12.6f} "
              f"{discs['moment_matched'].probs[i]:>15.6f}")

print("\nThe moment-matched pair tracks the exact posterior much more closely,")
print("and both approximations degrade as the rate b*sqrt(m) grows.")
