"""How approximation quality responds to the rate parameter b.

Part one holds m = exp(a*b + c) = e^0.1 fixed while b shrinks: the
total-variation distance between the exact posterior and the closed-form
discretized gamma (taken as a full pmf on k >= 0) is non-increasing, but it
levels off near 0.058 instead of going to 0.  With sqrt(m) > 1 the domain
w > 0 ends at rate = sqrt(m) - 1 (b = 0.0488 here), so b cannot go to 0 at
this m: the column w falls to 0.0246 at b = 0.05, next to that edge.  Part
two runs the bundled reference grid and shows every metric deteriorating at
the larger rate.
"""

from gpgamma import (
    derive_params,
    exact_posterior,
    full_support_tv,
    sweep,
    theorem1_gamma,
)

X_OBSERVED = 10

print("1) fixed m = e^0.1, shrinking b (closed-form gamma, full-support TV)")
print(f"{'b':>6} {'c':>8} {'w':>10} {'tv':>12}")
for b in (0.4, 0.2, 0.1, 0.05):
    a = 1.5
    c = 0.1 - a * b
    params = derive_params(a, b, c)
    table = exact_posterior(params, X_OBSERVED)
    tv = full_support_tv(table, theorem1_gamma(params, X_OBSERVED))
    print(f"{b:>6} {c:>8.3f} {params.w:>10.4f} {tv:>12.8f}")

print("\n2) reference grid, both kinds (window-renormalized metrics)")
grid = [
    (a, b, c, x)
    for (a, b, c) in ((1.5, 0.1, -0.05), (1.5, 0.5, -0.05))
    for x in (5, 10, 20)
]
print(f"{'b':>6} {'x':>4} {'kind':<16} {'tv':>10} {'kl':>10} {'sup':>10} {'ineq':>6}")
for res in sweep(grid):
    rep = res.report
    print(f"{res.b:>6} {res.x:>4} {rep.kind:<16} {rep.tv:>10.6f} "
          f"{rep.kl:>10.6f} {rep.sup_abs:>10.6f} {str(rep.inequality_holds):>6}")

print("\nShrinking b at fixed m = e^0.1 never hurts the closed-form approximation,")
print("but its TV levels off near 0.058 as w nears 0; at b = 0.5 every distance")
print("metric is worse than its b = 0.1 counterpart.")
