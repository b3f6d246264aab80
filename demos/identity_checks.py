"""Numerically confirm the special-function identities behind the method.

Three checks:
  1. the power-sum identity (B_{n+1}(X) - b_{n+1})/(n+1) = sum_{r<X} r^n,
  2. the Lerch-transcendent form of the posterior normalizer against the
     same series as the posterior engine sums it (its log_normalizer),
  3. the Bernoulli expansion of the Lerch transcendent, whose truncation
     error shrinks as more correction terms are kept.
"""

from gpgamma import (
    derive_params,
    verify_bernoulli_expansion,
    verify_lerch_denominator,
)
from gpgamma.special import bernoulli_numbers, bernoulli_polynomial, power_sum

print("1) power-sum identity, spot checks")
print(f"{'n':>4} {'X':>4} {'power_sum':>16} {'via Bernoulli':>16}")
for n, upper in [(1, 3), (3, 4), (7, 12), (20, 30)]:
    direct = power_sum(n, upper)
    table = bernoulli_numbers(n + 1)
    via_b = (bernoulli_polynomial(n + 1, float(upper)) - table[n + 1]) / (n + 1)
    print(f"{n:>4} {upper:>4} {direct:>16.6g} {via_b:>16.6g}")

print("\n2) Lerch-form normalizer vs the posterior engine's sum (relative error)")
print(f"{'x':>4} {'b=0.1 set':>14} {'b=0.5 set':>14}")
small = derive_params(1.5, 0.1, -0.05)
large = derive_params(1.5, 0.5, -0.05)
for x in (1, 5, 10, 15):
    print(f"{x:>4} {verify_lerch_denominator(small, x):>14.2e} "
          f"{verify_lerch_denominator(large, x):>14.2e}")

print("\n3) Bernoulli expansion of the Lerch transcendent at x = 3")
print("   (relative deviation from the direct series, by correction terms kept)")
print(f"{'terms':>6} {'b=0.1 set':>14} {'b=0.5 set':>14}")
for terms in (1, 2, 4, 8):
    print(f"{terms:>6} {verify_bernoulli_expansion(small, 3, terms):>14.2e} "
          f"{verify_bernoulli_expansion(large, 3, terms):>14.2e}")
print("\nThe expansion converges faster when the rate b*sqrt(m) is small,")
print("which is exactly the regime where the gamma approximation is sharp.")
