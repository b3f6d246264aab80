"""Numerically confirm the Lerch-transcendent form of the posterior normalizer.

The normalizer in Lerch form (``denominator_lerch``) is checked against the
same series as the posterior engine sums it (its log_normalizer), at both
reference sets.  The Bernoulli expansion of the transcendent and the
power-sum identity are checked in the test suite, on mpmath.
"""

from gpgamma import derive_params, verify_lerch_denominator

print("Lerch-form normalizer vs the posterior engine's sum (relative error)")
print(f"{'x':>4} {'b=0.1 set':>14} {'b=0.5 set':>14}")
small = derive_params(1.5, 0.1, -0.05)
large = derive_params(1.5, 0.5, -0.05)
for x in (1, 5, 10, 15):
    print(f"{x:>4} {verify_lerch_denominator(small, x):>14.2e} "
          f"{verify_lerch_denominator(large, x):>14.2e}")
