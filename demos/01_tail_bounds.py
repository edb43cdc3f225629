"""How tight are the two tail bounds on the knapsack overflow probability?

Builds a handful of random solutions, computes the capacity each bound
certifies at a few alpha levels, and checks everything against a Monte-Carlo
estimate of the true overflow probability.
"""

import numpy as np

from dcckp import ChanceParams, generate_instance, monte_carlo_violation, tail_bound

inst = generate_instance("uncorrelated", 100, delta=25, seed=7)
weights = inst.weights
rng = np.random.default_rng(0)

print(f"instance: n={inst.n}, delta={inst.delta}, "
      f"total expected weight={inst.total_expected_weight()}")

for k in (10, 50):
    idx = rng.choice(inst.n, size=k, replace=False)
    bits = np.zeros(inst.n, np.uint8)
    bits[idx] = 1
    ew = int(weights[idx].sum())
    print(f"\nsolution with {k} items, expected weight {ew}")
    print(f"{'alpha':>8} {'C*_chebyshev':>14} {'C*_chernoff':>13} "
          f"{'MC at C*_cheby':>14} {'MC at C*_chern':>14}")
    for alpha in (0.1, 0.01, 0.001):
        # one bound object per (alpha, delta, family): C* = E(W) + margin[k]
        c1 = tail_bound(ChanceParams(alpha, inst.delta, "chebyshev"), inst.n).cstar(ew, k)
        c2 = tail_bound(ChanceParams(alpha, inst.delta, "chernoff"), inst.n).cstar(ew, k)
        # one set of draws serves both capacities
        mc1, mc2 = monte_carlo_violation(inst, bits, [c1, c2], 200_000, seed=1)
        print(f"{alpha:>8} {c1:>14.1f} {c2:>13.1f} {mc1:>14.5f} {mc2:>14.5f}")

print("""
The Chernoff margin grows like sqrt(k)·log(1/alpha) and is far smaller than
the Chebyshev margin at tight alpha — that gap is exactly why the
Chernoff-guided solvers track the optimum so much better in the benchmark.
The Monte-Carlo columns confirm both capacities are safe (true overflow
probability well below alpha).
""")

# the violation-probability view of the same thing, at a fixed capacity
# (the closed-form tail does not depend on alpha)
ew, k = 30_000, 50
cheby = tail_bound(ChanceParams(0.01, 25, "chebyshev"), k)
chern = tail_bound(ChanceParams(0.01, 25, "chernoff"), k)
print(f"violation probability at E(W)={ew}, k={k}:")
for gap in (200, 500, 1000, 2000):
    c = ew + gap
    print(f"  C = E + {gap:>5}: chebyshev {cheby.tail(ew, k, c):.5f}"
          f"  chernoff {chern.tail(ew, k, c):.6f}")
