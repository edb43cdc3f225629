"""A miniature experiment campaign with statistical comparison.

Grids over the dynamic and stochastic parameters, runs every algorithm
variant several times with paired capacity trajectories, and labels each
pair of variants with the Kruskal-Wallis + Dunn/Bonferroni verdict:
X(+) better than variant X, X(-) worse, X(*) no significant difference.
"""

from dcckp import CampaignConfig, run_campaign
from dcckp.stats import kruskal_wallis

config = CampaignConfig(
    kind="uncorrelated", n=60,
    deltas=(25,), rs=(500,), taus=(500,), alphas=(0.001,),
    algos=("ea11", "posdc"), bounds=("chebyshev", "chernoff"),
    runs=6, total_iters=20_000, warmup=1_000, base_seed=12,
)
result = run_campaign(config)

print("variant key:")
for i, cell in enumerate(result.cells, start=1):
    print(f"  ({i}) {cell.algo}-{cell.bound}")

print(f"\n{'variant':>22} {'mean phi':>10} {'std':>8}   stat")
for row in result.summary_rows:
    print(f"{row['algo'] + '-' + row['bound']:>22} {row['mean']:>10.1f} "
          f"{row['std']:>8.1f}   {row['stat']}")

groups = [[result.records[(c, j)].total_offline_error for j in range(config.runs)]
          for c in result.cells]
h, p = kruskal_wallis(groups)
print(f"\nKruskal-Wallis over all four variants: H={h:.3f}, p={p:.2g}")

print("""
The per-run CSV (columns cell_id,algo,bound,r,tau,delta,alpha,run_seed,
total_offline_error,feasible_fraction,change_count) plus this summary are
what `dcckp run` writes to disk; `dcckp summarize` and `dcckp stats`
recompute the same numbers from the CSV alone. Child seeds are a pure
function of (base seed, cell coordinates, run index), so reruns — at any
parallelism — are byte-identical.
""")
