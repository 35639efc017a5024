"""The bound chain, end to end, with its exact counterparts.

A bad set of low-dimensional labels is split off; lambda measures the
largest normalized character left behind and P the Plancherel mass removed.
The three bounds (weak product law, basis-averaged law, full conditional
law) are then compared against exhaustive enumeration at n = 2 and 3.
"""

from cosetlab import bounds
from cosetlab.groups import cached_group, involution_class

for n in (2, 3):
    group = cached_group(f"wreath:{n}")
    M = involution_class(group)
    bad = bounds.build_bad_set(group, M, "paper")
    print(f"{group.spec}: bad set {bad.label_strings()}")
    print(f"  lambda = {bad.lambda_value}, P = {bad.plancherel_mass}, "
          f"Delta = {bounds.delta(bad)}")
    print(f"  lambda <= n^(-n/5) holds exactly: {bounds.lambda_cutoff_holds(bad, n)}")

print("\nfull pipeline, wreath:2, two registers:")
report = bounds.theorem_pipeline(2, 2, seed=1, trials=8)
bound, exact = report["bounds"], report["exact"]
print(f"  weak:        bound {bound['weak_tv']['value']:.4f}  "
      f"exact {exact['weak_tv']['value']:.4f}")
print(f"  expectation: bound {bound['expectation_tv']['value']:.4f}  "
      f"exact max {exact['expectation_tv_max']:.4f}")
print(f"  full:        bound {bound['full_tvd']:.4f}  "
      f"exact max {exact['full_tv_max']:.4f}")
print(f"  variance:    Delta {report['delta']['value']:.4f}  "
      f"exact max {exact['expected_variance_max']:.6f}")
print(f"  zero-rank tuple mass (scored pessimally): {exact['zero_rank_mass']['exact']}")
print(f"  per-triple distance quantiles: {report['quantiles']}")
print(f"  trivial-subgroup control distance: {report['control_trivial_tv']}")
print(f"  all checks pass: {report['all_pass']}")

print("\nsampled mode (tuple space too large to enumerate), wreath:4:")
report = bounds.theorem_pipeline(4, 1, seed=1, trials=6)
print(f"  mode {report['mode']}, lambda = {report['bad_set']['lambda']['exact']}, "
      f"P = {report['bad_set']['plancherel_mass']['exact']}")
print(f"  full bound {report['bounds']['full_tvd']:.4f}, "
      f"sampled mean {report['exact']['full_tv_mean']:.4f}")
print(f"  all checks pass: {report['all_pass']}")
