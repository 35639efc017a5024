"""Character tables, dimensions, and the Plancherel measure.

Everything here is exact integer or rational arithmetic.  The key numbers
for the sampling story are the normalized characters chi(M)/d at the
block-swapping involution class: 0 for the pair labels, +-1/d for the
diagonal labels.  Small-dimensional diagonal labels are the troublemakers.
"""

from fractions import Fraction

from cosetlab.groups import cached_group, involution_class
from cosetlab.irreps import character_table, plancherel
from cosetlab.tableaux import dimension, hook_lengths, partitions

print("partitions of 4, with hook lengths and dimensions:")
for lam in partitions(4):
    print(f"  {lam}: hooks {hook_lengths(lam)}, dim {dimension(lam)}")

group = cached_group("wreath:3")
table = character_table(group)
dims = table.dims.tolist()

print(f"\n{group.spec}: {len(dims)} irreps, order {group.order}")
print(f"sum of squared dims: {sum(d ** 2 for d in dims)}")

M = involution_class(group)
pos = group.class_position(M.representative)
print(f"\nnormalized characters at the swap class (size {M.size}):")
for name, d, chi in zip(table.names, dims, table.chi[:, pos].tolist()):
    print(f"  {name:>18}  dim {d}  chi(M) = {chi:>3}  chi/d = {Fraction(chi, d)}")

print("\nPlancherel measure (weak-sampling law under the trivial subgroup):")
dist = plancherel(group)
for lab, p in dist.outcomes:
    print(f"  {lab:>18}  {p}")
print("total:", sum(dist.exact_values()))
