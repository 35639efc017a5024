"""Character tables, dimensions, and the Plancherel measure.

Everything here is exact integer or rational arithmetic.  The key numbers
for the sampling story are the normalized characters chi(M)/d at the
block-swapping involution class: 0 for the pair labels, +-1/d for the
diagonal labels.  Small-dimensional diagonal labels are the troublemakers.
"""

from fractions import Fraction

from cosetlab.groups import cached_group, involution_class
from cosetlab.irreps import (
    character_table,
    irrep_labels,
    label_dim,
    label_str,
    plancherel,
)
from cosetlab.tableaux import dimension, hook_lengths, partitions

print("partitions of 4, with hook lengths and dimensions:")
for lam in partitions(4):
    print(f"  {lam}: hooks {hook_lengths(lam)}, dim {dimension(lam)}")

group = cached_group("wreath:3")
labels = irrep_labels(group)
table = character_table(group)

print(f"\n{group.spec}: {len(labels)} irreps, order {group.order}")
print(f"sum of squared dims: {sum(label_dim(l) ** 2 for l in labels)}")

M = involution_class(group)
pos = group.class_position(M.representative)
print(f"\nnormalized characters at the swap class (size {M.size}):")
for lab in labels:
    chi = table[lab][pos]
    norm = Fraction(chi, label_dim(lab))
    print(f"  {label_str(lab):>18}  dim {label_dim(lab)}  chi(M) = {chi:>3}  chi/d = {norm}")

print("\nPlancherel measure (weak-sampling law under the trivial subgroup):")
dist = plancherel(group)
for lab, p in dist.outcomes:
    print(f"  {lab:>18}  {p}")
print("total:", sum(dist.exact_values()))
