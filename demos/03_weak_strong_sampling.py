"""Weak and strong Fourier sampling of coset states, exactly.

Weak sampling observes only the representation name; its law depends on
the hidden subgroup only through projector ranks, so it is exact rational.
Strong sampling measures inside the representation space in a chosen
orthonormal basis.  With the trivial subgroup both stages are flat, which
is the control every experiment is compared against.
"""

from cosetlab.errors import ZeroRankError
from cosetlab.groups import cached_group, involution_class, parse_cycles
from cosetlab.irreps import group_irreps
from cosetlab.rng import CounterRng
from cosetlab.sampling import (
    HiddenSubgroup,
    MeasurementBasis,
    strong_dist,
    weak_dist,
    weak_dist_tuples,
)

sym = cached_group("sym:3")
hidden = HiddenSubgroup(sym, parse_cycles("(01)", 3))
trivial = HiddenSubgroup(sym)

print("weak sampling on sym:3, hidden subgroup {e, (01)}:")
for lab, p in weak_dist(sym, hidden).outcomes:
    print(f"  {lab:>8}  {p}")
print("same, trivial subgroup (Plancherel):")
for lab, p in weak_dist(sym, trivial).outcomes:
    print(f"  {lab:>8}  {p}")

print("\ntwo-register weak law is the product measure:")
for lab, p in weak_dist_tuples(sym, hidden, 2).outcomes[:4]:
    print(f"  {lab:>16}  {p}")
print("  ...")

std = next(r for r in group_irreps(sym) if r.dim == 2)
print(f"\nstrong sampling inside {std.name} (standard basis):")
dist = strong_dist(sym, std.label, hidden, MeasurementBasis.standard(2))
print(" ", [round(float(p), 6) for p in dist.values()])

basis = MeasurementBasis.haar(2, CounterRng(7, "demo"))
dist = strong_dist(sym, std.label, hidden, basis)
print("strong sampling, seeded random basis:")
print(" ", [round(float(p), 6) for p in dist.values()])
dist = strong_dist(sym, std.label, trivial, basis)
print("same basis, trivial subgroup (exactly uniform):")
print(" ", [str(p) for p in dist.exact_values()])

wreath = cached_group("wreath:2")
m = involution_class(wreath).members[0]
wh = HiddenSubgroup(wreath, m)
print(f"\nweak sampling on wreath:2, m = {m}:")
for lab, p in weak_dist(wreath, wh).outcomes:
    print(f"  {lab:>10}  {p}")

# labels whose subgroup projector has rank zero can never be measured past
# the weak stage; asking for their strong law is a typed error
sign = next(r for r in group_irreps(wreath) if r.name == "([2],-)")
try:
    strong_dist(wreath, sign.label, wh, MeasurementBasis.standard(1))
except ZeroRankError as exc:
    print(f"\nzero-rank label: {exc}")
