"""
Building and validating finite rings and groups
===============================================

Every structure is a pair of dense index tables; construction runs the
full axiom battery, so a bad table never gets far.
"""

from jrl import FiniteRing, builtin_ring, builtin_group
from jrl.errors import ValidationError
from jrl.fileio import ring_file_text

# a few members of the built-in catalog
for name in ("Z4", "M2F2", "T2Z4", "H32"):
    R = builtin_ring(name)
    kind = "commutative" if R.is_commutative() else "non-commutative"
    print(f"{R.name}: order {R.order}, characteristic {R.characteristic()}, {kind}")
    print(f"  additive generators: {R.additive_generating_set()}")

print()

for name in ("C8", "D4", "Q8", "S3", "D4xD4"):
    G = builtin_group(name)
    kind = "abelian" if G.is_abelian else "non-abelian"
    print(f"{G.name}: order {G.order}, {kind}")

# hand-built ring: integers mod 6
n = 6
add = [[(a + b) % n for b in range(n)] for a in range(n)]
mul = [[(a * b) % n for b in range(n)] for a in range(n)]
Z6 = FiniteRing("Z6", add, mul, zero=0, one=1)
print(f"\nhand-built {Z6.name} validated, characteristic {Z6.characteristic()}")

# corrupt one product entry and watch validation object
mul[3][3] = 4
try:
    FiniteRing("Z6broken", add, mul, zero=0, one=1)
except ValidationError as err:
    print(f"corrupted table rejected: {type(err).__name__}: {err}")

# the same tables as a text file
print("\nZ4 in file form:")
print(ring_file_text(builtin_ring("Z4")))
