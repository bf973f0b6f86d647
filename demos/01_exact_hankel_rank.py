"""Multi-vectors as polynomials, catalecticants, and rank-one Hankel matrices.

A multi-vector on the box N = (N_1, ..., N_r) is the coefficient table of a
polynomial with per-variable degree bounds; the convolution mu multiplies
polynomials.  A catalecticant is the symmetric multi-matrix whose (i, j)
entry depends only on i + j; over one axis that is a classical Hankel matrix.
"""

from fractions import Fraction as F

from orbitquad import Box, MultiVector, catalecticant, mu, rank, rank_one_factor

box = Box((2,))
print("box indices (coefficient slots for degree <= 2):", box.indices())

f = MultiVector.from_entries(box, [1, 1, 0])   # 1 + x
g = MultiVector.from_entries(box, [0, 2, 1])   # 2x + x^2
print("\n(1 + x) * (2x + x^2) =", mu(f, g).data, "on", box.doubled().indices())

square = mu(f, f)
print("(1 + x)^2            =", square.data)

# Hankel matrices of geometric sequences have rank one: b_k = t^k gives
# B = u u^t with u = (1, t, t^2).
t = F(3, 2)
b = MultiVector.from_entries(Box((2,)).doubled(), [t ** k for k in range(5)])
B = catalecticant(b)
m = B.as_mat()
print("\nHankel matrix of the geometric sequence t =", t)
for row in m.data:
    print("  ", [str(e) for e in row])
print("rank:", rank(m))
print("projective factor:", [str(e) for e in rank_one_factor(m)])

# A non-geometric sequence loses the rank-one property.
b2 = MultiVector.from_entries(Box((2,)).doubled(), [1, 2, 3, 4, 6])
print("\nperturbed sequence rank:", rank(catalecticant(b2).as_mat()))

# Serialization keeps rationals exact: only the defining vector is stored.
print("\ncatalecticant JSON:", b.to_json())
