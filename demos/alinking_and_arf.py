"""Integer invariants: the pseudo-alinking number and the Arf invariant.

When the intersection form S - N has Smith form diag(1, ..., 1, 0), the
pseudo-alinking number is |x^t S y| for the primitive left and right
kernel vectors x, y of S - N, in any basis; when S - N is a zero row over
an identity block, x = y = e_1 and it is |S_11|.  The determinant route
(divide det(t*S - N) by t - 1, evaluate at 1, take the absolute value)
must agree.  We check that on a batch of random block-structured pairs.
"""
import random

from alexpoly import (
    ArfData,
    SeifertPair,
    UnimodularPair,
    alexander_matrix,
    arf,
    basis_change,
    det,
    intersection_form,
    pseudo_alinking_from_pair,
    pseudo_alinking_from_poly,
)

pair = SeifertPair(S=[[3, 0], [1, 1]], N=[[3, 0], [1, 0]], p=1, n=2)
print(f"S = {pair.S}")
print(f"intersection form = {intersection_form(pair)}")

poly = det(alexander_matrix(pair))
print(f"det(t*S - N) = {poly}")
print(f"pseudo-alinking via matrix:     {pseudo_alinking_from_pair(pair)}")
print(f"pseudo-alinking via polynomial: {pseudo_alinking_from_poly(poly)}")

moved = basis_change(pair, UnimodularPair([[1, 2], [0, 1]], [[1, 0], [-1, 1]]))
print(f"\nin another basis: S = {moved.S}, form = {intersection_form(moved)}")
print(f"pseudo-alinking via matrix:     {pseudo_alinking_from_pair(moved)}")

rng = random.Random(7)
agreements = 0
for _ in range(200):
    size = rng.randint(1, 4)
    s = [[rng.randint(-4, 4) for _ in range(size)] for _ in range(size)]
    neg = [
        [s[i][j] - (1 if (i == j and i > 0) else 0) for j in range(size)]
        for i in range(size)
    ]
    random_pair = SeifertPair(s, neg, p=1, n=2)
    via_pair = pseudo_alinking_from_pair(random_pair)
    via_poly = pseudo_alinking_from_poly(det(alexander_matrix(random_pair)))
    agreements += via_pair == via_poly
print(f"\nboth routes agree on {agreements}/200 random block pairs")

# The Arf invariant needs only the diagonal pairings of a Z2-symplectic
# basis: sum lk(x_i, x_i+) * lk(y_i, y_i+) mod 2.
data = ArfData(nu=2, a=(1, 1), b=(1, 0))
print(f"arf{data.a, data.b} = {arf(data)}")
