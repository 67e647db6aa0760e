"""Seeded good data, degenerate data included, for the differential tests.

A diagonal datum t is the direct sum of one-dimensional solutions: d = t_a,
p = 1/t_a where t_a != 0, and the zero solution d = p = 0 where t_a = 0.
Such a sum passes the relations, and so does its image under any
orthogonal q, because the pairing is orthogonally invariant:

    d[i] = sum_a q[i][a] t[a],  p[i,j,k] = sum_{a: t[a] != 0} q[i][a] q[j][a] q[k][a] / t[a].

Over the rationals every orthogonal matrix is a product of reflections
(Cartan-Dieudonne), so products of seeded Householder reflections give dense
good data of any dimension.  A datum with some t_a = 0 is degenerate: its
annulus c is a projector other than the identity.
"""

import itertools
import random
from fractions import Fraction

from hypothesis import strategies as st

from tqft2d import TqftData

PYTHAGOREAN = ((3, 4, 5), (5, 12, 13), (8, 15, 17))


def conjugated(t, q):
    """The diagonal datum `t` (zeros allowed) conjugated by the orthogonal
    matrix `q`, given as rows."""
    n = len(t)
    t = [Fraction(v) for v in t]
    d = [sum((q[i][a] * t[a] for a in range(n)), Fraction(0)) for i in range(n)]
    p = [sum((q[i][a] * q[j][a] * q[k][a] / t[a] for a in range(n) if t[a]), Fraction(0))
         for i, j, k in itertools.product(range(n), repeat=3)]
    return TqftData(d, p)


def identity(n):
    return [[Fraction(int(i == j)) for j in range(n)] for i in range(n)]


def rotation(cos, sin, n=2, plane=(0, 1)):
    """The rotation by (cos, sin) in the coordinate plane `plane` of n
    dimensions."""
    assert cos * cos + sin * sin == 1
    x, y = plane
    q = identity(n)
    q[x][x], q[x][y], q[y][x], q[y][y] = cos, -sin, sin, cos
    return q


def reflection(v):
    """The Householder reflection I - 2 v v^T / (v^T v) of a nonzero integer
    vector v."""
    norm = sum(x * x for x in v)
    return [[int(i == a) - Fraction(2 * v[i] * v[a], norm) for a in range(len(v))]
            for i in range(len(v))]


def random_rotation(rng, n):
    """A seeded rotation by a Pythagorean angle in a seeded plane."""
    a, b, c = rng.choice(PYTHAGOREAN)
    return rotation(Fraction(a, c), Fraction(b, c), n, rng.sample(range(n), 2))


def nonzero_values(rng, n):
    """n seeded values +-a/b with a, b in 1..9."""
    return [Fraction(rng.randint(1, 9), rng.randint(1, 9)) * rng.choice([1, -1])
            for _ in range(n)]


def good_data(rng, max_dim=5):
    """A seeded datum of dimension 1..max_dim that passes the relations.

    Each t_a is zero with chance 1/4.  For dim >= 2, one datum in three is
    rotated in a coordinate plane; the others are conjugated by a product of
    zero to two reflections of integer vectors with entries in -3..3.
    """
    n = rng.randint(1, max_dim)
    t = [0 if rng.random() < 0.25 else v for v in nonzero_values(rng, n)]
    if n > 1 and rng.random() < 1 / 3:
        return conjugated(t, random_rotation(rng, n))
    q = identity(n)
    for _ in range(rng.randint(0, 2)):
        v = [0] * n
        while not any(v):
            v = [rng.randint(-3, 3) for _ in range(n)]
        r = reflection(v)
        q = [[sum(q[i][k] * r[k][j] for k in range(n)) for j in range(n)] for i in range(n)]
    return conjugated(t, q)


def good_data_by_seed(max_dim=4):
    """A hypothesis strategy: `good_data` of dimension at most `max_dim`,
    drawn by seed."""
    return st.integers(0, 2 ** 32 - 1).map(
        lambda seed: good_data(random.Random(seed), max_dim))
