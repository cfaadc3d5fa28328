"""Exhaustive census: every k-subspace of a small space, orbit by orbit.

Every k-subspace of F_q^n is listed once by its RREF pivot pattern. Each
one no earlier orbit reached starts a code; its orbit is walked with
enumerate_orbit, and the fast analyzer must equal the naive oracle,
distribution included. The orbits must partition the Grassmannian: their
members are distinct, new, as many as the cardinality, and together they
number the Gaussian binomial [n choose k]_q.
"""

from itertools import combinations, product

import pytest

from orbitcodes import (
    ElementaryDivisorSpec,
    PrimeField,
    Subspace,
    analyze,
    analyze_naive,
    enumerate_orbit,
    make_code,
)

from conftest import poly_of


def gaussian_binomial(n, k, q):
    num = den = 1
    for i in range(k):
        num *= q ** (n - i) - 1
        den *= q ** (i + 1) - 1
    return num // den


def all_subspaces(q, n, k):
    """Each k-subspace once: per pivot set, every filling of the entries
    right of a pivot in non-pivot columns."""
    for pivots in combinations(range(n), k):
        free = [(i, j) for i, p in enumerate(pivots) for j in range(p + 1, n) if j not in pivots]
        for values in product(range(q), repeat=len(free)):
            rows = [[1 if j == p else 0 for j in range(n)] for p in pivots]
            for (i, j), x in zip(free, values):
                rows[i][j] = x
            yield Subspace.from_rows(q, n, rows)


def spec_of(q, blocks):
    return ElementaryDivisorSpec.make(PrimeField(q), [(poly_of(q, c), e) for c, e in blocks])


# (spec, k); blocks are (ascending coefficients, exponent)
CASES = {
    "q2n6k3-primitive": (spec_of(2, [((1, 1, 0, 0, 0, 0, 1), 1)]), 3),
    "q2n6k3-p3+p3'": (spec_of(2, [((1, 1, 0, 1), 1), ((1, 0, 1, 1), 1)]), 3),
    "q2n6k3-(x2+x+1)^3": (spec_of(2, [((1, 1, 1), 3)]), 3),
    "q2n7k3-primitive": (spec_of(2, [((1, 1, 0, 0, 0, 0, 0, 1), 1)]), 3),
    "q3n4k2-primitive": (spec_of(3, [((2, 0, 0, 1, 1), 1)]), 2),
    "q3n4k2-p2+p2'": (spec_of(3, [((1, 0, 1), 1), ((2, 1, 1), 1)]), 2),
}


@pytest.mark.parametrize("name", list(CASES))
def test_orbits_partition_the_grassmannian(name):
    spec, k = CASES[name]
    q, n = spec.field.q, spec.n
    seen: set = set()
    listed = 0
    for U in all_subspaces(q, n, k):
        listed += 1
        if U in seen:
            continue
        code = make_code(spec, U)
        orbit = enumerate_orbit(code)
        fast = analyze(code, method="fast", with_distribution=True)
        assert fast == analyze_naive(code), U.rows
        members = set(orbit)
        assert len(members) == len(orbit) == fast.cardinality
        assert not members & seen
        seen |= members
    assert listed == len(seen) == gaussian_binomial(n, k, q)
