"""Exhaustive census: every k-subspace of a small space, orbit by orbit.

Every k-subspace of F_q^n is listed once by its RREF pivot pattern. Each
one no earlier orbit reached starts a code; its orbit is walked with
enumerate_orbit, and the fast analyzer must equal the naive oracle,
distribution included. The orbits must partition the Grassmannian: their
members are distinct, new, as many as the cardinality, and together they
number the Gaussian binomial [n choose k]_q.
"""

from collections import Counter
from itertools import combinations, product

import pytest

from orbitcodes import (
    ElementaryDivisorSpec,
    PrimeField,
    Subspace,
    analyze,
    analyze_naive,
    enumerate_orbit,
    least_primitive,
    make_code,
    random_search,
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


def census(spec, k) -> Counter:
    """Orbit counts per (cardinality, minimum distance) over every
    k-subspace, asserting on the way that fast == oracle on each orbit and
    that the orbits partition the Grassmannian."""
    q, n = spec.field.q, spec.n
    seen: set = set()
    listed = 0
    spectrum: Counter = Counter()
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
        spectrum[fast.cardinality, fast.min_distance] += 1
    assert listed == len(seen) == gaussian_binomial(n, k, q)
    return spectrum


@pytest.mark.parametrize("name", list(CASES))
def test_orbits_partition_the_grassmannian(name):
    census(*CASES[name])


# census(spec_of(2, [((1, 0, 1, 1, 1, 0, 0, 0, 1), 1)]), 4) under the least
# primitive octic, the config of the search benchmark: 200787 subspaces,
# about 13 s on a 2-CPU x86-64 host, so not run here
Q2N8K4_SPECTRUM = {(255, 2): 40, (255, 4): 746, (85, 4): 4, (17, 8): 1}


def test_q2n8k4_spectrum_covers_the_grassmannian():
    assert sum(card * orbits for (card, _), orbits in Q2N8K4_SPECTRUM.items()) == (
        gaussian_binomial(8, 4, 2)
    )


# census(spec_of(3, [((2, 1, 0, 0, 0, 0, 1), 1)]), 3) under the least
# primitive sextic over F_3, the other search benchmark config, where the
# scalars lie in <M> and the analyzer places one vector per 1-dim subspace
Q3N6K3_SPECTRUM = {(28, 6): 1, (364, 2): 39, (364, 4): 54}


def test_q3n6k3_census_spectrum():
    sextic = least_primitive(PrimeField(3), 6)
    assert sextic.coeffs == (2, 1, 0, 0, 0, 0, 1)
    assert census(spec_of(3, [(sextic.coeffs, 1)]), 3) == Q3N6K3_SPECTRUM


def test_seeded_search_cells_lie_in_the_q3n6k3_spectrum():
    sextic = least_primitive(PrimeField(3), 6)
    found = set()
    for seed in range(1, 21):
        for c in random_search(3, 3, 6, sextic, trials=200, seed=seed).cells:
            assert (c.cardinality, c.distance) in Q3N6K3_SPECTRUM, (seed, c)
            found.add((c.cardinality, c.distance))
    assert found == {(364, 2), (364, 4)}


def test_seeded_search_cells_lie_in_the_q2n8k4_spectrum():
    octic = least_primitive(PrimeField(2), 8)
    found = set()
    for seed in range(1, 21):
        for c in random_search(2, 4, 8, octic, trials=200, seed=seed).cells:
            assert (c.cardinality, c.distance) in Q2N8K4_SPECTRUM, (seed, c)
            found.add((c.cardinality, c.distance))
    # each distance's best cell is the largest orbit at that distance
    assert found == {(255, 2), (255, 4)}
