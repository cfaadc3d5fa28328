"""Property tests: the fast analyzer's projective count against the oracle.

When M^sigma = zeta I for a primitive root zeta of F_q, the fast analyzer
places one vector per 1-dim subspace of U and counts positions mod
L/(q - 1); otherwise it places every nonzero vector. Each spec below is
pinned to the route its compiled form's `sigma` picks, and every start must give
exactly what the naive orbit walk gives, with and without the distribution.
"""

from itertools import product

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcodes import (
    ElementaryDivisorSpec,
    PrimeField,
    Subspace,
    analyze,
    analyze_naive,
    make_code,
)
from orbitcodes.fields import lanes

from conftest import poly_of

SETTINGS = settings(max_examples=80, deadline=None, derandomize=True)


def spec_of(q, blocks):
    return ElementaryDivisorSpec.make(PrimeField(q), [(poly_of(q, c), e) for c, e in blocks])


# (spec, sigma or None); blocks are (ascending coefficients, exponent)
ROUTES = [
    (spec_of(3, [((1, 2, 0, 1), 1)]), 13),  # primitive cubic, -1 = x^13
    # irreducible cubic with ord(x) = 13, so -1 is not a power of x
    (spec_of(3, [((2, 2, 0, 1), 1)]), None),
    # primitive x - 2 and cubic: -1 = x^1 and x^13 agree mod gcd(2, 26)
    (spec_of(3, [((1, 1), 1), ((1, 2, 0, 1), 1)]), 13),
    # primitive cubic and quartic: sigma = 13 mod 26 and 40 mod 80 disagree mod 2
    (spec_of(3, [((1, 2, 0, 1), 1), ((2, 1, 0, 0, 1), 1)]), None),
    (spec_of(3, [((2, 1, 1), 2)]), 12),  # p^2 of the primitive quadratic
    (spec_of(3, [((1, 1), 3)]), 3),  # (x + 1)^3
    (spec_of(3, [((2, 1, 1), 1), ((2, 1, 1), 1), ((1, 1), 1)]), None),  # 4 mod 8 vs 1 mod 2
    (spec_of(5, [((2, 1, 1), 1)]), 6),
    (spec_of(5, [((2, 0, 1), 1)]), 6),  # x^2 + 2, ord 8: 2 = (-2)^3 = x^6
    (spec_of(5, [((2, 1), 2), ((2, 1), 1)]), 15),
    (spec_of(5, [((2, 1), 1), ((2, 1), 1), ((2, 1), 1)]), 3),
    (spec_of(5, [((2, 1), 1), ((2, 1, 1), 1)]), None),
    (spec_of(7, [((3, 1, 1), 1)]), 8),
    (spec_of(7, [((2, 1), 2)]), 35),
    (spec_of(7, [((2, 1), 1), ((3, 1, 1), 1)]), None),
    (spec_of(257, [((5, 1, 1), 1)]), 34830),
    (spec_of(257, [((241, 1), 1), ((255, 1), 1)]), None),  # x = 16 and x = 2
    (spec_of(2, [((1, 1, 0, 0, 1), 1)]), None),  # F_2^* = {1}: nothing to save
]


@pytest.mark.parametrize("spec, sigma", ROUTES)
def test_scalar_shift_route(spec, sigma):
    assert spec.compiled.sigma == sigma
    if sigma is not None:
        # x^sigma is the scalar zeta in every block: the generator power is zeta I
        q, n = spec.field.q, spec.n
        M = make_code(spec, [[1] + [0] * (n - 1)]).generator ** sigma
        zeta = M.rows[0][0]
        assert M.rows == tuple(tuple(zeta if i == j else 0 for j in range(n)) for i in range(n))
        assert len({pow(zeta, e, q) for e in range(1, q)}) == q - 1


@st.composite
def codes(draw):
    spec, _ = draw(st.sampled_from(ROUTES))
    q, n = spec.field.q, spec.n
    k = draw(st.integers(1, n - 1))
    rows = draw(
        st.lists(
            st.lists(st.integers(0, q - 1), min_size=n, max_size=n),
            min_size=k,
            max_size=k,
        ).filter(lambda rs: Subspace.from_rows(q, n, rs).dim == k)
    )
    return make_code(spec, rows)


@SETTINGS
@given(codes())
def test_projective_count_matches_oracle(code):
    oracle = analyze_naive(code)
    assert analyze(code, method="fast", with_distribution=True) == oracle
    params = analyze(code, method="fast")
    assert (params.cardinality, params.min_distance) == (oracle.cardinality, oracle.min_distance)


@SETTINGS
@given(
    st.sampled_from([2, 3, 5, 7]).flatmap(
        lambda q: st.tuples(
            st.just(q),
            st.lists(
                st.lists(st.integers(0, q - 1), min_size=4, max_size=4),
                min_size=1,
                max_size=3 if q < 7 else 2,
            ),
        )
    )
)
def test_points_are_one_vector_per_line(case):
    q, rows = case
    S = Subspace.from_rows(q, 4, rows)
    L = lanes(q, 4)
    points = [L.unpack(c) for c in L.points(S.codes)]
    assert len(points) == (q**S.dim - 1) // (q - 1)
    # the span's nonzero vectors whose first nonzero coordinate is 1
    span = {
        tuple(sum(c * r[j] for c, r in zip(cs, S.rows)) % q for j in range(4))
        for cs in product(range(q), repeat=S.dim)
    }
    lines = {v for v in span if any(v) and next(x for x in v if x) == 1}
    assert sorted(points) == sorted(lines)


def test_unindexable_idle_block_keeps_the_general_route(monkeypatch):
    from orbitcodes import fields

    # a block whose cycle index is refused must not stop the analysis of a
    # start that lives in the other blocks
    monkeypatch.setattr(fields, "CYCLE_INDEX_LIMIT", 16)
    spec = spec_of(3, [((2, 2, 2, 1), 1), ((1, 1), 1)])  # 26 nonzero elements, then x = -1
    assert spec.compiled.sigma is None
    code = make_code(spec, [[0, 0, 0, 1]])
    assert analyze(code, method="fast", with_distribution=True) == analyze_naive(code)
