"""Spread constructions: primitive, non-primitive, and the verifier."""

import pytest

from orbitcodes import (
    DomainError,
    NoSuchPolynomialError,
    Poly,
    PrimeField,
    SpreadSpec,
    Subspace,
    analyze,
    build_nonprimitive_spread,
    build_spread,
    distinct_orbit_start,
    field_context,
    find_irreducible_with_order,
    macwilliams_check,
    make_code,
    matrix_order,
    spread_start_rows,
    verify_spread,
)
from orbitcodes.fields import irreducible_polys

from conftest import P2, P3, X4_NONPRIM, X4_X_1, X6_X_1, single_block


def test_spec_make_defaults():
    spec = SpreadSpec.make(2, 3, 6)
    assert spec.p == X6_X_1  # least primitive sextic
    assert spec.c == 9
    assert SpreadSpec.make(2, 2, 6).c == 21


def test_spec_make_validation():
    with pytest.raises(DomainError):
        SpreadSpec.make(2, 4, 6)  # k does not divide n
    with pytest.raises(DomainError):
        SpreadSpec.make(2, 0, 6)
    with pytest.raises(DomainError):
        SpreadSpec.make(2, 2, 4, p=X4_NONPRIM)  # not primitive
    with pytest.raises(DomainError):
        SpreadSpec.make(2, 3, 6, p=X4_X_1)  # wrong degree
    with pytest.raises(DomainError):
        SpreadSpec.make(3, 2, 4, p=X4_X_1)  # wrong field


def test_start_rows_golden_6_3():
    rows = spread_start_rows(SpreadSpec.make(2, 3, 6))
    assert rows == [
        (1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (1, 1, 1, 1, 0, 0),
    ]


def test_start_rows_golden_6_2():
    # second row is x^21 mod x^6+x+1; reduced basis pairs it with e_1
    rows = spread_start_rows(SpreadSpec.make(2, 2, 6))
    assert rows == [(1, 0, 0, 0, 0, 0), (1, 1, 0, 1, 1, 1)]
    assert Subspace.from_rows(2, 6, rows) == Subspace.from_rows(
        2, 6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 1, 1)]
    )


_GRID = [
    (q, k, n)
    for q in (2, 3)
    for n in range(2, 9)
    for k in range(1, n + 1)
    if n % k == 0 and q**n <= 7000
]


@pytest.mark.parametrize("q,k,n", _GRID)
def test_primitive_spread_verifies(q, k, n):
    spec = SpreadSpec.make(q, k, n)
    code = build_spread(spec)
    assert code.regime == "primitive"
    assert verify_spread(code)
    params = analyze(code, method="fast", with_distribution=True)
    assert params.cardinality == spec.c
    if k < n:
        assert params.min_distance == 2 * k
        assert params.distribution == (1,) + (0,) * (k - 1) + (spec.c - 1,)
    else:
        assert params.min_distance is None


def test_spread_macwilliams():
    assert macwilliams_check(build_spread(SpreadSpec.make(2, 3, 6)))


def test_full_orbit_start_fails_verification():
    # same first row, different partner: the orbit walks all 63 shifts and
    # consecutive codewords share a line
    code = make_code(
        single_block(X6_X_1), [(1, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)]
    )
    params = analyze(code, method="fast")
    assert (params.cardinality, params.min_distance) == (63, 2)
    assert not verify_spread(code)


def test_verify_rejects_incompatible_dimension():
    code = make_code(
        single_block(X6_X_1),
        [
            (1, 0, 0, 0, 0, 0),
            (0, 1, 0, 0, 0, 0),
            (0, 0, 1, 0, 0, 0),
            (0, 0, 0, 1, 0, 0),
        ],
    )
    assert not verify_spread(code)  # 2^4 - 1 does not divide 2^6 - 1


# -- non-primitive construction ---------------------------------------------


def test_nonprimitive_golden_2_2_4():
    code = build_nonprimitive_spread(2, 2, 4)
    assert code.block_structure.blocks == ((Poly.make(P2, (1, 1, 1, 1, 1)), 1),)
    assert code.start == Subspace.from_rows(2, 4, [(1, 0, 0, 0), (0, 0, 1, 1)])
    assert verify_spread(code)
    assert matrix_order(code.generator) == 5


@pytest.mark.parametrize("q,k,n", [(2, 2, 6), (2, 2, 8), (2, 4, 8), (3, 2, 6)])
def test_nonprimitive_spread_verifies(q, k, n):
    code = build_nonprimitive_spread(q, k, n)
    c = (q**n - 1) // (q**k - 1)
    assert code.regime == "irreducible"
    assert matrix_order(code.generator) == c
    assert verify_spread(code)
    params = analyze(code, method="fast")
    assert (params.cardinality, params.min_distance) == (c, 2 * k)


def test_oversized_spread_refused_before_the_polynomial_scan(monkeypatch):
    from orbitcodes import fields, spread

    def no_scan(*args):
        raise AssertionError("polynomial scan started for a field above the index limit")

    monkeypatch.setattr(fields, "CYCLE_INDEX_LIMIT", 2**10)
    monkeypatch.setattr(spread, "least_primitive", no_scan)
    monkeypatch.setattr(spread, "find_irreducible_with_order", no_scan)
    with pytest.raises(DomainError, match=r"\(q=2, degree 12\).* limit of 1024"):
        SpreadSpec.make(2, 4, 12)
    with pytest.raises(DomainError, match=r"\(q=2, degree 12\).* limit of 1024"):
        build_nonprimitive_spread(2, 4, 12)
    # 2^10 - 1 elements is within the limit
    assert SpreadSpec.make(2, 2, 10, p=Poly.make(P2, [1, 0, 0, 1] + [0] * 6 + [1])).c == 341


def test_nonprimitive_rejects_bad_k():
    with pytest.raises(DomainError):
        build_nonprimitive_spread(2, 3, 4)


def test_nonprimitive_even_orbit_count_impossible():
    # q=3, n/k even makes c even, so <x> contains -1 and every pair
    # {v, -v} shares an orbit: no distinct-orbit start can exist
    with pytest.raises(DomainError):
        build_nonprimitive_spread(3, 2, 4)


def test_distinct_orbit_start_deterministic():
    ctx = field_context(Poly.make(P2, (1, 1, 1, 1, 1)))
    first = distinct_orbit_start(ctx, 2)
    second = distinct_orbit_start(ctx, 2)
    assert first == second
    assert first.rows == ((1, 0, 0, 0), (0, 0, 1, 1))


def test_distinct_orbit_start_primitive_has_none():
    # a primitive modulus puts all nonzero vectors in one <x>-orbit
    assert distinct_orbit_start(field_context(X4_X_1), 2) is None
    line = distinct_orbit_start(field_context(X4_X_1), 1)
    assert line is not None and line.dim == 1
    # over F_3 even a line holds two nonzero vectors of the single orbit
    from orbitcodes import least_primitive

    p3 = least_primitive(P3, 3)
    assert distinct_orbit_start(field_context(p3), 1) is None


def test_distinct_orbit_start_needs_irreducible():
    reducible = Poly.make(P2, (1, 0, 0, 0, 1))  # (x+1)^4
    with pytest.raises(DomainError):
        distinct_orbit_start(field_context(reducible), 1)


# -- distinct-orbit starts against a plain scan ------------------------------

# start codes of the non-primitive (q, k, n) spread. Out of tier-1 for time:
# (2, 4, 16) -> (1, 26522, 26524, 26400) and (3, 3, 9) -> (1, 4580245776,
# 9129037824), ~1 s and ~20 s.
PINNED_STARTS = {
    (2, 2, 4): (1, 12),
    (2, 2, 8): (1, 22),
    (2, 4, 8): (1, 74, 100, 176),
    (2, 4, 12): (1, 1954, 1892, 1960),
    (2, 3, 9): (1, 18, 88),
    (2, 3, 12): (1, 274, 276),
    (2, 5, 10): (1, 866, 868, 392, 176),
    (3, 2, 6): (1, 8208),
}


@pytest.mark.parametrize("q,k,n", sorted(PINNED_STARTS))
def test_distinct_orbit_start_pinned(q, k, n):
    p = find_irreducible_with_order(PrimeField(q), n, (q**n - 1) // (q**k - 1))
    assert distinct_orbit_start(field_context(p), k).codes == PINNED_STARTS[q, k, n]


def _plain_start(ctx, k):
    """Reference: backtrack over every packed vector in ascending order,
    reading each element's orbit from cycle_of_code."""
    q, n, L = ctx.q, ctx.n, ctx.lanes
    codes = list(L.ascending())

    def extend(rows, span, orbits, start):
        if len(rows) == k:
            return Subspace.from_packed(q, n, rows)
        for i in range(start, len(codes)):
            new = {}
            for c in range(1, q):
                for e in span:
                    w = L.add(e, L.scale(codes[i], c))
                    oid = ctx.cycle_of_code(w)[0] if w else None
                    if oid is None or oid in orbits or oid in new:
                        break
                    new[oid] = w
                else:
                    continue
                break
            else:
                found = extend(rows + [codes[i]], span + list(new.values()), orbits | set(new), i + 1)
                if found is not None:
                    return found
        return None

    return extend([], [0], set(), 1)


@pytest.mark.parametrize("q,max_degree", [(2, 6), (3, 4), (5, 2), (7, 2)])
def test_distinct_orbit_start_matches_plain_scan(q, max_degree):
    # every irreducible modulus with p(0) != 0 and every k, the None cases
    # (some c != 1 of F_q^* in <x>, or too few orbits) included
    results = []
    for n in range(1, max_degree + 1):
        for p in irreducible_polys(PrimeField(q), n):
            if p.coeff(0):
                ctx = field_context(p)
                for k in range(1, n + 1):
                    got = distinct_orbit_start(ctx, k)
                    assert got == _plain_start(ctx, k), (p, k)
                    results.append(got)
    assert None in results and any(results)
