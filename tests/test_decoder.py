"""Decoder behavior: pair-scan counts, L_f restriction, radius guarantees."""

import pickle
import random
from unittest import mock

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from orbitcodes import (
    DomainError,
    ElementaryDivisorSpec,
    FieldCtx,
    InternalInvariantError,
    Mat,
    Poly,
    PrimeField,
    Subspace,
    analyze,
    codeword,
    companion_matrix,
    decode_exhaustive,
    decode_lf,
    enumerate_orbit,
    error_capability,
    field_context,
    find_irreducible_with_order,
    general_code,
    least_primitive,
    lf_set,
    lf_vector_count,
    make_code,
    subspace_distance,
)
from orbitcodes import fields

from conftest import (
    P2,
    P3,
    X2_1_F3,
    X2_X_1,
    X2_X_2_F3,
    X3_X_1,
    X4_NONPRIM,
    X4_X_1,
    X6_X_1,
    poly_of,
    rand_full_rank,
    single_block,
)

SEED = 0x5EED

SPREAD_ROWS = [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0), (1, 1, 1, 1, 0, 0)]


def spread_code():
    return make_code(single_block(X6_X_1), SPREAD_ROWS)


def perturbed(code, exponent, outside, rng):
    """Received space: two basis vectors of the codeword plus one vector
    outside it, so the distance to that codeword is at most 2."""
    from orbitcodes import codeword

    W = codeword(code, exponent)
    rows = list(W.rows)
    rng.shuffle(rows)
    return W, Subspace.from_rows(code.q, code.n, rows[:2] + [outside])


# -- exhaustive scan --------------------------------------------------------


def test_decode_codeword_itself():
    code = spread_code()
    from orbitcodes import codeword

    W = codeword(code, 4)
    res = decode_exhaustive(W, code)
    assert res.codeword == W
    assert res.group_exponent == 4
    assert res.distance == 0
    assert res.unique
    assert res.candidates_examined == 49  # (2^3-1)^2


@pytest.mark.parametrize(
    "p,k,kp",
    [
        (X6_X_1, 3, 2),
        (X6_X_1, 2, 4),
        (X4_X_1, 2, 2),
        (X4_NONPRIM, 2, 3),  # non-primitive generator counts skipped pairs too
        (X4_NONPRIM, 1, 2),
    ],
)
def test_exhaustive_pair_count(p, k, kp):
    rng = random.Random(SEED + k * 10 + kp)
    q, n = p.field.q, p.degree
    code = make_code(single_block(p), rand_full_rank(rng, q, k, n))
    R = rand_full_rank(rng, q, kp, n)
    res = decode_exhaustive(R, code)
    assert res.candidates_examined == (q**k - 1) * (q**kp - 1)


def test_ambiguous_line_reports_tie():
    code = make_code(single_block(X4_X_1), [(1, 0, 0, 0), (0, 1, 0, 0)])
    assert analyze(code, method="fast").cardinality == 15
    R = Subspace.from_rows(2, 4, [(1, 0, 0, 0)])
    ex = decode_exhaustive(R, code)
    lf = decode_lf(R, code, f=0)
    for res in (ex, lf):
        assert not res.unique
        assert res.distance == 1
        assert res.group_exponent == 0  # smallest tied exponent
    assert ex.candidates_examined == lf.candidates_examined == 3


def test_no_candidate_at_all():
    # order-5 generator, 1-dim start: the orbit covers 5 of the 15 lines
    # and (1,1,0,0) maps outside <x>, so every codeword meets R trivially
    code = make_code(single_block(X4_NONPRIM), [(1, 0, 0, 0)])
    R = Subspace.from_rows(2, 4, [(1, 1, 0, 0)])
    res = decode_exhaustive(R, code)
    assert res.group_exponent == 0
    assert res.distance == 2
    assert not res.unique
    assert res.candidates_examined == 1


def test_decoded_code_pickles_with_its_tables():
    # a code keeps its decoder tables after the first decode, and a --jobs
    # worker receives the code by pickle, so the tables hold no field context
    code = spread_code()
    R = codeword(code, 5)
    first = decode_exhaustive(R, code), decode_lf(R, code)
    back = pickle.loads(pickle.dumps(code))
    assert back == code
    assert (decode_exhaustive(R, back), decode_lf(R, back)) == first


def test_received_validation():
    code = spread_code()
    with pytest.raises(DomainError):
        decode_exhaustive(Subspace.from_rows(2, 4, [(1, 0, 0, 0)]), code)
    with pytest.raises(DomainError):
        decode_exhaustive(Subspace.from_rows(2, 6, [(0,) * 6]), code)


def test_decoder_needs_single_irreducible_block():
    two = ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X3_X_1, 1)])
    code = make_code(two, [(1, 0, 1, 0, 0)])
    R = Subspace.from_rows(2, 5, [(1, 0, 0, 0, 0)])
    with pytest.raises(DomainError):
        decode_exhaustive(R, code)
    sq = ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)])
    with pytest.raises(DomainError):
        decode_exhaustive(
            Subspace.from_rows(2, 4, [(1, 0, 0, 0)]),
            make_code(sq, [(1, 0, 0, 0)]),
        )
    # a bare matrix is refused even when it is one irreducible companion block
    bare = general_code(companion_matrix(X6_X_1), Subspace.from_rows(2, 6, SPREAD_ROWS))
    for decode in (decode_exhaustive, decode_lf):
        with pytest.raises(DomainError, match="single irreducible companion-block"):
            decode(codeword(spread_code(), 1), bare)


def test_decoders_factor_nothing(monkeypatch):
    p = poly_of(2, [1, 0, 0, 0, 0, 0, 0, 1, 0, 0, 1])  # x^10 + x^7 + 1, primitive
    # no context, label or order of p left from an earlier test
    for cache in (fields._cached_ctx, fields._irreducible_order, fields.poly_order):
        cache.cache_clear()
    rng = random.Random(SEED + 10)
    code = make_code(single_block(p), rand_full_rank(rng, 2, 2, 10))
    R = rand_full_rank(rng, 2, 3, 10)

    def refuse(m):
        raise AssertionError(f"factorize({m})")

    monkeypatch.setattr(fields, "factorize", refuse)
    res_ex, res_lf = decode_exhaustive(R, code), decode_lf(R, code)
    card = analyze(code).cardinality
    assert res_ex.distance == min(subspace_distance(R, codeword(code, e)) for e in range(card))
    assert res_lf.distance >= res_ex.distance
    # the label alone tells primitive from irreducible by factoring 2^10 - 1
    with pytest.raises(AssertionError, match="factorize"):
        code.regime


# -- L_f machinery ----------------------------------------------------------


@pytest.mark.parametrize(
    "q,kp,f,expect",
    [(2, 3, 0, 3), (2, 3, 1, 6), (2, 3, 2, 7), (3, 4, 1, 32), (3, 2, 1, 8)],
)
def test_lf_vector_count_golden(q, kp, f, expect):
    assert lf_vector_count(q, kp, f) == expect


@pytest.mark.parametrize("q,kp,f", [(2, 3, 1), (3, 3, 0), (3, 3, 2), (2, 4, 2)])
def test_lf_set_matches_count(q, kp, f):
    rng = random.Random(SEED + q * 100 + kp * 10 + f)
    n = kp + 2
    span = rand_full_rank(rng, q, kp, n)
    rows = rand_basis_of(rng, span)
    vs = lf_set(rows, f, q)
    assert len(vs) == lf_vector_count(q, kp, f)
    assert len(set(vs)) == len(vs)
    for v in vs:
        assert any(x for x in v)
        assert span.contains(v)


def test_lf_set_full_support_is_whole_space():
    rows = [(1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0)]
    vs = lf_set(rows, 2, 2)
    assert sorted(vs) == sorted(Subspace.from_rows(2, 4, rows).nonzero_elements())


def test_lf_set_validation():
    rows = [(1, 0, 0), (0, 1, 0)]
    with pytest.raises(DomainError):
        lf_set(rows, 2, 2)
    with pytest.raises(DomainError):
        lf_set(rows, -1, 2)
    with pytest.raises(DomainError):
        lf_set([(1, 0, 0), (1, 0, 0)], 0, 2)


def test_error_capability_cases():
    code = spread_code()  # k = 3, delta = 3
    assert error_capability(code, 3) == 1
    assert error_capability(code, 1) == 0
    assert error_capability(code, 6) == 2
    with pytest.raises(DomainError):
        error_capability(code, 0)
    # whole-space start: single codeword, maximal clamp
    full = make_code(single_block(X4_X_1), Mat.identity(2, 4).rows)
    assert error_capability(full, 3) == 2


# -- L_f vs exhaustive ------------------------------------------------------


def test_lf_full_f_matches_exhaustive():
    rng = random.Random(SEED * 7)
    code = spread_code()
    delta = analyze(code, method="fast").min_distance // 2
    for _ in range(20):
        kp = rng.randrange(1, 5)
        R = rand_full_rank(rng, 2, kp, 6)
        ex = decode_exhaustive(R, code)
        lf = decode_lf(R, code, f=kp - 1)
        assert lf.group_exponent == ex.group_exponent
        assert lf.distance == ex.distance
        if lf.candidates_examined != ex.candidates_examined:
            # the only way to stop early is a within-radius hit
            assert lf.unique and lf.distance <= delta - 1
        else:
            assert lf.unique == ex.unique


def test_lf_decodes_within_radius():
    rng = random.Random(SEED * 11)
    code = spread_code()
    outs = [v for v in _all_nonzero(2, 6)]
    for _ in range(50):
        e = rng.randrange(9)
        from orbitcodes import codeword

        W = codeword(code, e)
        outside = rng.choice([v for v in outs if not W.contains(v)])
        _, R = perturbed(code, e, outside, rng)
        assert R.dim == 3
        res = decode_lf(R, code)  # default f = error_capability = 1
        assert res.unique
        assert res.codeword == W
        assert res.group_exponent == e
        assert res.distance <= 2
        ex = decode_exhaustive(R, code)
        assert ex.group_exponent == e and ex.unique


def _all_nonzero(q, n):
    import itertools

    return [v for v in itertools.product(range(q), repeat=n) if any(v)]


def test_lf_low_support_recovers_codeword_vectors():
    # with at most f error dimensions, the f-support combinations of any
    # received basis must include k'-f independent codeword vectors
    rng = random.Random(SEED * 13)
    code = spread_code()
    outs = _all_nonzero(2, 6)
    for _ in range(100):
        e = rng.randrange(9)
        from orbitcodes import codeword

        W = codeword(code, e)
        outside = rng.choice([v for v in outs if not W.contains(v)])
        _, R = perturbed(code, e, outside, rng)
        f = 1
        mixed = rand_basis_of(rng, R)
        inside = [v for v in lf_set(mixed, f, 2) if W.contains(v)]
        assert inside, "no codeword vector in the L_f set"
        got = Subspace.from_rows(2, 6, inside)
        assert got.dim >= R.dim - f


def rand_basis_of(rng, S):
    """Random basis of S: invertible coefficient mix of its rows."""
    k = S.dim
    while True:
        C = Mat.make(S.q, [[rng.randrange(S.q) for _ in range(k)] for _ in range(k)])
        if C.rank() == k:
            break
    return [tuple(r) for r in (C * Mat.make(S.q, [list(r) for r in S.rows])).rows]


# -- against a brute-force nearest codeword ---------------------------------

F5 = PrimeField(5)

# (generator polynomial, primitive?) for single irreducible blocks
BLOCKS = [
    (X4_X_1, True),
    (X4_NONPRIM, False),
    (X6_X_1, True),
    (find_irreducible_with_order(P2, 6, 21), False),
    (X2_X_2_F3, True),
    (X2_1_F3, False),
    (least_primitive(P3, 3), True),
    (find_irreducible_with_order(P3, 3, 13), False),
    (least_primitive(F5, 2), True),
    (find_irreducible_with_order(F5, 2, 12), False),
    (find_irreducible_with_order(F5, 3, 31), False),
]


def _received(rng, code, near):
    """A random received space, or one that keeps part of a codeword."""
    q, n = code.q, code.n
    while True:
        if near:
            W = codeword(code, rng.randrange(1000))
            rows = list(W.rows)
            rng.shuffle(rows)
            rows = rows[: rng.randrange(1, len(rows) + 1)]
            rows += [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(3))]
        else:
            rows = [[rng.randrange(q) for _ in range(n)] for _ in range(rng.randrange(1, n + 1))]
        R = Subspace.from_rows(q, n, rows)
        if R.dim:
            return R


@settings(max_examples=80, deadline=None, derandomize=True)
@given(
    block=st.integers(0, len(BLOCKS) - 1),
    seed=st.integers(0, 2**32),
    near=st.booleans(),
)
def test_decoders_match_brute_force(block, seed, near):
    from orbitcodes import decoder

    p, primitive = BLOCKS[block]
    assert field_context(p).is_primitive == primitive
    q, n = p.field.q, p.degree
    rng = random.Random(seed)
    code = make_code(single_block(p), rand_full_rank(rng, q, rng.randrange(1, n), n))
    R = _received(rng, code, near)
    k, kp = code.k, R.dim
    orbit = enumerate_orbit(code)
    dist = [subspace_distance(R, W) for W in orbit]
    best = min(dist)
    tied = [h for h, d in enumerate(dist) if d == best]
    md = analyze(code).min_distance
    radius = md // 2 - 1 if md is not None else -1

    calls = []

    def counted(code_, e):
        calls.append(e)
        return codeword(code_, e)

    def decode(fn, *args):
        calls.clear()
        res = fn(R, code, *args)
        assert len(calls) <= 1
        assert res.codeword == orbit[res.group_exponent]
        assert res.distance == dist[res.group_exponent]
        if res.distance <= radius:
            # within the unique-decoding radius the nearest codeword is unique
            assert res.unique and tied == [res.group_exponent]
        return res

    def nearest(res):
        return (res.distance, res.group_exponent, res.unique) == (best, tied[0], len(tied) == 1)

    with mock.patch.object(decoder, "codeword", counted):
        ex = decode(decode_exhaustive)
        assert nearest(ex)
        assert ex.candidates_examined == (q**k - 1) * (q**kp - 1)
        cap = error_capability(code, kp)
        default = decode(decode_lf)
        for f in range(kp):
            res = decode(decode_lf, f)
            assert res.distance >= best
            if f == kp - 1 or (f >= cap and best <= radius):
                assert nearest(res)
            if f == cap:
                assert res == default
    if best <= radius:
        assert nearest(default)


def test_exhaustive_pair_limit(monkeypatch):
    from orbitcodes import decoder

    monkeypatch.setattr(decoder, "PAIR_LIMIT", 100)
    code = spread_code()  # k = 3: 7 nonzero elements
    rng = random.Random(SEED)
    # 7 * 15 = 105 pairs for k' = 4
    with pytest.raises(DomainError, match=r"k = 3 .*k' = 4 .*105 .* 100"):
        decode_exhaustive(rand_full_rank(rng, 2, 4, 6), code)
    assert decode_exhaustive(rand_full_rank(rng, 2, 3, 6), code).candidates_examined == 49


def test_exhaustive_checks_the_count_identity(monkeypatch):
    code = spread_code()
    R = codeword(code, 3)
    assert decode_exhaustive(R, code).group_exponent == 3
    # a wrong r/card turns every count into a value the identity forbids
    order = FieldCtx.x_order
    monkeypatch.setattr(FieldCtx, "x_order", property(lambda ctx: 2 * order.fget(ctx)))
    with pytest.raises(InternalInvariantError):
        decode_exhaustive(R, code)
