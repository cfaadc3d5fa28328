"""Orbit enumeration, the fast analyzer vs the naive oracle, bounds, duality."""

import math
import random
from itertools import product

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from orbitcodes import (
    BoundsReport,
    CodeParams,
    DomainError,
    ElementaryDivisorSpec,
    Mat,
    OrbitCapError,
    Poly,
    PrimeField,
    ShapeMismatchError,
    SingularMatrixError,
    Subspace,
    analyze,
    analyze_naive,
    analyze_packed,
    block_bounds,
    build_generator,
    code_from_json_dict,
    code_to_json_dict,
    codeword,
    dual_code,
    enumerate_orbit,
    general_code,
    least_primitive,
    macwilliams_check,
    make_code,
    matrix_order,
    subspace_distance,
)
from orbitcodes.fields import lanes

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

SEED = 271828


def params_pair(code):
    fast = analyze(code, method="fast", with_distribution=True)
    naive = analyze(code, method="naive", with_distribution=True)
    return fast, naive


# -- construction and orbit enumeration -------------------------------------


def test_make_code_validates_start():
    spec = single_block(X4_X_1)
    with pytest.raises(DomainError):
        make_code(spec, [(0, 0, 0, 0)])
    with pytest.raises(DomainError):
        make_code(spec, [(1, 0, 0, 0), (1, 0, 0, 0)])  # rank 1, two rows
    with pytest.raises(DomainError):
        make_code(spec, [(1, 0, 0)])  # ambient mismatch


def test_general_code_requires_invertible():
    A = Mat.make(2, [[1, 1], [1, 1]])
    with pytest.raises(DomainError):
        general_code(A, Subspace.from_rows(2, 2, [(1, 0)]))


def test_enumerate_orbit_structure():
    code = make_code(single_block(X4_X_1), [(1, 0, 0, 0), (0, 1, 1, 0)])
    orbit = enumerate_orbit(code)
    assert len(orbit) == len(set(orbit)) == 5
    for i, W in enumerate(orbit):
        assert W == codeword(code, i)
    assert codeword(code, 5) == orbit[0]
    assert codeword(code, -1) == orbit[4]


def test_enumerate_orbit_cap(monkeypatch):
    from orbitcodes import analysis

    code = make_code(single_block(X6_X_1), [(1, 0, 0, 0, 0, 0)])
    monkeypatch.setattr(analysis, "ORBIT_CAP", 10)
    with pytest.raises(OrbitCapError, match="cap of 10 subspaces"):
        enumerate_orbit(code)


@pytest.mark.parametrize(
    "spec,rows",
    [
        (single_block(X6_X_1), [(1, 0, 0, 0, 0, 0)]),
        (single_block(X6_X_1), [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0), (1, 1, 1, 1, 0, 0)]),
        (ElementaryDivisorSpec.make(P2, [(X2_X_1, 2), (X3_X_1, 1)]), [(1, 0, 0, 0, 1, 0, 0)]),
    ],
)
def test_naive_cap_contract(monkeypatch, spec, rows):
    from orbitcodes import analysis

    # ORBIT_CAP bounds the number of codewords, read at call time: exactly
    # cardinality passes
    code = make_code(spec, rows)
    card = analyze_naive(code).cardinality
    assert card > 1
    monkeypatch.setattr(analysis, "ORBIT_CAP", card - 1)
    with pytest.raises(OrbitCapError):
        analyze_naive(code)
    with pytest.raises(OrbitCapError):
        enumerate_orbit(code)
    monkeypatch.setattr(analysis, "ORBIT_CAP", card)
    assert analyze_naive(code).cardinality == card
    assert len(enumerate_orbit(code)) == card


def test_naive_oracle_reads_no_cycle_index(monkeypatch):
    from orbitcodes.fields import FieldCtx, Lanes

    blocks = [
        (P2, [(X6_X_1, 1)], [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 1, 0)]),
        (P2, [(X2_X_1, 2), (X3_X_1, 1)], [(1, 0, 1, 1, 0, 1, 0)]),
        (P3, [(X2_X_2_F3, 1)], [(1, 2)]),
        (P3, [(poly_of(3, [1, 1]), 1), (X2_X_2_F3, 1)], [(1, 1, 2)]),
    ]
    codes = [make_code(ElementaryDivisorSpec.make(f, b), rows) for f, b, rows in blocks]
    fast = [analyze(c, method="fast", with_distribution=True) for c in codes]

    def refuse(self):
        raise AssertionError("the oracle used the fast analyzer's machinery")

    # refused on read, not only on call: a placer built from a block context
    # reads its cycle_of_code or cycle_groups
    for name in ("cycle_of_code", "cycle_groups", "mul_x_power_code", "_index"):
        monkeypatch.setattr(FieldCtx, name, property(refuse))
    monkeypatch.setattr(Lanes, "span", property(refuse))
    monkeypatch.setattr(Lanes, "points", property(refuse))
    # the codes above keep the compiled forms the fast runs built; these
    # specs are new, so the oracle is the first reader of theirs
    fresh = [make_code(ElementaryDivisorSpec.make(f, b), rows) for f, b, rows in blocks]
    assert [analyze_naive(c) for c in codes + fresh] == fast + fast


@pytest.mark.parametrize(
    "field,blocks,rows",
    [
        (P2, [(X6_X_1, 1)], [(1, 0, 0, 0, 0, 0), (0, 1, 1, 0, 1, 0)]),
        (P2, [(X4_NONPRIM, 1)], [(1, 0, 1, 0)]),
        (P3, [(X2_1_F3, 2)], [(1, 0, 2, 1)]),
        (P3, [(poly_of(3, [1, 1]), 1), (X2_X_2_F3, 1)], [(1, 1, 2)]),
        (P2, [(X2_X_1, 2), (X3_X_1, 1)], [(1, 0, 1, 1, 0, 1, 0)]),
    ],
)
def test_oracle_builds_no_block_context_or_generator(field, blocks, rows):
    # a fresh spec: the oracle steps index-free rings read off the layout,
    # and make_code leaves the generator to its first reader
    spec = ElementaryDivisorSpec.make(field, blocks)
    code = make_code(spec, rows)
    analyze_naive(code)
    enumerate_orbit(code)
    assert not {"blocks", "generator"} & vars(spec.compiled).keys()
    assert code.generator == build_generator(spec)
    assert "generator" in vars(spec.compiled)


def test_huge_exponent_refusal_builds_no_generator():
    # one block (x + 1)^20000: the first placement refuses the cycle index,
    # and the 20000 x 20000 generator is never built
    spec = ElementaryDivisorSpec.make(P2, [(poly_of(2, [1, 1]), 20000)])
    code = make_code(spec, [(1,) + (0,) * 19999])
    with pytest.raises(DomainError, match=r"\(q=2, degree 20000\)"):
        analyze(code)
    assert "generator" not in vars(spec.compiled)


@pytest.mark.parametrize(
    "blocks,row",
    [
        ([(poly_of(2, [0, 1]), 1)], (1,)),
        ([(poly_of(2, [0, 1]), 2)], (1, 0)),
        ([(X2_X_1, 1), (poly_of(2, [0, 1]), 1)], (1, 0, 1)),
    ],
)
def test_make_code_refuses_a_block_with_zero_constant_term(blocks, row):
    # p = x is irreducible, so the spec is made, but M is singular
    spec = ElementaryDivisorSpec.make(P2, blocks)
    with pytest.raises(SingularMatrixError, match=r"p\(0\) = 0"):
        make_code(spec, [row])
    data = {"q": 2, "blocks": [{"poly": " ".join(map(str, p.coeffs)), "exp": e} for p, e in blocks],
            "start": [" ".join(map(str, row))]}
    with pytest.raises(SingularMatrixError, match=r"p\(0\) = 0"):
        code_from_json_dict(data)


def test_regime_labels():
    assert make_code(single_block(X6_X_1), [(1,) * 6]).regime == "primitive"
    assert make_code(single_block(X4_NONPRIM), [(1, 0, 0, 0)]).regime == "irreducible"
    two = ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X3_X_1, 1)])
    assert make_code(two, [(1, 0, 1, 0, 0)]).regime == "completely_reducible"
    sq = ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)])
    assert make_code(sq, [(1, 0, 0, 0)]).regime == "non_semisimple"


def test_regime_is_computed_on_first_read():
    # q - 1 = 2 p1 p2 with primes p1, p2 near 10^18: only the label that
    # tells a primitive block from an irreducible one factors it
    spec = {"q": 2000000000000000068000000000000000187, "blocks": [{"poly": "1 1"}], "start": ["1"]}
    code, _ = code_from_json_dict(spec)
    assert analyze(code) == CodeParams(1, None)
    assert analyze(code, with_distribution=True) == CodeParams(1, None, (1, 0))
    with pytest.raises(DomainError, match="squarings"):
        code.regime


def test_cardinality_divides_generator_order():
    rng = random.Random(SEED)
    spec = single_block(X6_X_1)
    for _ in range(25):
        code = make_code(spec, rand_full_rank(rng, 2, rng.randrange(1, 4), 6))
        params = analyze(code, method="fast")
        assert 63 % params.cardinality == 0
        if params.min_distance is not None:
            assert params.min_distance % 2 == 0
            assert 2 <= params.min_distance <= 2 * code.k


# -- golden parameter sets --------------------------------------------------


def test_spread_goldens_naive():
    code = make_code(
        single_block(X6_X_1),
        [(1, 0, 0, 0, 0, 0), (0, 0, 0, 1, 1, 0), (1, 1, 1, 1, 0, 0)],
    )
    assert analyze_naive(code) == CodeParams(9, 6, (1, 0, 0, 8))


def test_nonprimitive_golden():
    code = make_code(single_block(X4_NONPRIM), [(1, 0, 0, 0), (0, 0, 1, 1)])
    fast, naive = params_pair(code)
    assert fast == naive
    assert (fast.cardinality, fast.min_distance) == (5, 4)


def test_block_example_goldens():
    spec = ElementaryDivisorSpec.make(P2, [(X4_X_1, 1), (X6_X_1, 1)])
    U1 = [(1, 0, 0, 0), (0, 1, 1, 0)]
    U2 = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 1, 1)]
    diag_rows = [r + (0,) * 6 for r in U1] + [(0,) * 4 + r for r in U2]
    concat_rows = [a + b for a, b in zip(U1, U2)]
    diag_fast, diag_naive = params_pair(make_code(spec, diag_rows))
    assert diag_fast == diag_naive
    assert (diag_fast.cardinality, diag_fast.min_distance) == (105, 4)
    cat_fast, cat_naive = params_pair(make_code(spec, concat_rows))
    assert cat_fast == cat_naive
    assert (cat_fast.cardinality, cat_fast.min_distance) == (315, 4)


def test_full_space_code_has_no_distance():
    code = make_code(single_block(X4_X_1), Subspace.from_rows(2, 4, Mat.identity(2, 4).rows))
    params = analyze(code, method="naive")
    assert params.cardinality == 1
    assert params.min_distance is None
    assert analyze(code, method="fast") == params


# -- analyzer equivalence ---------------------------------------------------


def _all_subspaces(q, k, n):
    seen = set()
    for rows in product(product(range(q), repeat=n), repeat=k):
        S = Subspace.from_rows(q, n, rows)
        if S.dim == k and S.rows not in seen:
            seen.add(S.rows)
            yield S


def test_p_squared_exhaustive_sweep():
    # every 2-dim subspace of F_2^4 under the (x^2+x+1)^2 block
    spec = ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)])
    count = 0
    for S in _all_subspaces(2, 2, 4):
        fast, naive = params_pair(make_code(spec, S))
        assert fast == naive, f"start {S.rows}"
        count += 1
    assert count == 35


_regime_specs = {
    "primitive": [single_block(X4_X_1), single_block(X6_X_1), single_block(X2_X_2_F3)],
    "irreducible": [
        single_block(X4_NONPRIM),
        single_block(X2_1_F3),
        single_block(Poly.make(P2, (1, 1, 1, 0, 1, 0, 1))),  # order 21 sextic
    ],
    "completely_reducible": [
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X3_X_1, 1)]),
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X4_X_1, 1)]),
        ElementaryDivisorSpec.make(P3, [(poly_of(3, [1, 1]), 1), (X2_X_2_F3, 1)]),
        # three blocks, a non-primitive block, a repeated factor
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X3_X_1, 1), (X4_X_1, 1)]),
        ElementaryDivisorSpec.make(P2, [(X4_NONPRIM, 1), (X3_X_1, 1)]),
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X2_X_1, 1), (X3_X_1, 1)]),
    ],
    "non_semisimple": [
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)]),
        ElementaryDivisorSpec.make(P2, [(X3_X_1, 2)]),
        ElementaryDivisorSpec.make(P3, [(X2_X_2_F3, 2)]),
    ],
    "general": [
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 3)]),
        ElementaryDivisorSpec.make(P2, [(poly_of(2, [1, 1]), 3)]),
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 2), (X3_X_1, 1)]),
        ElementaryDivisorSpec.make(P3, [(poly_of(3, [1, 1]), 2), (X2_X_2_F3, 1)]),
    ],
}


@pytest.mark.parametrize("regime", sorted(_regime_specs))
def test_fast_equals_naive_per_regime(regime):
    rng = random.Random(SEED + hash(regime) % 1000)
    for _ in range(40):
        spec = rng.choice(_regime_specs[regime])
        q, n = spec.field.q, spec.n
        k = rng.randrange(1, min(n, 4) + 1)
        code = make_code(spec, rand_full_rank(rng, q, k, n))
        assert code.regime == regime
        fast, naive = params_pair(code)
        assert fast == naive, f"{regime} start {code.start.rows}"


# blocks for random specs of one or two blocks: over F_3, the primitive
# X2_X_2_F3 alone and x + 1 with the primitive cubic x^3 + 2x + 1 have
# M^sigma = 2I, so the one-vector-per-line route runs
PACKED_POOL = {
    2: [(X3_X_1, 1), (X4_X_1, 1), (X4_NONPRIM, 1), (X2_X_1, 2), (poly_of(2, [1, 1]), 2)],
    3: [(poly_of(3, [1, 1]), 1), (X2_X_2_F3, 1), (X2_1_F3, 1), (poly_of(3, [1, 2, 0, 1]), 1)],
}


@st.composite
def packed_starts(draw):
    """(spec, packed rows): one or two blocks from PACKED_POOL and k random
    independent rows, 1 <= k <= n, kept as drawn (seldom in RREF)."""
    q = draw(st.sampled_from([2, 3]))
    blocks = draw(st.lists(st.sampled_from(PACKED_POOL[q]), min_size=1, max_size=2))
    spec = ElementaryDivisorSpec.make(PrimeField(q), blocks)
    k = draw(st.integers(1, spec.n))
    rng = random.Random(draw(st.integers(0, 2**32)))
    L = lanes(q, spec.n)
    while True:
        codes = [L.pack([rng.randrange(q) for _ in range(spec.n)]) for _ in range(k)]
        if len(L.echelon(codes)) == k:
            return spec, codes


@settings(max_examples=80, deadline=None, derandomize=True)
@given(packed_starts())
# the line route on the basis (2, 2), and the whole space in a non-RREF basis
@example((single_block(X2_X_2_F3), [lanes(3, 2).pack((2, 2))]))
@example((single_block(X3_X_1), [lanes(2, 3).pack(r) for r in [(1, 1, 0), (0, 1, 1), (1, 1, 1)]]))
def test_packed_entry_equals_analyze(case):
    spec, codes = case
    rows = [lanes(spec.field.q, spec.n).unpack(c) for c in codes]
    code = make_code(spec, rows)
    for with_distribution in (False, True):
        assert analyze_packed(spec, codes, with_distribution) == analyze(
            code, with_distribution=with_distribution
        )
    assert analyze_packed(spec, codes, True) == analyze_naive(code)


def test_packed_entry_refuses_an_empty_or_dependent_basis():
    # rows of a dependent basis span a smaller U, and its combinations
    # include zero: each probe must be refused, naming the argument, and
    # never answered for the wrong U
    f2_two = ElementaryDivisorSpec.make(P2, [(X3_X_1, 1), (X4_X_1, 1)])
    f3_two = ElementaryDivisorSpec.make(P3, [(poly_of(3, [1, 1]), 1), (X2_X_2_F3, 1)])
    probes = [
        (f2_two, [1, 1]),  # CodeParams(7, 2, (1, 6, 0)) before the check
        (f2_two, [1, 2, 3]),
        (f3_two, [1, 1]),
        (f3_two, [1, 2]),  # 2 is twice the vector 1
        (single_block(X4_X_1), [1, 1]),
        (single_block(X2_X_2_F3), [1, 2]),  # k = n
        (single_block(X2_X_1), [1, 2, 3]),  # k > n
        # ints that are no packed vector of F_q^n: past the n lanes, or a
        # lane at or above q
        (single_block(X3_X_1), [8]),
        (single_block(X3_X_1), [1, 16]),
        (single_block(X2_1_F3), [15]),
        (single_block(X2_1_F3), [1, 48]),
        (f3_two, [1, 2, 3]),
        (single_block(X2_1_F3), [3]),  # independent, but lane 0 holds 3
        (ElementaryDivisorSpec.make(P2, [(X3_X_1, 1), (poly_of(2, [1, 1]), 1)]), [16]),
    ]
    for spec, codes in probes + [(spec, []) for spec, _ in probes]:
        for with_distribution in (False, True):
            with pytest.raises(DomainError, match="codes"):
                analyze_packed(spec, codes, with_distribution)


def test_q3_primitive_stabilizer_contains_minus_one():
    rng = random.Random(SEED)
    spec = single_block(X2_X_2_F3)
    half = (3**2 - 1) // 2
    for _ in range(30):
        code = make_code(spec, rand_full_rank(rng, 3, 1, 2))
        assert half % analyze(code, method="fast").cardinality == 0


def test_distribution_contract():
    rng = random.Random(SEED * 3)
    spec = single_block(X6_X_1)
    for _ in range(15):
        code = make_code(spec, rand_full_rank(rng, 2, rng.randrange(1, 4), 6))
        params = analyze(code, method="fast", with_distribution=True)
        dist = params.distribution
        assert dist[0] == 1
        assert sum(dist) == params.cardinality
        assert len(dist) == code.k + 1
        # entry i counts codewords at distance 2i from the start
        naive = analyze(code, method="naive", with_distribution=True)
        assert dist == naive.distribution
    plain = analyze(code, method="fast")
    assert plain.distribution is None


def test_analyze_method_validation():
    code = make_code(single_block(X4_X_1), [(1, 0, 0, 0)])
    with pytest.raises(DomainError):
        analyze(code, method="telepathy")


def test_general_regime_falls_back_to_naive():
    # invertible non-block generator: only the oracle applies
    A = Mat.make(2, [[0, 1, 0], [0, 0, 1], [1, 1, 0]]) * Mat.make(
        2, [[1, 1, 0], [0, 1, 0], [0, 0, 1]]
    )
    code = general_code(A, Subspace.from_rows(2, 3, [(1, 0, 0)]))
    assert code.regime == "general"
    params = analyze(code)
    assert params.cardinality == matrix_order(A) // _stab_size(code)
    with pytest.raises(DomainError):
        analyze(code, method="fast")


def _stab_size(code):
    M = code.generator
    order = matrix_order(M)
    count = 0
    A = Mat.identity(code.q, code.n)
    for _ in range(order):
        if code.start.transform(A) == code.start:
            count += 1
        A = A * M
    return count


# -- block bounds -----------------------------------------------------------


def _two_block_code(rows):
    spec = ElementaryDivisorSpec.make(P2, [(X4_X_1, 1), (X6_X_1, 1)])
    return make_code(spec, rows)


def _report(shape, components, card, lower, exact, sum_bound, window):
    """A BoundsReport with (cardinality, min_distance) pairs as components."""
    comps = tuple(CodeParams(c, d) for c, d in components)
    return BoundsReport(shape, comps, card, lower, exact, sum_bound, window)


U1 = [(1, 0, 0, 0), (0, 1, 1, 0)]
U2 = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 1, 1)]


def test_block_bounds_diag_golden():
    code = _two_block_code([r + (0,) * 6 for r in U1] + [(0,) * 4 + r for r in U2])
    rep = block_bounds(code)
    assert rep.shape == "diag"
    assert [p.cardinality for p in rep.component_params] == [5, 21]
    assert [p.min_distance for p in rep.component_params] == [4, 4]
    assert rep.cardinality == 105
    assert rep.distance_lower == 4
    assert rep.distance_exact == 4  # gcd(5, 21) = 1
    assert rep.window[0] == 105 and rep.window[1] % 105 == 0
    # no component attains the lcm 105, so there is no sum bound
    assert rep == _report("diag", [(5, 4), (21, 4)], 105, 4, 4, None, (105, 315))


def test_block_bounds_diag_sum_bound():
    # components of equal cardinality: lcm attained by both, sum bound empty-J
    spec = ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X2_X_1, 1)])
    code = make_code(spec, [(1, 0, 0, 0), (0, 0, 1, 0)])
    rep = block_bounds(code)
    assert rep.shape == "diag"
    assert rep.cardinality == 3
    assert rep.sum_bound is not None
    assert analyze(code, method="naive").min_distance >= rep.distance_lower
    assert rep == _report("diag", [(3, 2), (3, 2)], 3, 2, None, 0, (3, 3))


def test_block_bounds_concat_golden():
    code = _two_block_code([a + b for a, b in zip(U1, U2)])
    rep = block_bounds(code)
    assert rep.shape == "concat"
    assert rep.distance_lower == 4
    assert rep.distance_exact is None
    lo, hi = rep.window
    assert lo == 105 and hi == 315
    card = analyze(code, method="fast").cardinality
    assert lo <= card <= hi and hi % card == 0 and card % lo == 0
    assert rep == _report("concat", [(5, 4), (21, 4)], None, 4, None, None, (105, 315))


def test_block_bounds_zero_component():
    # start entirely inside the first block: second component is trivial
    code = _two_block_code([(1, 0, 0, 0) + (0,) * 6, (0, 1, 1, 0) + (0,) * 6])
    rep = block_bounds(code)
    assert rep.shape == "diag"
    assert [p.cardinality for p in rep.component_params] == [5, 1]
    assert rep.cardinality == 5
    assert rep == _report("diag", [(5, 4), (1, None)], 5, 4, 4, 0, (5, 15))


def test_block_bounds_mixed_start_rejected():
    # row straddles both blocks without full slice rank: neither diag nor concat
    code = _two_block_code(
        [(1, 0, 0, 0, 1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0, 0, 0, 0, 0)]
    )
    with pytest.raises(
        ShapeMismatchError, match="^start is neither block-diagonal nor a full-rank concatenation$"
    ):
        block_bounds(code)
    bare = general_code(code.generator, code.start)
    with pytest.raises(
        ShapeMismatchError, match="^block bounds need a block-structured generator$"
    ):
        block_bounds(bare)


def test_block_bounds_single_block_collapse():
    code = make_code(single_block(X4_X_1), U1)
    rep = block_bounds(code)
    assert rep.cardinality == 5
    assert rep.distance_exact == 4
    assert rep == _report("single", [(5, 4)], 5, 4, 4, None, (5, 15))


X1_F3 = poly_of(3, [1, 1])  # x + 1 over F_3, order 2
Q3_P2 = [(X2_X_2_F3, 1), (X1_F3, 2)]
THREE = [(X2_X_1, 1), (X3_X_1, 1), (X4_NONPRIM, 1)]


@pytest.mark.parametrize(
    "blocks,rows,report",
    [
        # q = 3 with a p^2 block; the concat start's cardinality 24 is 2 lo
        pytest.param(
            Q3_P2, [(1, 0, 0, 0), (0, 0, 1, 0)],
            ("diag", [(4, 2), (3, 2)], 12, 2, 2, None, (12, 24)), id="q3_p2_diag",
        ),
        pytest.param(
            Q3_P2, [(1, 2, 0, 1)],
            ("concat", [(4, 2), (3, 2)], None, 2, None, None, (12, 24)), id="q3_p2_concat",
        ),
        pytest.param(
            THREE,
            [(1, 0) + (0,) * 7, (0, 0, 1) + (0,) * 6, (0,) * 5 + (1, 0, 0, 0), (0,) * 6 + (1, 1, 0)],
            ("diag", [(3, 2), (7, 2), (5, 2)], 105, 2, 2, None, (105, 105)), id="three_diag",
        ),
        pytest.param(
            THREE, [(1, 0, 1, 0, 0, 1, 0, 0, 0)],
            ("concat", [(3, 2), (7, 2), (5, 2)], None, 2, None, None, (105, 105)),
            id="three_concat",
        ),
        # the second component attains the lcm 21; the sum is the first's distance
        pytest.param(
            [(X2_X_1, 1), (X6_X_1, 1)], [(1, 0) + (0,) * 6] + [(0, 0) + r for r in U2],
            ("diag", [(3, 2), (21, 4)], 21, 2, None, 2, (21, 63)), id="diag_some_attain",
        ),
        # components of cardinalities 5 and 5
        pytest.param(
            [(X4_X_1, 1), (X4_NONPRIM, 1)], [(1, 0, 0, 0, 1, 0, 0, 0), (0, 1, 1, 0, 0, 0, 1, 0)],
            ("concat", [(5, 4), (5, 2)], None, 2, None, None, (5, 15)), id="concat_not_coprime",
        ),
        pytest.param(
            [(X3_X_1, 1)], [(1, 0, 0), (0, 1, 0), (0, 0, 1)],
            ("single", [(1, None)], 1, None, None, None, (1, 7)), id="single_k_eq_n",
        ),
    ],
)
def test_block_bounds_report(blocks, rows, report):
    code = make_code(ElementaryDivisorSpec.make(blocks[0][0].field, blocks), rows)
    assert block_bounds(code) == _report(*report)


# (block, exponent) pools for random multi-block codes, widths 1 to 4
BLOCK_POOL = {
    2: [(poly_of(2, [1, 1]), 2), (X2_X_1, 1), (X3_X_1, 1), (X4_NONPRIM, 1), (X2_X_1, 2)],
    3: [(X1_F3, 1), (poly_of(3, [2, 1]), 1), (X2_1_F3, 1), (X2_X_2_F3, 1), (X1_F3, 2)],
}


@st.composite
def multi_block_codes(draw):
    """(shape, code): 2-3 blocks from the pool (n <= 12 for q = 2, n <= 6
    for q = 3) and a random block-diagonal or full-rank concatenated start."""
    q = draw(st.sampled_from([2, 3]))
    blocks = draw(st.lists(st.sampled_from(BLOCK_POOL[q]), min_size=2, max_size=3))
    shape = draw(st.sampled_from(["diag", "concat"]))
    rng = random.Random(draw(st.integers(0, 2**32)))
    widths = [p.degree * e for p, e in blocks]
    if shape == "diag":
        while True:
            ks = [rng.randrange(min(w, 2) + 1) for w in widths]
            if any(ks):
                break
        rows = []
        for i, (k, w) in enumerate(zip(ks, widths)):
            if k:
                before, after = sum(widths[:i]), sum(widths[i + 1 :])
                U = rand_full_rank(rng, q, k, w)
                rows += [(0,) * before + r + (0,) * after for r in U.rows]
    else:
        k = rng.randrange(1, min(widths) + 1)
        slices = [rand_full_rank(rng, q, k, w).rows for w in widths]
        rows = [sum(parts, ()) for parts in zip(*slices)]
    spec = ElementaryDivisorSpec.make(PrimeField(q), blocks)
    return shape, make_code(spec, rows)


@settings(max_examples=80, deadline=None, derandomize=True)
@given(multi_block_codes())
def test_block_bounds_theorems(case):
    shape, code = case
    rep = block_bounds(code)
    assert rep.shape == shape
    params = analyze(code)
    lo, hi = rep.window
    assert params.cardinality % lo == 0 and hi % params.cardinality == 0
    if shape == "diag":
        assert rep.cardinality == params.cardinality
        if params.min_distance is None:
            assert rep.distance_lower is None
        else:
            assert rep.distance_lower <= params.min_distance
        if rep.distance_exact is not None:
            assert rep.distance_exact == params.min_distance


# -- duality ----------------------------------------------------------------


def test_dual_code_involution():
    code = make_code(single_block(X4_X_1), [(1, 0, 0, 0), (0, 1, 1, 0)])
    dd = dual_code(dual_code(code))
    assert dd.start == code.start
    assert dd.generator == code.generator


def test_dual_distance_preserved_examples():
    rng = random.Random(SEED - 1)
    spec = single_block(X6_X_1)
    for _ in range(10):
        code = make_code(spec, rand_full_rank(rng, 2, rng.randrange(1, 6), 6))
        a = analyze_naive(code)
        b = analyze_naive(dual_code(code))
        assert a.cardinality == b.cardinality
        assert a.min_distance == b.min_distance

        def trim(t):
            # tuple lengths are dim+1 and the dims differ; values agree
            out = list(t)
            while out and out[-1] == 0:
                out.pop()
            return out

        assert trim(a.distribution) == trim(b.distribution)
        assert macwilliams_check(code)


# -- JSON spec round trip ---------------------------------------------------

def test_json_round_trip():
    code = make_code(single_block(X4_NONPRIM), [(1, 0, 0, 0), (0, 0, 1, 1)])
    data = code_to_json_dict(code, shape="free")
    back, shape = code_from_json_dict(data)
    assert shape == "free"
    assert back.start == code.start
    assert back.generator == code.generator
    assert back.block_structure == code.block_structure


@pytest.mark.parametrize(
    "mutate,field",
    [
        (lambda d: d.pop("q"), "q"),
        (lambda d: d.update(q="two"), "q"),
        # JSON types are strict: no coercion from float, string or bool
        pytest.param(lambda d: d.update(q=2.9), "q", id="q-float"),
        pytest.param(lambda d: d.update(q="2"), "q", id="q-string"),
        pytest.param(lambda d: d.update(q=True), "q", id="q-bool"),
        pytest.param(lambda d: d.update(q=4), "q", id="q-not-prime"),
        (lambda d: d.update(blocks=[]), "blocks"),
        (lambda d: d["blocks"][0].update(poly="1 2 x"), "poly"),
        (lambda d: d["blocks"][0].update(exp="one"), "exp"),
        pytest.param(lambda d: d["blocks"][0].update(exp=True), "exp", id="exp-bool"),
        pytest.param(lambda d: d["blocks"][0].update(exp=1.7), "exp", id="exp-float"),
        pytest.param(lambda d: d["blocks"][0].update(exp="1"), "exp", id="exp-string"),
        (lambda d: d.update(start=[]), "start"),
        (lambda d: d.update(start=["1 0 0 0", "1 0 0"]), "start"),
        (lambda d: d.update(shape="wedge"), "shape"),
    ],
)
def test_json_errors_name_the_field(mutate, field):
    code = make_code(single_block(X4_NONPRIM), [(1, 0, 0, 0), (0, 0, 1, 1)])
    data = code_to_json_dict(code)
    mutate(data)
    with pytest.raises(DomainError) as err:
        code_from_json_dict(data)
    assert field in str(err.value)


@pytest.mark.parametrize("row,bad", [("1 0 3 0", 3), ("0 -1 1 0", -1), ("7 0 0 1", 7)])
def test_json_start_entries_outside_the_field(row, bad):
    code = make_code(single_block(X4_NONPRIM), [(1, 0, 0, 0), (0, 0, 1, 1)])
    data = code_to_json_dict(code)
    data["start"][1] = row
    with pytest.raises(DomainError) as err:
        code_from_json_dict(data)
    msg = str(err.value)
    assert repr(row) in msg and f"entry {bad}" in msg and "q = 2" in msg


def test_pair_scan_limit(monkeypatch):
    from orbitcodes import analysis

    # n=17, k=12 on one M-cycle (4095 elements) stays allowed; k=13 does not
    assert 4095 * 4094 // 2 <= analysis.PAIR_LIMIT < 8191 * 8190 // 2
    monkeypatch.setattr(analysis, "PAIR_LIMIT", 20)
    rows3 = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 0, 0, 0), (0, 0, 1, 0, 0, 0)]
    # 7 nonzero elements on the one cycle of x^6 + x + 1: 21 pairs
    with pytest.raises(DomainError, match=r"k = 3 .*21 pairs.* 20"):
        analyze(make_code(single_block(X6_X_1), rows3), method="fast")
    assert analyze(make_code(single_block(X6_X_1), rows3[:2])).cardinality == 63
