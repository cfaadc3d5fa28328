"""Acceptance gate: the nine primary behaviors, one test per criterion.

Each test prints one ACCEPTANCE line on success; the terminal summary hook
in conftest repeats the verdict for every criterion after the run.
"""

import itertools
import math
import random

import pytest

from orbitcodes import (
    ChannelConfig,
    ElementaryDivisorSpec,
    Mat,
    Poly,
    PrimeField,
    SpreadSpec,
    Subspace,
    analyze,
    analyze_naive,
    block_bounds,
    build_spread,
    codeword,
    companion_matrix,
    decode_exhaustive,
    decode_lf,
    dual,
    dual_code,
    enumerate_orbit,
    field_context,
    find_irreducible_with_order,
    general_code,
    least_primitive,
    lf_set,
    lf_vector_count,
    macwilliams_check,
    make_code,
    phi,
    psi,
    random_search,
    spread_start_rows,
    subspace_distance,
    transmit,
    verify_spread,
)

from conftest import (
    P2,
    P3,
    X2_X_1,
    X3_X_1,
    X4_NONPRIM,
    X4_X_1,
    X6_X_1,
    rand_full_rank,
    row_times_mat,
    single_block,
)

SEED = 1009


def _passed(num, label):
    print(f"ACCEPTANCE {num} {label}: PASS")


def _pair(code):
    fast = analyze(code, method="fast", with_distribution=True)
    naive = analyze(code, method="naive", with_distribution=True)
    return fast, naive


# -- 1: spread golden examples ----------------------------------------------


def test_criterion_1():
    spec3 = SpreadSpec.make(2, 3, 6)
    assert spread_start_rows(spec3) == [
        (1, 0, 0, 0, 0, 0),
        (0, 0, 0, 1, 1, 0),
        (1, 1, 1, 1, 0, 0),
    ]
    code3 = build_spread(spec3)
    fast3, naive3 = _pair(code3)
    assert fast3 == naive3
    assert (fast3.cardinality, fast3.min_distance) == (9, 6)
    assert verify_spread(code3)

    spec2 = SpreadSpec.make(2, 2, 6)
    code2 = build_spread(spec2)
    fast2, naive2 = _pair(code2)
    assert fast2 == naive2
    assert (fast2.cardinality, fast2.min_distance) == (21, 4)
    assert verify_spread(code2)
    # the k=2 start is the 4-element subfield: rows x^0 and x^21 reduced
    # mod x^6+x+1, which canonicalize to (100000),(010111)
    assert spread_start_rows(spec2)[1] == (1, 1, 0, 1, 1, 1)
    assert code2.start == Subspace.from_rows(
        2, 6, [(1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 1, 1)]
    )
    # pairing e_1 with (111000) = x^26 instead does not give a spread: that
    # start has trivial stabilizer and neighboring shifts share a line
    other = make_code(
        single_block(spec2.p), [(1, 0, 0, 0, 0, 0), (1, 1, 1, 0, 0, 0)]
    )
    po = analyze(other, method="fast")
    assert (po.cardinality, po.min_distance) == (63, 2)
    assert not verify_spread(other)
    _passed(1, "spread golden examples")


# -- 2: non-primitive golden example ----------------------------------------


def test_criterion_2():
    code = make_code(single_block(X4_NONPRIM), [(1, 0, 0, 0), (0, 0, 1, 1)])
    assert set(code.start.nonzero_elements()) == {
        (1, 0, 0, 0),
        (0, 0, 1, 1),
        (1, 0, 1, 1),
    }
    fast, naive = _pair(code)
    assert fast == naive
    assert (fast.cardinality, fast.min_distance) == (5, 4)
    _passed(2, "non-primitive golden example")


# -- 3: block construction examples -----------------------------------------


def test_criterion_3():
    spec = ElementaryDivisorSpec.make(P2, [(X4_X_1, 1), (X6_X_1, 1)])
    U1 = [(1, 0, 0, 0), (0, 1, 1, 0)]
    U2 = [(1, 0, 0, 0, 0, 0), (0, 1, 0, 1, 1, 1)]

    for rows, p, expect in ((U1, X4_X_1, (5, 4)), (U2, X6_X_1, (21, 4))):
        comp = make_code(single_block(p), rows)
        fast, naive = _pair(comp)
        assert fast == naive
        assert (fast.cardinality, fast.min_distance) == expect

    diag = make_code(
        spec, [r + (0,) * 6 for r in U1] + [(0,) * 4 + r for r in U2]
    )
    fast, naive = _pair(diag)
    assert fast == naive
    assert (fast.cardinality, fast.min_distance) == (105, 4)
    rep = block_bounds(diag)
    assert rep.shape == "diag"
    assert rep.cardinality == 105  # lcm(5, 21), exact
    assert rep.distance_exact == 4  # coprime component cardinalities

    concat = make_code(spec, [a + b for a, b in zip(U1, U2)])
    fast, naive = _pair(concat)
    assert fast == naive
    assert (fast.cardinality, fast.min_distance) == (315, 4)
    assert block_bounds(concat).shape == "concat"
    _passed(3, "block construction examples")


# -- 4: table reproduction by seeded search ---------------------------------


def _cells_of(report):
    return {c.distance: c.cardinality for c in report.cells}


def _reverify(p, k, report, distance):
    """Rebuild the recorded start and re-measure it with the oracle."""
    cell = report.cell(distance)
    code = make_code(single_block(p), cell.start_rows)
    params = analyze(code, method="naive")
    assert (params.cardinality, params.min_distance) == (
        cell.cardinality,
        cell.distance,
    )


def test_criterion_4():
    # k=2 over the least primitive polynomial, n = 4..10
    d4_targets = {4: 5, 6: 21, 8: 85, 10: 341}
    for n in range(4, 11):
        p = least_primitive(P2, n)
        rep = random_search(2, 2, n, p, trials=3000, seed=SEED)
        cells = _cells_of(rep)
        assert cells[2] == 2**n - 1, f"n={n}"
        _reverify(p, 2, rep, 2)
        if n in d4_targets:
            assert cells[4] == d4_targets[n], f"n={n}"
            _reverify(p, 2, rep, 4)

    # k=3, n=6 column
    p6 = least_primitive(P2, 6)
    rep = random_search(2, 3, 6, p6, trials=4000, seed=SEED)
    cells = _cells_of(rep)
    assert (cells[2], cells[4], cells[6]) == (63, 63, 9)
    for d in (2, 4, 6):
        _reverify(p6, 3, rep, d)

    # k=4, n=8 column; the distance-8 hit is the 17-element spread and
    # needs a deep scan (first hit at trial 42340 for this seed)
    p8 = least_primitive(P2, 8)
    rep = random_search(2, 4, 8, p8, trials=45000, seed=SEED, jobs=2)
    cells = _cells_of(rep)
    assert (cells[2], cells[4], cells[8]) == (255, 255, 17)
    for d in (2, 4, 8):
        _reverify(p8, 4, rep, d)

    # degree-10 irreducibles of orders 33, 93, 341: every k=2..5 search
    # must reach cardinality = generator order at distances 2 and 4
    for order in (33, 93, 341):
        p = find_irreducible_with_order(P2, 10, order)
        for k in (2, 3, 4, 5):
            trials = 6000 if (order, k) == (33, 4) else 4000
            rep = random_search(2, k, 10, p, trials=trials, seed=SEED)
            cells = _cells_of(rep)
            assert cells.get(2) == order, f"order={order} k={k}"
            assert cells.get(4) == order, f"order={order} k={k}"
            _reverify(p, k, rep, 2)
            _reverify(p, k, rep, 4)
    _passed(4, "table reproduction by seeded search")


# -- 5: analyzer equals oracle ----------------------------------------------


def _primitive_pool():
    pool = [least_primitive(P2, n) for n in range(4, 11)]
    pool += [least_primitive(P3, n) for n in range(2, 7)]
    return pool


def _irreducible_pool():
    pool = [
        find_irreducible_with_order(P2, n, o)
        for n, o in [(4, 5), (6, 9), (6, 21), (8, 17), (8, 51), (8, 85),
                     (10, 33), (10, 93), (10, 341)]
    ]
    pool += [
        find_irreducible_with_order(P3, n, o)
        for n, o in [(2, 4), (3, 13), (4, 10), (4, 16), (4, 20), (6, 91)]
    ]
    return pool


def _reducible_pool():
    # the structural two-block analyzer needs primitive blocks; repeats
    # of the same polynomial are allowed (the generator is not cyclic then)
    q2 = [X2_X_1, X3_X_1, X4_X_1, X6_X_1]
    combos = [
        ElementaryDivisorSpec.make(P2, [(a, 1), (b, 1)])
        for a, b in itertools.combinations_with_replacement(q2, 2)
        if a.degree + b.degree <= 10
    ]
    q3 = [least_primitive(P3, 1), Poly.make(P3, (2, 1, 1)), least_primitive(P3, 3)]
    combos += [
        ElementaryDivisorSpec.make(P3, [(a, 1), (b, 1)])
        for a, b in itertools.combinations_with_replacement(q3, 2)
    ]
    return combos


def _nonsemisimple_pool():
    # single p^2 block only; higher powers and mixed shapes fall in "general"
    return [
        ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)]),
        ElementaryDivisorSpec.make(P2, [(X3_X_1, 2)]),
        ElementaryDivisorSpec.make(P2, [(X4_X_1, 2)]),
        ElementaryDivisorSpec.make(P2, [(X4_NONPRIM, 2)]),
        ElementaryDivisorSpec.make(P3, [(Poly.make(P3, (1, 1)), 2)]),
        ElementaryDivisorSpec.make(P3, [(Poly.make(P3, (1, 0, 1)), 2)]),
        ElementaryDivisorSpec.make(P3, [(Poly.make(P3, (2, 1, 1)), 2)]),
    ]


def test_criterion_5():
    regimes = {
        "primitive": [single_block(p) for p in _primitive_pool()],
        "irreducible": [single_block(p) for p in _irreducible_pool()],
        "completely_reducible": _reducible_pool(),
        "non_semisimple": _nonsemisimple_pool(),
    }
    for regime, specs in regimes.items():
        rng = random.Random(SEED ^ hash(regime) % 10000)
        checked = 0
        while checked < 200:
            spec = rng.choice(specs)
            q, n = spec.field.q, spec.n
            k = rng.randrange(1, min(n - 1, 4) + 1)
            code = make_code(spec, rand_full_rank(rng, q, k, n))
            assert code.regime == regime
            fast, naive = _pair(code)
            assert fast == naive, f"{regime} {spec} start {code.start.rows}"
            checked += 1
    _passed(5, "analyzer equals oracle")


# -- 6: decoder soundness within the radius ---------------------------------


def _subspaces_of(V):
    """All nonzero proper-and-full subspaces of a small subspace V."""
    elems = list(V.nonzero_elements())
    seen = {}
    for r in range(1, len(V.rows) + 1):
        for combo in itertools.combinations(elems, r):
            S = Subspace.from_rows(V.q, V.n, combo)
            seen.setdefault(S.rows, S)
    return list(seen.values())


def _received_within(V, radius):
    """Every subspace R of the ambient space with d(V, R) <= radius <= 2."""
    q, n, k = V.q, V.n, V.dim
    ambient = [
        v for v in itertools.product(range(q), repeat=n) if any(v)
    ]
    outside = [v for v in ambient if not V.contains(v)]
    found = {}

    def note(S):
        found.setdefault(S.rows, S)

    subs = [S for S in _subspaces_of(V)] + [V]
    for S in subs:
        s = S.dim if S.rows else 0
        erasures = k - s
        if erasures > radius:
            continue
        budget = radius - erasures
        note(S)
        if budget >= 1:
            for x in outside:
                R1 = Subspace.from_rows(q, n, list(S.rows) + [x])
                note(R1)
                if budget >= 2:
                    span1 = R1  # S + <x>
                    for y in outside:
                        if span1.contains(y) or V.contains(y):
                            continue
                        up = Subspace.from_rows(q, n, list(R1.rows) + [y])
                        if up.dim == s + 2:
                            note(up)
    return [R for R in found.values() if subspace_distance(V, R) <= radius]


def _assert_decodes_to(code, R, exponent):
    for decode in (decode_exhaustive, decode_lf):
        res = decode(R, code)
        assert res.unique, f"exp {exponent}: ambiguous"
        assert res.group_exponent == exponent, f"exp {exponent}: wrong codeword"


def test_criterion_6():
    # n = 6 spreads: exhaustive enumeration of the decoding ball
    for k in (3, 2):
        code = build_spread(SpreadSpec.make(2, k, 6))
        params = analyze(code, method="fast")
        radius = params.min_distance // 2 - 1
        total = 0
        for e in range(params.cardinality):
            V = codeword(code, e)
            ball = _received_within(V, radius)
            for R in ball:
                _assert_decodes_to(code, R, e)
            total += len(ball)
        expected_ball = {3: 127, 2: 19}[k]
        assert total == params.cardinality * expected_ball

    # n = 8 spreads: sampled channel corruptions, 1000 seeds each
    for k in (2, 4):
        code = build_spread(SpreadSpec.make(2, k, 8))
        params = analyze(code, method="fast")
        radius = params.min_distance // 2 - 1
        rng = random.Random(SEED + k)
        for trial in range(1000):
            e = rng.randrange(params.cardinality)
            V = codeword(code, e)
            erasures = rng.randrange(0, radius + 1)
            errors = rng.randrange(0, radius - erasures + 1)
            cfg = ChannelConfig(erasures, errors, seed=rng.randrange(1 << 30))
            R = transmit(V, cfg)
            _assert_decodes_to(code, R, e)
    _passed(6, "decoder soundness within radius")


# -- 7: loop-count law ------------------------------------------------------


def _pascal(maxn):
    rows = [[1]]
    for i in range(1, maxn + 1):
        prev = rows[-1]
        rows.append(
            [1] + [prev[j - 1] + prev[j] for j in range(1, i)] + [1]
        )
    return rows


def test_criterion_7():
    # exact pair count of the full scan
    rng = random.Random(SEED * 3)
    for p, k in [(X6_X_1, 3), (X6_X_1, 2), (X4_NONPRIM, 2), (X4_X_1, 2)]:
        q, n = p.field.q, p.degree
        code = make_code(single_block(p), rand_full_rank(rng, q, k, n))
        for kp in range(1, n):
            R = rand_full_rank(rng, q, kp, n)
            res = decode_exhaustive(R, code)
            assert res.candidates_examined == (q**k - 1) * (q**kp - 1)

    # restricted scan never exceeds its budget
    code = build_spread(SpreadSpec.make(2, 3, 6))
    for _ in range(50):
        kp = rng.randrange(1, 6)
        R = rand_full_rank(rng, 2, kp, 6)
        for f in range(kp):
            res = decode_lf(R, code, f=f)
            assert res.candidates_examined <= 7 * lf_vector_count(2, kp, f)

    # closed-form budget values against an independent binomial evaluation
    pas = _pascal(24)
    for q in (2, 4):
        for k in range(4, 25):
            f = k // 2 - 2
            independent = sum(
                pas[k][i] * (q - 1) ** i for i in range(1, f + 2)
            )
            assert lf_vector_count(q, k, f) == independent
            budget = (q**k - 1) * independent
            exhaustive = (q**k - 1) * (q**k - 1)
            assert budget == (q**k - 1) * lf_vector_count(q, k, f)
            assert budget < exhaustive
    _passed(7, "decoder loop-count law")


# -- 8: distance distribution duality ---------------------------------------


def _trim(t):
    out = list(t)
    while out and out[-1] == 0:
        out.pop()
    return out


def test_criterion_8():
    rng = random.Random(SEED * 5)
    specs = [
        single_block(p)
        for p in (X4_X_1, X4_NONPRIM, X6_X_1,
                  find_irreducible_with_order(P2, 8, 85),
                  least_primitive(P2, 7), least_primitive(P3, 4))
    ]
    specs.append(ElementaryDivisorSpec.make(P2, [(X2_X_1, 1), (X4_X_1, 1)]))
    specs.append(ElementaryDivisorSpec.make(P2, [(X2_X_1, 2)]))
    for _ in range(50):
        spec = rng.choice(specs)
        q, n = spec.field.q, spec.n
        k = rng.randrange(1, n)
        code = make_code(spec, rand_full_rank(rng, q, k, n))
        a = analyze_naive(code)
        b = analyze_naive(dual_code(code))
        assert _trim(a.distribution) == _trim(b.distribution)
        assert macwilliams_check(code)
    _passed(8, "distance distribution duality")


# -- 9: invariant property suites -------------------------------------------


def _metric_suite(rng):
    shapes = [(2, 4), (2, 5), (2, 6), (3, 3), (3, 4)]
    for _ in range(500):
        q, n = rng.choice(shapes)
        dims = [rng.randrange(1, n) for _ in range(3)]
        U, V, W = (rand_full_rank(rng, q, d, n) for d in dims)
        duv = subspace_distance(U, V)
        assert duv >= 0
        assert (duv == 0) == (U == V)
        assert duv == subspace_distance(V, U)
        assert subspace_distance(U, W) <= duv + subspace_distance(V, W)


def _poly_matrix(q, M, coeffs):
    """sum of coeffs[i] * M^i, built entrywise."""
    n = M.nrows
    acc = [[0] * n for _ in range(n)]
    X = Mat.identity(q, n)
    for c in coeffs:
        if c:
            for i in range(n):
                for j in range(n):
                    acc[i][j] = (acc[i][j] + c * X.rows[i][j]) % q
        X = X * M
    return Mat.make(q, acc)


def _commutation_suite(rng):
    ctxs = [field_context(p) for p in (X3_X_1, X4_X_1, X4_NONPRIM, X6_X_1,
                                       Poly.make(P3, (2, 1, 1)))]
    for _ in range(500):
        ctx = rng.choice(ctxs)
        q, n = ctx.q, ctx.n
        M = companion_matrix(ctx.modulus)
        coeffs = [rng.randrange(q) for _ in range(n)]
        if not any(coeffs):
            coeffs[rng.randrange(n)] = 1
        A = _poly_matrix(q, M, coeffs)
        v = tuple(rng.randrange(q) for _ in range(n))
        u = psi(A, ctx)
        assert phi(row_times_mat(v, A), ctx) == phi(v, ctx) * u


def _isometry_suite(rng):
    for i in range(500):
        q, n = rng.choice([(2, 4), (2, 5), (2, 6), (3, 3)])
        U = rand_full_rank(rng, q, rng.randrange(1, n), n)
        V = rand_full_rank(rng, q, rng.randrange(1, n), n)
        while True:
            A = Mat.make(q, [[rng.randrange(q) for _ in range(n)] for _ in range(n)])
            if A.rank() == n:
                break
        assert subspace_distance(U.transform(A), V.transform(A)) == subspace_distance(U, V)
        if i % 25 == 0:
            # conjugating the generator and moving the start is invisible
            # to the whole parameter set
            p = X4_X_1 if q == 2 else Poly.make(P3, (2, 1, 1))
            if p.degree != n:
                continue
            M = companion_matrix(p)
            base = make_code(single_block(p), U)
            moved = general_code(A.inverse() * M * A, U.transform(A))
            assert analyze_naive(base) == analyze_naive(moved)


def _low_support_suite(rng):
    code = build_spread(SpreadSpec.make(2, 3, 6))
    outside_pool = [
        v for v in itertools.product(range(2), repeat=6) if any(v)
    ]
    for _ in range(500):
        e = rng.randrange(9)
        V = codeword(code, e)
        f = rng.choice((1, 2))
        keep = list(V.rows)
        rng.shuffle(keep)
        rows = keep[: 3 - f]
        span = Subspace.from_rows(2, 6, rows)
        while span.dim < 3:
            x = rng.choice(outside_pool)
            if not V.contains(x) and not span.contains(x):
                rows.append(x)
                span = Subspace.from_rows(2, 6, rows)
        R = span
        # any basis: random invertible recombination of the rows
        while True:
            C = Mat.make(2, [[rng.randrange(2) for _ in range(3)] for _ in range(3)])
            if C.rank() == 3:
                break
        basis = [tuple(r) for r in (C * Mat.make(2, [list(r) for r in R.rows])).rows]
        inside = [v for v in lf_set(basis, f, 2) if V.contains(v)]
        assert inside
        assert Subspace.from_rows(2, 6, inside).dim >= 3 - f


def _q3_halving_suite(rng):
    ctxs = [least_primitive(P3, n) for n in range(2, 6)]
    for _ in range(500):
        p = rng.choice(ctxs)
        n = p.degree
        half = (3**n - 1) // 2
        k = rng.randrange(1, n)
        code = make_code(single_block(p), rand_full_rank(rng, 3, k, n))
        params = analyze(code, method="fast")
        assert half % params.cardinality == 0


def _duality_suite(rng):
    for _ in range(500):
        q, n = rng.choice([(2, 4), (2, 6), (2, 7), (3, 4)])
        U = rand_full_rank(rng, q, rng.randrange(1, n), n)
        V = rand_full_rank(rng, q, rng.randrange(1, n), n)
        assert subspace_distance(dual(U), dual(V)) == subspace_distance(U, V)


def test_criterion_9():
    suites = (
        _metric_suite,
        _commutation_suite,
        _isometry_suite,
        _low_support_suite,
        _q3_halving_suite,
        _duality_suite,
    )
    for i, suite in enumerate(suites):
        suite(random.Random(SEED * 7 + i))
    _passed(9, "invariant property suites")
