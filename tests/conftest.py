"""Shared fixtures and small independent oracles for the test suite."""

import random
from itertools import product, zip_longest

import pytest

from orbitcodes import ElementaryDivisorSpec, Poly, PrimeField, Subspace


def rand_full_rank(rng, q, k, n):
    """Rejection-sample a full-rank k x n start, canonicalized."""
    while True:
        rows = [[rng.randrange(q) for _ in range(n)] for _ in range(k)]
        S = Subspace.from_rows(q, n, rows)
        if S.dim == k:
            return S


def rand_vector(rng, q, n):
    return tuple(rng.randrange(q) for _ in range(n))


def span_size(rows, q):
    """Brute-force span size; independent of the library's rank routine."""
    n = len(rows[0]) if rows else 0
    seen = set()
    for coeffs in product(range(q), repeat=len(rows)):
        v = tuple(
            sum(c * row[j] for c, row in zip(coeffs, rows)) % q for j in range(n)
        )
        seen.add(v)
    return len(seen)


def poly_of(q, coeffs):
    return Poly.make(PrimeField(q), coeffs)


# -- tuple references for polynomial arithmetic ------------------------------
# The library multiplies, divides and runs Euclid on packed codes; these are
# the schoolbook routines on coefficient tuples those kernels are checked
# against. They share no code with the library beyond Poly's normalization.


def ref_add(a, b):
    """a + b coefficient by coefficient."""
    return Poly.make(a.field, [x + y for x, y in zip_longest(a.coeffs, b.coeffs, fillvalue=0)])


def ref_mul(a, b):
    """a * b by convolution of the coefficient tuples."""
    out = [0] * max(len(a.coeffs) + len(b.coeffs) - 1, 0)
    for i, x in enumerate(a.coeffs):
        for j, y in enumerate(b.coeffs):
            out[i + j] += x * y
    return Poly.make(a.field, out)


def ref_divmod(a, b):
    """(quotient, remainder) by long division on tuples; b nonzero."""
    q = a.field.q
    rem = list(a.coeffs)
    db = len(b.coeffs) - 1
    quo = [0] * max(len(rem) - db, 0)
    lead_inv = pow(b.coeffs[-1], q - 2, q)
    for shift in range(len(rem) - 1 - db, -1, -1):
        c = rem[shift + db] * lead_inv % q
        quo[shift] = c
        for i, y in enumerate(b.coeffs):
            rem[shift + i] = (rem[shift + i] - c * y) % q
    return Poly.make(a.field, quo), Poly.make(a.field, rem)


def ref_mod(a, b):
    return ref_divmod(a, b)[1]


def ref_ext_gcd(a, b):
    """(g, s, t) with s a + t b = g, g monic (zero when a = b = 0)."""
    field = a.field
    r0, r1 = a, b
    s0, s1 = Poly.make(field, [1]), Poly(field, ())
    t0, t1 = Poly(field, ()), Poly.make(field, [1])
    while not r1.is_zero:
        quo, rem = ref_divmod(r0, r1)
        r0, r1 = r1, rem
        s0, s1 = s1, s0 - ref_mul(quo, s1)
        t0, t1 = t1, t0 - ref_mul(quo, t1)
    if r0.is_zero:
        return r0, s0, t0
    lead_inv = Poly.make(field, [field.inv(r0.coeffs[-1])])
    return r0.monic(), ref_mul(lead_inv, s0), ref_mul(lead_inv, t0)


def ref_pow(p, e):
    """p^e by e products; e >= 0."""
    out = Poly.make(p.field, [1])
    for _ in range(e):
        out = ref_mul(out, p)
    return out


def pow_mod(base, e, mod):
    """base^e mod `mod` by square and multiply on the tuple reference; e >= 0."""
    result = Poly.make(mod.field, [1])
    acc = ref_mod(base, mod)
    while e:
        if e & 1:
            result = ref_mod(ref_mul(result, acc), mod)
        acc = ref_mod(ref_mul(acc, acc), mod)
        e >>= 1
    return result


def mul_by_x(ctx, a):
    """x * a mod f on a coefficient tuple of length n, with x^n read off f."""
    f, q = ctx.modulus, ctx.q
    *low, top = a
    return tuple((c - top * f.coeff(i)) % q for i, c in enumerate([0] + low))


def row_times_mat(v, M):
    """v M for a coefficient tuple v, entry by entry."""
    return tuple(
        sum(x * row[j] for x, row in zip(v, M.rows)) % M.q for j in range(M.ncols)
    )


def single_block(p):
    return ElementaryDivisorSpec.make(p.field, [(p, 1)])


# fixed small polynomial zoo used across suites
P2 = PrimeField(2)
P3 = PrimeField(3)

X4_X_1 = poly_of(2, [1, 1, 0, 0, 1])            # primitive, order 15
X4_NONPRIM = poly_of(2, [1, 1, 1, 1, 1])        # irreducible, order 5
X6_X_1 = poly_of(2, [1, 1, 0, 0, 0, 0, 1])      # primitive, order 63
X2_X_1 = poly_of(2, [1, 1, 1])                  # primitive quadratic, order 3
X3_X_1 = poly_of(2, [1, 1, 0, 1])               # primitive cubic, order 7
X2_1_F3 = poly_of(3, [1, 0, 1])                 # irreducible over F_3, order 4
X2_X_2_F3 = poly_of(3, [2, 1, 1])               # primitive over F_3, order 8


@pytest.fixture
def rng():
    return random.Random(0xC0DE)


ACCEPTANCE_LABELS = {
    1: "spread golden examples",
    2: "non-primitive golden example",
    3: "block construction examples",
    4: "table reproduction by seeded search",
    5: "analyzer equals oracle",
    6: "decoder soundness within radius",
    7: "decoder loop-count law",
    8: "distance distribution duality",
    9: "invariant property suites",
}


def pytest_terminal_summary(terminalreporter):
    """One verdict line per acceptance criterion at the end of the run."""
    verdicts = {}
    for status in ("passed", "failed", "error"):
        for rep in terminalreporter.stats.get(status, []):
            nodeid = getattr(rep, "nodeid", "")
            if "test_acceptance.py::test_criterion_" in nodeid:
                num = int(nodeid.rsplit("_", 1)[1])
                verdicts[num] = "PASS" if status == "passed" else "FAIL"
    if verdicts:
        terminalreporter.write_line("")
        for num in sorted(verdicts):
            label = ACCEPTANCE_LABELS.get(num, "criterion")
            terminalreporter.write_line(f"ACCEPTANCE {num} {label}: {verdicts[num]}")
