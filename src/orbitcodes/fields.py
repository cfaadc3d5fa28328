"""Exact arithmetic over prime fields F_q and quotient rings F_q[x]/(f).

A vector of F_q^n and an element of F_q[x]/(f) with deg f = n are the same
thing: a coefficient vector (ascending powers of x), stored packed into one
int (Lanes). Ring elements, subspace bases, every inner loop and the
polynomial arithmetic (sums, products, division, both Euclids) use that
int; coefficient tuples appear only at the public boundary. All arithmetic
is exact integer arithmetic mod q; no floating point anywhere.
"""

from __future__ import annotations

import itertools
import math
import operator
from array import array
from bisect import bisect_right
from dataclasses import dataclass
from functools import cached_property, lru_cache
from typing import Iterator

from .errors import DomainError, NoSuchPolynomialError, NonUnitError

# Degree of the zero polynomial; compares below every integer.
NEG_INF = float("-inf")

# Most nonzero elements a cycle index may hold (q^n - 1 for degree n).
CYCLE_INDEX_LIMIT = 2**22


# Miller-Rabin with these bases is exact below 3.3 * 10^24 (Sorenson and
# Webster 2015).
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def _is_prime(m: int) -> bool:
    """Division by _MR_BASES, then Miller-Rabin over them."""
    if m < 2:
        return False
    for p in _MR_BASES:
        if m % p == 0:
            return m == p
    d, s = m - 1, 0
    while not d & 1:
        d >>= 1
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, m)
        if x == 1 or x == m - 1:
            continue
        for _ in range(s - 1):
            x = x * x % m
            if x == m - 1:
                break
        else:
            return False
    return True


# Most squarings _rho may take on one number: about a second. A product of
# two primes near 2^60 would need about 2^30; 2^62 - 1 needs under 2^16.
RHO_STEP_LIMIT = 2**20


def _rho(m: int) -> int:
    """A proper factor of an odd composite m with no factor below 1024:
    Pollard's rho in Brent's form (Brent 1980), gcds batched over 128 steps.
    Deterministic: the polynomials y^2 + c are tried for c = 1, 2, ...
    A round that would pass RHO_STEP_LIMIT squarings raises DomainError."""
    steps = 0
    for c in itertools.count(1):
        y, r, g, acc = 2, 1, 1, 1
        while g == 1:
            # a round takes r squarings to advance and at most r to batch
            steps += 2 * r
            if steps > RHO_STEP_LIMIT:
                raise DomainError(
                    f"cannot factorize {m}: Pollard's rho found no factor within "
                    f"the limit of {RHO_STEP_LIMIT} squarings"
                )
            x = y
            for _ in range(r):
                y = (y * y + c) % m
            k = 0
            while k < r and g == 1:
                ys = y
                for _ in range(min(128, r - k)):
                    y = (y * y + c) % m
                    acc = acc * abs(x - y) % m
                g = math.gcd(acc, m)
                k += 128
            r *= 2
        if g == m:
            # the batch overshot: step through it one gcd at a time
            g = 1
            while g == 1:
                ys = (ys * ys + c) % m
                g = math.gcd(abs(x - ys), m)
        if g != m:
            return g


def factorize(m: int) -> dict[int, int]:
    """Prime factorization, primes ascending. Trial division below 1024,
    then Miller-Rabin and Pollard-Brent rho on what is left (Pollard 1975;
    Brent 1980), so a large prime factor costs a primality test, not a
    scan up to its square root."""
    if m < 1:
        raise DomainError(f"cannot factorize {m}")
    out: dict[int, int] = {}
    d = 2
    while d < 1024 and d * d <= m:
        while m % d == 0:
            out[d] = out.get(d, 0) + 1
            m //= d
        d += 1
    rest = [m] if m > 1 else []
    while rest:
        r = rest.pop()
        if _is_prime(r):
            out[r] = out.get(r, 0) + 1
        else:
            g = _rho(r)
            rest += [g, r // g]
    return dict(sorted(out.items()))


def multiplicative_order(a: int, m: int) -> int:
    """Order of a in (Z/m)^*. Requires gcd(a, m) = 1."""
    if m == 1:
        return 1
    if math.gcd(a, m) != 1:
        raise DomainError(f"{a} is not a unit mod {m}")
    t = a % m
    for e in range(1, m + 1):
        if t == 1:
            return e
        t = (t * a) % m
    raise DomainError(f"order of {a} mod {m} not found")  # unreachable


def primitive_root(q: int) -> int:
    """The least generator of the multiplicative group of F_q, q prime."""
    factors = factorize(q - 1)
    return next(g for g in range(1, q) if all(pow(g, (q - 1) // r, q) != 1 for r in factors))


@dataclass(frozen=True)
class PrimeField:
    """The prime field F_q. Elements are plain ints in range(q)."""

    q: int

    def __post_init__(self) -> None:
        if not _is_prime(self.q):
            raise DomainError(f"field size must be prime, got {self.q}")

    def inv(self, a: int) -> int:
        a %= self.q
        if a == 0:
            raise NonUnitError("division by zero in the base field")
        return pow(a, self.q - 2, self.q)

    def __repr__(self) -> str:
        return f"GF({self.q})"


def check_entries(values, q: int, where: str) -> None:
    """Refuse parsed text whose integers are not all in [0, q); where names
    the row or polynomial they came from."""
    bad = next((x for x in values if not 0 <= x < q), None)
    if bad is not None:
        raise DomainError(f"{where}: entry {bad} is outside [0, {q}) for q = {q}")


@dataclass(frozen=True)
class Poly:
    """Univariate polynomial over a prime field, coefficients ascending.

    The coefficient tuple is normalized: reduced mod q with no trailing
    zeros, so the zero polynomial is the empty tuple and equality is
    structural.
    """

    field: PrimeField
    coeffs: tuple[int, ...]

    @classmethod
    def make(cls, field: PrimeField, coeffs) -> "Poly":
        c = [int(x) % field.q for x in coeffs]
        while c and c[-1] == 0:
            c.pop()
        return cls(field, tuple(c))

    @classmethod
    def from_text(cls, field: PrimeField, text: str) -> "Poly":
        """Parse the space-separated ascending-coefficient form, e.g. "1 1 0 0 0 0 1"."""
        try:
            coeffs = [int(tok) for tok in text.split()]
        except ValueError as exc:
            raise DomainError(
                f"polynomial text must be space-separated integers: {text!r}"
            ) from exc
        if not coeffs:
            raise DomainError("empty polynomial text")
        check_entries(coeffs, field.q, f"polynomial {text.strip()!r}")
        return cls.make(field, coeffs)

    def to_text(self) -> str:
        coeffs = self.coeffs if self.coeffs else (0,)
        return " ".join(str(c) for c in coeffs)

    @property
    def degree(self):
        return len(self.coeffs) - 1 if self.coeffs else NEG_INF

    @property
    def is_zero(self) -> bool:
        return not self.coeffs

    @property
    def is_monic(self) -> bool:
        return bool(self.coeffs) and self.coeffs[-1] == 1

    def monic(self) -> "Poly":
        if self.is_zero or self.is_monic:
            return self
        inv = self.field.inv(self.coeffs[-1])
        return Poly.make(self.field, [c * inv for c in self.coeffs])

    def coeff(self, i: int) -> int:
        return self.coeffs[i] if 0 <= i < len(self.coeffs) else 0

    def __add__(self, other: "Poly") -> "Poly":
        L = _poly_lanes(self.field.q, max(len(self.coeffs), len(other.coeffs)))
        return Poly.make(self.field, L.unpack(L.add(L.pack(self.coeffs), L.pack(other.coeffs))))

    def __neg__(self) -> "Poly":
        return Poly.make(self.field, [-c for c in self.coeffs])

    def __sub__(self, other: "Poly") -> "Poly":
        return self + (-other)

    def __mul__(self, other: "Poly") -> "Poly":
        L = _poly_lanes(self.field.q, len(self.coeffs) + len(other.coeffs) - 1)
        return Poly.make(self.field, L.unpack(L.mul(L.pack(self.coeffs), L.pack(other.coeffs))))

    def __divmod__(self, other: "Poly") -> tuple["Poly", "Poly"]:
        if other.is_zero:
            raise NonUnitError("polynomial division by zero")
        L = _poly_lanes(self.field.q, len(self.coeffs))
        quo, rem = L.divmod(L.pack(self.coeffs), L.pack(other.coeffs))
        return Poly.make(self.field, L.unpack(quo)), Poly.make(self.field, L.unpack(rem))

    def __mod__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[1]

    def __floordiv__(self, other: "Poly") -> "Poly":
        return divmod(self, other)[0]

    def encoding(self) -> int:
        """Integer encoding sum(c_i * q^i); the deterministic tie-break order."""
        q = self.field.q
        acc = 0
        for c in reversed(self.coeffs):
            acc = acc * q + c
        return acc

    def __str__(self) -> str:
        if self.is_zero:
            return "0"
        terms = []
        for i in range(len(self.coeffs) - 1, -1, -1):
            c = self.coeffs[i]
            if c == 0:
                continue
            if i == 0:
                terms.append(str(c))
            else:
                xs = "x" if i == 1 else f"x^{i}"
                terms.append(xs if c == 1 else f"{c}{xs}")
        return " + ".join(terms)


@lru_cache(maxsize=128)
def is_irreducible(f: Poly) -> bool:
    """Irreducibility over F_q: gcd(x^(q^d) - x, f) = 1 for d up to deg/2.

    Runs on packed codes: each x^(q^d) is the q-th power of the one
    before, and the gcd is Euclid on codes.
    """
    if f.degree is NEG_INF or f.degree == 0:
        return False
    f = f.monic()
    if f.degree == 1:
        return True
    ring = PackedRing(f)
    q, wide = ring.q, ring.wide
    x = ring.mul_by_x_code(1)
    neg_x = wide.scale(x, q - 1)
    frob = x
    for _ in range(ring.n // 2):
        frob = ring.pow_code(frob, q)
        a, b = ring.f_code, wide.add(frob, neg_x)
        while b:
            a, b = b, wide.divmod(a, b)[1]
        if a >> wide.w:
            return False
    return True


@lru_cache(maxsize=128)
def _irreducible_order(p: Poly) -> int:
    """Order of x mod a monic irreducible p with p(0) != 0: strip each prime
    from q^deg - 1 while x to the remaining power is still 1."""
    ring = PackedRing(p)
    m = ring.q**ring.n - 1
    x = ring.mul_by_x_code(1)  # x reduced mod p, also for deg p = 1
    for r in factorize(m):
        while m % r == 0 and ring.pow_code(x, m // r) == 1:
            m //= r
    return m


def power_order(p: Poly, e: int) -> int:
    """Order of x mod p^e for irreducible p with p(0) != 0:
    ord(p) * q^t, t the least with q^t >= e (Lidl & Niederreiter, Thm 3.8)."""
    if p.coeff(0) == 0:
        raise DomainError("x divides the modulus, so no power of x is 1")
    q = p.field.q
    lift = 1
    while lift < e:
        lift *= q
    return _irreducible_order(p.monic()) * lift


@lru_cache(maxsize=128)
def poly_order(f: Poly) -> int:
    """Multiplicative order of x in F_q[x]/(f); requires f(0) != 0.

    The lcm of ord(p^e) over the factorization f = prod p^e (coprime
    factors combine by lcm, Lidl & Niederreiter, Thm 3.9).
    """
    if f.degree is NEG_INF or f.degree < 1:
        raise DomainError("order needs a modulus of degree >= 1")
    if f.coeff(0) == 0:
        raise DomainError("x divides the modulus, so no power of x is 1")
    return math.lcm(*(power_order(p, e) for p, e in factor_poly(f)))


def is_primitive(f: Poly) -> bool:
    """True when f is irreducible and x generates the full unit group."""
    if f.degree is NEG_INF or f.degree < 1 or f.coeff(0) == 0:
        return False
    if not is_irreducible(f):
        return False
    q = f.field.q
    return poly_order(f) == q**f.degree - 1


class Lanes:
    """Vectors of F_q^n packed into one int, for the inner loops.

    Coordinate i sits in lane i, bits [w*i, w*i + w). For q = 2 a lane is
    one bit, so a vector is its bitmask and adding is XOR. For odd q a lane
    holds the sum of two coordinates below a guard bit, so two vectors add
    mod q with a few whole-int operations and no per-coordinate loop.
    The same int is a polynomial of degree < n, so mul and divmod are the
    polynomial product and long division, each exact only while its
    operands and its result fit in the n lanes. pack and unpack convert to
    and from coefficient tuples at the public boundary.
    """

    def __init__(self, q: int, n: int):
        self.q = q
        self.w = w = 1 if q == 2 else (2 * q - 2).bit_length() + 1
        self.m = m = (1 << w) - 1
        self.shifts = tuple(range(0, w * n, w))
        self._end = 1 << w * n
        # the guard bit and q in every lane for odd q, from (2^(wn) - 1) / m,
        # which is 1 in every lane; 0 for q = 2, whose lanes hold only 0 and 1
        self._guards = guards = 0 if q == 2 else (self._end - 1) // m << (w - 1)
        self._qs = qs = 0 if q == 2 else (self._end - 1) // m * q
        if q == 2:
            self.add = operator.xor
        else:
            down = w - 1

            def add(a: int, b: int) -> int:
                s = a + b
                # a guard bit survives subtracting q exactly in lanes >= q
                g = ((s | guards) - qs) & guards
                return s - ((g - (g >> down)) & qs)

            self.add = add
        # a closure, like add: the elimination loop reads q, w, m, add and
        # scale as cell variables, not attributes
        add, scale = self.add, self.scale

        def echelon(codes, pivots=()) -> list[tuple[int, int]]:
            """Forward elimination: the (bit offset of the pivot lane, row)
            pairs of `pivots`, then one pair for each row of `codes` that is
            independent of the pairs before it.

            Each row is cleared at each pivot lane in order, then scaled to 1
            at its lowest nonzero lane, which becomes its pivot. Every pivot
            row is 0 at the lanes of the pairs before it, so clearing one
            lane never refills an earlier one."""
            piv = list(pivots)
            for v in codes:
                for s, r in piv:
                    c = (v >> s) & m
                    if c:
                        # subtract c * r, which is adding r when c = q - 1
                        v = add(v, r if c == q - 1 else scale(r, q - c))
                if v:
                    s = (v & -v).bit_length() - 1
                    s -= s % w
                    c = (v >> s) & m
                    piv.append((s, v if c == 1 else scale(v, pow(c, -1, q))))
            return piv

        self.echelon = echelon

    def pack(self, v) -> int:
        """The packed form of a length-n vector, coordinates taken mod q."""
        q, w = self.q, self.w
        code = 0
        for x in reversed(v):
            code = (code << w) | (int(x) % q)
        return code

    def unpack(self, code: int) -> tuple[int, ...]:
        m = self.m
        return tuple([(code >> s) & m for s in self.shifts])

    def scale(self, code: int, c: int) -> int:
        """c times a packed vector, by doubling (0 < c < q)."""
        add = self.add
        out = None
        while True:
            if c & 1:
                out = code if out is None else add(out, code)
            c >>= 1
            if not c:
                return out
            code = add(code, code)

    def mul(self, a: int, b: int) -> int:
        """The product of two packed polynomials (coefficients ascending, as
        for vectors); the product must fit in the n lanes. Schoolbook over
        the lanes of b."""
        add, w, m = self.add, self.w, self.m
        out, s = 0, 0
        while b:
            c = b & m
            if c:
                out = add(out, a << s if c == 1 else self.scale(a << s, c))
            b >>= w
            s += w
        return out

    def divmod(self, a: int, b: int) -> tuple[int, int]:
        """(quotient, remainder) of two packed polynomials, b nonzero, a in
        the n lanes: long division, clearing a's top lane while it is at or
        above b's."""
        q, w, m, add = self.q, self.w, self.m, self.add
        db = (b.bit_length() - 1) // w
        lead_inv = pow((b >> db * w) & m, q - 2, q)
        quo = 0
        while a:
            da = (a.bit_length() - 1) // w
            if da < db:
                break
            c = ((a >> da * w) & m) * lead_inv % q
            quo |= c << (da - db) * w
            a = add(a, self.scale(b << (da - db) * w, q - c))
        return quo, a

    def check(self, codes, name: str) -> None:
        """DomainError naming name[i] for the first of codes that is not the
        packed form of a vector of F_q^n: an int of n lanes, each below q.
        Odd q tests every lane of a code at once, as add does."""
        end, g, qs = self._end, self._guards, self._qs
        for i, c in enumerate(codes):
            if not (isinstance(c, int) and 0 <= c < end) or c & g or ((c | g) - qs) & g:
                n = len(self.shifts)
                raise DomainError(f"{name}[{i}] is not a packed vector of F_{self.q}^{n}")

    def span(self, rows) -> list[int]:
        """All q^k combinations sum(c_i * rows[i]) in itertools.product
        order of (c_0, ..., c_{k-1}), built by doubling: each row, from the
        last, adds q - 1 shifted copies of everything built so far."""
        add = self.add
        out = [0]
        for r in reversed(rows):
            block = out
            grown = list(out)
            for _ in range(self.q - 1):
                block = [add(x, r) for x in block]
                grown += block
            out = grown
        return out

    def points(self, rows) -> list[int]:
        """One vector from each 1-dim subspace of span(rows), for independent
        rows: the (q^k - 1)/(q - 1) combinations whose first nonzero
        coefficient is 1, i.e. rows[i] + span(rows[i+1:]) for each i."""
        add = self.add
        out, tail = [], [0]
        for i in range(len(rows) - 1, -1, -1):
            r = rows[i]
            block = [add(x, r) for x in tail]
            out += block
            if i:
                # grow tail to span(rows[i:]) by the other multiples of r
                grown = tail + block
                for _ in range(self.q - 2):
                    block = [add(x, r) for x in block]
                    grown += block
                tail = grown
        return out

    def ascending(self) -> Iterator[int]:
        """Every code, in ascending integer encoding sum(c_i * q^i)."""
        digits = [[c << s for c in range(self.q)] for s in reversed(self.shifts)]
        return map(sum, itertools.product(*digits))


@lru_cache(maxsize=None)
def lanes(q: int, n: int) -> Lanes:
    """The shared packing of F_q^n."""
    return Lanes(q, n)


def _poly_lanes(q: int, n: int) -> Lanes:
    """A packing of at least n lanes for a Poly operation: n rounded up to a
    power of two, so operations of many degrees share O(log n) packings."""
    return lanes(q, 1 << max(n - 1, 0).bit_length())


def monic_polys(field: PrimeField, degree: int) -> Iterator[Poly]:
    """All monic polynomials of the given degree, ascending integer encoding."""
    if degree < 0:
        return
    L = lanes(field.q, degree)
    for m in L.ascending():
        yield Poly(field, L.unpack(m) + (1,))


def irreducible_polys(field: PrimeField, degree: int) -> Iterator[Poly]:
    """Monic irreducibles of the given degree, ascending integer encoding."""
    for f in monic_polys(field, degree):
        if is_irreducible(f):
            yield f


def factor_poly(f: Poly) -> list[tuple[Poly, int]]:
    """Factor into monic irreducibles by trial division, ascending
    (degree, integer encoding) order. Deterministic. The residual is tested
    for irreducibility before each new degree, so a large prime factor ends
    the scan at once."""
    if f.is_zero:
        raise DomainError("cannot factor the zero polynomial")
    f = f.monic()
    out: list[tuple[Poly, int]] = []
    d = 1
    while f.degree >= 1:
        if is_irreducible(f):
            out.append((f, 1))
            break
        for p in irreducible_polys(f.field, d):
            mult = 0
            while True:
                quot, rem = divmod(f, p)
                if not rem.is_zero:
                    break
                f = quot
                mult += 1
            if mult:
                out.append((p, mult))
            if f.degree < 1:
                break
        d += 1
    return out


def find_irreducible_with_order(field: PrimeField, degree: int, order: int) -> Poly:
    """Least monic irreducible of this degree whose root has the given order.

    "Least" is by ascending integer encoding sum(c_i * q^i). Existence needs
    the multiplicative order of q mod `order` to be exactly `degree`; when
    that fails no scan is attempted.
    """
    q = field.q
    if degree < 1:
        raise NoSuchPolynomialError("degree must be >= 1")
    if order < 1 or pow(q, degree, order) != 1 % order:
        raise NoSuchPolynomialError(
            f"no degree-{degree} irreducible over GF({q}) has order {order}: "
            f"order must divide {q}^{degree} - 1"
        )
    if order == 1:
        if degree != 1:
            raise NoSuchPolynomialError(
                f"order 1 forces degree 1, not degree {degree}"
            )
        return Poly.make(field, [-1, 1])  # x - 1
    if multiplicative_order(q, order) != degree:
        raise NoSuchPolynomialError(
            f"no degree-{degree} irreducible over GF({q}) has order {order}: "
            f"{q} has order {multiplicative_order(q, order)} mod {order}"
        )
    for f in irreducible_polys(field, degree):
        if f.coeff(0) != 0 and poly_order(f) == order:
            return f
    raise NoSuchPolynomialError(
        f"scan found no degree-{degree} irreducible of order {order} over GF({q})"
    )  # unreachable when the precheck passes


def check_index_limit(q: int, n: int) -> int:
    """q^n - 1, the size of the cycle index of a degree-n modulus over
    GF(q), or DomainError when it is above CYCLE_INDEX_LIMIT. It costs
    nothing, so a caller that will index the ring calls it before any
    polynomial scan. q^n >= 2^n, so past the limit's bit length n alone
    refuses, and q^n is never formed for a huge n."""
    if n > CYCLE_INDEX_LIMIT.bit_length() or q**n - 1 > CYCLE_INDEX_LIMIT:
        raise DomainError(
            f"the cycle index of GF({q})[x] mod a degree-{n} polynomial (q={q}, degree {n}) "
            f"would hold {q}^{n} - 1 elements, above the limit of {CYCLE_INDEX_LIMIT}"
        )
    return q**n - 1


def least_primitive(field: PrimeField, degree: int) -> Poly:
    """Least monic primitive polynomial of the given degree."""
    return find_irreducible_with_order(field, degree, field.q**degree - 1)


class PackedRing:
    """F_q[x]/(f) on packed codes with no cycle index: multiply by x,
    multiply, power and inverse. f is monic of degree n >= 1. The irreducibility and
    order scans use it bare; FieldCtx extends it."""

    def __init__(self, modulus: Poly):
        self.modulus = modulus
        self.field = modulus.field
        self.q = modulus.field.q
        self.n = modulus.degree
        self.lanes = lanes(self.q, self.n)
        # multiply-by-x on codes: shift every lane up one and fold the lane
        # that falls off the top back in as c * x^n, where x^n = x^n - f mod f
        self._top = self.lanes.shifts[-1]
        self._mask = (1 << (self._top + self.lanes.w)) - 1
        self._xn = self.lanes.pack([-c for c in modulus.coeffs[:-1]])
        # room for f (n + 1 lanes) and a product of two elements (2n - 1):
        # the ring product and Euclid against f run here
        self.wide = lanes(self.q, 2 * self.n)
        self.f_code = self.wide.pack(modulus.coeffs)

    def mul_by_x_code(self, code: int) -> int:
        """Multiplication by x on a packed element."""
        carry = code >> self._top
        code = (code << self.lanes.w) & self._mask
        if not carry:
            return code
        L = self.lanes
        # a carry of 1, every step over F_2, adds x^n as it is
        return L.add(code, self._xn if carry == 1 else L.scale(self._xn, carry))

    def mul_code(self, a: int, b: int) -> int:
        """a * b on packed elements: the product, reduced mod f."""
        L = self.wide
        return L.divmod(L.mul(a, b), self.f_code)[1]

    def pow_code(self, code: int, e: int) -> int:
        """code^e on packed elements by square and multiply; e >= 0. The
        square after the top bit of e is not taken."""
        mul, out = self.mul_code, 1
        while e:
            if e & 1:
                out = mul(out, code)
            e >>= 1
            if e:
                code = mul(code, code)
        return out

    def _bezout_code(self, code: int) -> tuple[int, int]:
        """(g, t) for a packed element a: g a gcd of a and f, not made monic,
        and t with a t = g mod f. Extended Euclid on codes: the remainders
        run f, a, f mod a, ... and t follows them by t_(i+1) = t_(i-1) -
        quotient * t_i, each of degree at most n."""
        L = self.wide
        r0, r1, t0, t1 = self.f_code, code, 0, 1
        while r1:
            quo, rem = L.divmod(r0, r1)
            r0, r1 = r1, rem
            t0, t1 = t1, L.add(t0, L.scale(L.mul(quo, t1), self.q - 1))
        return r0, t0

    def inv_code(self, code: int) -> int:
        """The inverse of a packed element, by extended Euclid against f."""
        g, t = self._bezout_code(code)
        if g >> self.lanes.w:
            raise NonUnitError(f"{self.lanes.unpack(code)} is not a unit mod {self.modulus}")
        return self.lanes.scale(t, pow(g, -1, self.q))


class FieldCtx(PackedRing):
    """Arithmetic context for F_q[x]/(f) with f monic of degree n.

    A ring element is the packed code of its coefficient vector (ascending
    powers of x, see Lanes), the same int that stands for a row vector of
    F_q^n. The *_code methods take and return codes; mul, inv, cycle_of,
    x_power and x_log take and return coefficient tuples of length
    exactly n. When f(0) != 0, x is a unit and multiplication by x
    permutes the nonzero elements; the context indexes the cycles of that
    permutation on first read, for every f. Cycle 0 is <x> itself, so the
    powers of x, their logs and the order of x all come from the same
    index; for a primitive f that is one cycle, the discrete-log table. An
    index over more than CYCLE_INDEX_LIMIT elements is refused when read.
    """

    def __init__(self, modulus: Poly):
        if modulus.degree is NEG_INF or modulus.degree < 1:
            raise DomainError("modulus must have degree >= 1")
        modulus = modulus.monic()
        super().__init__(modulus)
        self.zero = (0,) * self.n
        self.one = tuple(1 if i == 0 else 0 for i in range(self.n))
        self.x = self.lanes.unpack(self.mul_by_x_code(1))
        # the cycle index (_slot, _by_slot, _starts), set by _build_cycles on first read
        self._slot = None

    @cached_property
    def is_irreducible(self) -> bool:
        return is_irreducible(self.modulus)

    @cached_property
    def is_primitive(self) -> bool:
        """Read on first use: it factors q^n - 1."""
        return is_primitive(self.modulus)

    # -- representation plumbing ------------------------------------------

    def pack(self, v) -> int:
        """The code of a coefficient sequence of length exactly n, entries
        taken mod q."""
        if len(v) != self.n:
            raise DomainError(f"element needs {self.n} coefficients, got {len(v)}")
        return self.lanes.pack(v)

    def to_poly(self, v: tuple[int, ...]) -> Poly:
        return Poly.make(self.field, v)

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FieldCtx)
            and self.q == other.q
            and self.modulus.coeffs == other.modulus.coeffs
        )

    def __hash__(self) -> int:
        return hash((self.q, self.modulus.coeffs))

    def __repr__(self) -> str:
        return f"FieldCtx(GF({self.q})[x]/({self.modulus}))"

    # -- ring arithmetic ---------------------------------------------------

    def mul(self, a, b) -> tuple[int, ...]:
        return self.lanes.unpack(self.mul_code(self.pack(a), self.pack(b)))

    def inv(self, a) -> tuple[int, ...]:
        return self.lanes.unpack(self.inv_code(self.pack(a)))

    # -- cycles of multiply-by-x on the nonzero elements --------------------

    def _build_cycles(self) -> None:
        """Walk the cycle of 1, then the cycles of the remaining nonzero
        elements in ascending integer encoding; each cycle takes the next
        run of slots, its start element first."""
        if self.modulus.coeff(0) == 0:
            raise DomainError("x is not a unit mod this modulus")
        total = check_index_limit(self.q, self.n)
        size = 1 << (self._top + self.lanes.w)
        if size <= 2 * (total + 1):
            # the codes fill most of range(size): a flat table, -1 = no slot
            slot = array("i", [-1]) * size
            seen = lambda code: slot[code] >= 0  # noqa: E731
        else:
            slot = {}
            seen = slot.__contains__
        by_slot = array("q")
        starts: list[int] = []
        mul_x = self.mul_by_x_code
        # the first code is 1, the element 1, so the first cycle is <x>
        for v in itertools.islice(self.lanes.ascending(), 1, None):
            if len(by_slot) == total:
                break
            if seen(v):
                continue
            starts.append(len(by_slot))
            w = v
            while True:
                slot[w] = len(by_slot)
                by_slot.append(w)
                w = mul_x(w)
                if w == v:
                    break
        starts.append(len(by_slot))
        self._slot, self._by_slot, self._starts = slot, by_slot, starts

    def _index(self):
        if self._slot is None:
            self._build_cycles()
        return self._slot

    def cycle_of_code(self, code: int) -> tuple[int, int, int]:
        """(cycle id, position, cycle length) of a nonzero packed element.

        Cycle ids follow the least integer encoding on each cycle, so cycle
        0 is <x>. Position counts multiplications by x from the cycle's
        start element; cycle 0 starts at 1, so there the position is the
        x-log.
        """
        if not code:
            raise DomainError("zero lies on no cycle of multiplication by x")
        s = self._index()[code]
        starts = self._starts
        c = bisect_right(starts, s) - 1
        return c, s - starts[c], starts[c + 1] - starts[c]

    def cycle_groups(self, codes, f: int = 1) -> dict[int, tuple[int, list[int]]]:
        """cycle_of_code of every code of a sequence of nonzero packed
        elements, grouped by cycle: {cycle id: (L // f, [position mod L // f
        of each code on that cycle of length L, in input order])}.

        f must divide the length of every cycle a code lies on. With one
        cycle, as for every primitive modulus, the slot of a code is its
        position, so no search for the cycle is made.
        """
        if not all(codes):
            raise DomainError("zero lies on no cycle of multiplication by x")
        slot = self._index()
        starts = self._starts
        if len(starts) == 2:
            L = starts[1] // f
            return {0: (L, [slot[c] % L for c in codes])} if codes else {}
        groups: dict[int, tuple[int, list[int]]] = {}
        for s in [slot[c] for c in codes]:
            c = bisect_right(starts, s) - 1
            if c not in groups:
                groups[c] = ((starts[c + 1] - starts[c]) // f, [])
            L, ps = groups[c]
            ps.append((s - starts[c]) % L)
        return groups

    def cycle_of(self, v) -> tuple[int, int, int]:
        """cycle_of_code for a coefficient tuple."""
        return self.cycle_of_code(self.pack(v))

    def cycles(self) -> list[array]:
        """The codes of every cycle, by cycle id, each from its start element."""
        self._index()
        starts = self._starts
        return [self._by_slot[a:b] for a, b in zip(starts, starts[1:])]

    def mul_x_power_code(self, code: int, e: int) -> int:
        """code * x^e, read from the cycle index (e may be negative)."""
        if not code:
            return 0
        c, pos, length = self.cycle_of_code(code)
        return self._by_slot[self._starts[c] + (pos + e) % length]

    @property
    def x_order(self) -> int:
        self._index()
        return self._starts[1]

    def x_power(self, e: int) -> tuple[int, ...]:
        """x^e as a ring element (e taken mod the order of x)."""
        return self.lanes.unpack(self.mul_x_power_code(1, e))

    def x_log_code(self, code: int) -> int | None:
        """Exponent e with x^e = code, or None when code is outside <x>."""
        if not code:
            return None
        s = self._index()[code]
        return s if s < self._starts[1] else None

    def x_log(self, v) -> int | None:
        return self.x_log_code(self.pack(v))


@lru_cache(maxsize=None)
def _cached_ctx(q: int, coeffs: tuple[int, ...]) -> FieldCtx:
    return FieldCtx(Poly(PrimeField(q), coeffs))


def field_context(modulus: Poly) -> FieldCtx:
    """Shared, cached context for a modulus; contexts are immutable."""
    return _cached_ctx(modulus.field.q, modulus.monic().coeffs)


@dataclass(frozen=True)
class RingElem:
    """An element of a FieldCtx, held as its packed code, with operator
    sugar. Build it with phi; the raw constructor trusts its code.

    Supports +, -, *, / (division raises NonUnitError on a non-unit
    divisor), unary -, and integer powers.
    """

    ctx: FieldCtx
    code: int

    @property
    def coeffs(self) -> tuple[int, ...]:
        return self.ctx.lanes.unpack(self.code)

    def _wrap(self, code: int) -> "RingElem":
        return RingElem(self.ctx, code)

    def _check(self, other: "RingElem") -> None:
        if self.ctx != other.ctx:
            raise DomainError("ring elements from different contexts")

    def __add__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self._wrap(self.ctx.lanes.add(self.code, other.code))

    def __neg__(self) -> "RingElem":
        return self._wrap(self.ctx.lanes.scale(self.code, self.ctx.q - 1))

    def __sub__(self, other: "RingElem") -> "RingElem":
        return self + (-other)

    def __mul__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self._wrap(self.ctx.mul_code(self.code, other.code))

    def __truediv__(self, other: "RingElem") -> "RingElem":
        self._check(other)
        return self * other.inverse()

    def inverse(self) -> "RingElem":
        return self._wrap(self.ctx.inv_code(self.code))

    def __pow__(self, e: int) -> "RingElem":
        base = self.inverse() if e < 0 else self
        return self._wrap(self.ctx.pow_code(base.code, abs(e)))

    @property
    def is_zero(self) -> bool:
        return not self.code

    @property
    def is_unit(self) -> bool:
        # the gcd with f is a constant; for a = 0 it is f itself
        return not self.ctx._bezout_code(self.code)[0] >> self.ctx.lanes.w

    def __str__(self) -> str:
        return str(self.ctx.to_poly(self.coeffs))


def phi(v, ctx: FieldCtx) -> RingElem:
    """Identify a row vector of F_q^n with an element of F_q[x]/(f)."""
    return RingElem(ctx, ctx.pack(v))


def phi_inv(u: RingElem) -> tuple[int, ...]:
    """Back from the ring to the row vector; inverse of phi."""
    return u.coeffs


def dlog(u: RingElem) -> int:
    """Discrete log base x. Requires a primitive modulus and u != 0."""
    if not u.ctx.is_primitive:
        raise DomainError("dlog needs a primitive modulus")
    if u.is_zero:
        raise DomainError("dlog of zero is undefined")
    return u.ctx.x_log_code(u.code)
