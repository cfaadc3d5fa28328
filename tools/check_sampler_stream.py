"""Check, with the standard library only, that the packed samplers draw
exactly what random.randrange draws on this interpreter.

Seeded search and simulate output depends on it: the samplers reproduce
randrange(q)'s rule (getrandbits(q.bit_length()), redrawn until below q)
instead of calling it. The references below draw with randrange and test
rank with a tuple elimination of their own, so they share no code with
the package's packed elimination. Run from the repository root:

    PYTHONPATH=src python tools/check_sampler_stream.py

It exits 1 and names the case on the first difference.
"""

import random
import sys

from orbitcodes import ChannelConfig, Subspace, transmit
from orbitcodes.fields import lanes
from orbitcodes.harness import _random_full_rank_rows, _transmit


def rank(rows, q: int) -> int:
    """Rank of coefficient rows over F_q by Gauss-Jordan on lists."""
    rows = [[x % q for x in r] for r in rows]
    r = 0
    for col in range(len(rows[0]) if rows else 0):
        pivot = next((i for i in range(r, len(rows)) if rows[i][col]), None)
        if pivot is None:
            continue
        rows[r], rows[pivot] = rows[pivot], rows[r]
        inv = pow(rows[r][col], -1, q)
        for i in range(len(rows)):
            if i != r and rows[i][col]:
                c = rows[i][col] * inv
                rows[i] = [(a - c * b) % q for a, b in zip(rows[i], rows[r])]
        r += 1
    return r


def ref_full_rank(rng: random.Random, q: int, rows: int, cols: int) -> list:
    while True:
        raw = [tuple(rng.randrange(q) for _ in range(cols)) for _ in range(rows)]
        if rank(raw, q) == rows:
            return raw


def ref_transmit(V: Subspace, erasures: int, errors: int, rng: random.Random) -> list:
    """transmit's stream: a full-rank coefficient matrix for the kept rows,
    then each error vector redrawn until it lies outside V and the errors
    so far. Returns rows spanning the received space."""
    q, n, k = V.q, V.n, V.dim
    coeff = ref_full_rank(rng, q, k - erasures, k)
    kept = [
        tuple(sum(c * row[j] for c, row in zip(cs, V.rows)) % q for j in range(n))
        for cs in coeff
    ]
    blocked, added = list(V.rows), []
    for _ in range(errors):
        while True:
            v = tuple(rng.randrange(q) for _ in range(n))
            if rank(blocked + [v], q) > len(blocked):
                break
        blocked.append(v)
        added.append(v)
    return kept + added


def check_start_sampler(q: int, seed: int) -> str | None:
    rows, cols = (3, 3) if q > 2 else (4, 4)
    rng, ref = random.Random(seed), random.Random(seed)
    codes = _random_full_rank_rows(rng, q, rows, cols)
    raw = ref_full_rank(ref, q, rows, cols)
    drawn = [lanes(q, cols).unpack(c) for c in codes]
    if drawn != raw or rng.getstate() != ref.getstate():
        return f"start sampler q={q} seed={seed}: {drawn} != {raw}"
    return None


def check_transmit(q: int, seed: int) -> str | None:
    # a 2-dim V in F_q^5; every erasure count with every error count that fits
    n, k = 5, 2
    V = Subspace.from_rows(q, n, [(1, 0, 2 % q, 1, 0), (0, 1, 1, 0, q - 1)])
    erasures, errors = seed % (k + 1), (seed // (k + 1)) % (n - k + 1)
    rng, ref = random.Random(seed), random.Random(seed)
    R = _transmit(V, erasures, errors, rng)
    rows = ref_transmit(V, erasures, errors, ref)
    if transmit(V, ChannelConfig(erasures, errors, seed)) != R:
        return f"transmit q={q} seed={seed}: differs from _transmit on Random(seed)"
    same_space = rank(R.rows, q) == rank(rows, q) == rank(list(R.rows) + rows, q)
    if not same_space or rng.getstate() != ref.getstate():
        return f"transmit q={q} seed={seed} ({erasures}, {errors}): {R.rows} vs {rows}"
    return None


def main() -> int:
    cases = [(check_start_sampler, q, s) for q in (2, 3, 5, 7, 257) for s in range(200)]
    cases += [(check_transmit, q, s) for q in (2, 3, 5, 7) for s in range(100)]
    for check, q, seed in cases:
        bad = check(q, seed)
        if bad:
            print(f"MISMATCH {bad}")
            return 1
    print(
        f"ok: Python {sys.version.split()[0]}: start sampler for q in (2, 3, 5, 7, 257), "
        "200 seeds each; transmit for q in (2, 3, 5, 7), 100 seeds each"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
