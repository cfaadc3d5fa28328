"""Check, with the standard library only, that the packed start sampler
draws exactly what random.randrange draws on this interpreter.

Seeded search and simulate output depends on it: the sampler reproduces
randrange(q)'s rule (getrandbits(q.bit_length()), redrawn until below q)
instead of calling it. Run from the repository root:

    PYTHONPATH=src python tools/check_sampler_stream.py

It exits 1 and names the case on the first difference.
"""

import random
import sys

from orbitcodes.fields import lanes
from orbitcodes.harness import _random_full_rank_rows
from orbitcodes.linalg import Subspace


def main() -> int:
    for q in (2, 3, 5, 7, 257):
        rows, cols = (3, 3) if q > 2 else (4, 4)
        for seed in range(200):
            rng, ref = random.Random(seed), random.Random(seed)
            codes, _ = _random_full_rank_rows(rng, q, rows, cols)
            while True:
                raw = [tuple(ref.randrange(q) for _ in range(cols)) for _ in range(rows)]
                if Subspace.from_rows(q, cols, raw).dim == rows:
                    break
            drawn = [lanes(q, cols).unpack(c) for c in codes]
            if drawn != raw or rng.getstate() != ref.getstate():
                print(f"MISMATCH q={q} seed={seed}: {drawn} != {raw}")
                return 1
    print(f"ok: Python {sys.version.split()[0]}, q in (2, 3, 5, 7, 257), 200 seeds each")
    return 0


if __name__ == "__main__":
    sys.exit(main())
