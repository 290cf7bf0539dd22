"""Compare the CSV writer's vectorised %.17g with Python's on random doubles.

    PYTHONPATH=src python3 scripts/check_float_format.py [--values 20000000] [--seed 0]

Formats the values in the writer's blocks (256 rows of 10 columns) with
`hpsusp.io._csv_text` and with Python's '%.17g' % value, and exits 1 at the
first block whose bytes differ, printing the values that differ. Half of the
values are random 64-bit patterns (every exponent, subnormals, zeros,
infinities, NaNs), half random 53-bit mantissas at the exponents
'%.17g' writes in fixed notation (1e-6 to 1e18, both signs).
"""

from __future__ import annotations

import argparse
import sys
import time

import numpy as np

from hpsusp import io

ROWS, COLS = 256, 10


def reference(block: np.ndarray) -> bytes:
    row = ",".join(["%.17g"] * block.shape[1]) + "\r\n"
    return ((row * block.shape[0]) % tuple(block.ravel().tolist())).encode()


def values(rng, n: int, patterns: bool) -> np.ndarray:
    if patterns:
        return rng.integers(0, 2 ** 64, n, dtype=np.uint64, endpoint=False).view(np.float64)
    x = rng.uniform(1.0, 10.0, n) * 10.0 ** rng.integers(-6, 19, n)
    return np.where(rng.random(n) < 0.5, -x, x)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--values", type=int, default=20_000_000)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    rng = np.random.default_rng(args.seed)
    start, done = time.perf_counter(), 0
    while done < args.values:
        block = values(rng, ROWS * COLS, done // (ROWS * COLS) % 2 == 0).reshape(ROWS, COLS)
        got, want = io._csv_text(block).tobytes(), reference(block)
        if got != want:
            for g, w, row in zip(got.split(b"\r\n"), want.split(b"\r\n"), block.tolist()):
                if g != w:
                    print(f"mismatch in row {row!r}:\n  kernel {g!r}\n  python {w!r}")
                    return 1
            print(f"mismatch in the length of a block's text: {len(got)} != {len(want)}")
            return 1
        done += block.size
    print(f"{done} values identical to '%.17g' in {time.perf_counter() - start:.1f} s")
    return 0


if __name__ == "__main__":
    sys.exit(main())
