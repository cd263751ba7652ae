#!/usr/bin/env python3
"""Sweep small block algebras through the completion pipeline.

Prints one row per spec: the block sizes, the dimension of the extension,
its radical, the identified component structure, the isomorphism residual,
and the wall time.  Every row should identify a single full matrix block of
size (sum of blocks) squared; the script exits 1 if one does not.
"""

import argparse
import sys
import time

from shoda import AlgebraSpec, complete


def compositions(max_total: int, max_blocks: int | None = None) -> list[tuple[int, ...]]:
    """All ordered block-size tuples with total size up to max_total."""
    out: list[tuple[int, ...]] = []

    def rec(remaining: int, acc: list[int]):
        if remaining == 0:
            out.append(tuple(acc))
            return
        for first in range(1, remaining + 1):
            rec(remaining - first, acc + [first])

    for total in range(1, max_total + 1):
        rec(total, [])
    if max_blocks is not None:
        out = [c for c in out if len(c) <= max_blocks]
    return out


def main():
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--max-total", type=int, default=6, help="largest total matrix size")
    parser.add_argument("--max-blocks", type=int, default=4)
    parser.add_argument("--tol", type=float, default=1e-9)
    args = parser.parse_args()

    header = f"{'blocks':<16}{'dim':>6}{'radical':>9}{'components':>14}{'residual':>12}{'time':>9}"
    print(header)
    print("-" * len(header))
    failed = []
    for dims in compositions(args.max_total, args.max_blocks):
        spec = AlgebraSpec(dims)
        started = time.perf_counter()
        result = complete(spec, args.tol)
        elapsed = time.perf_counter() - started
        print(
            f"{str(dims):<16}{result.total_dim:>6}{result.radical_dim:>9}"
            f"{str(list(result.block_structure)):>14}{result.iso_residual:>12.2e}"
            f"{elapsed:>8.2f}s"
        )
        if list(result.block_structure) != [spec.matrix_size**2]:
            failed.append(dims)
    if failed:
        print(f"not one full matrix block: {failed}", file=sys.stderr)
        sys.exit(1)


if __name__ == "__main__":
    main()
