"""Digest of every benchmark-pool output, per workload and seed.

    PYTHONPATH=src python tests/pool_digest.py [--seeds 301 302 303] [--workload NAME ...]

Run from the repository root.  Builds each workload's pool from ``bench/``
(read, never changed), calls every operation once in pool order, and prints
one line per workload and seed: the sha256 of the operations' output reprs,
one per line.  An operation that raises contributes the exception's type and
message instead.  Two commits that print the same lines give the same outputs
on those pools, so a change meant to keep every answer can be checked with
one diff of this script's output.
"""

import argparse
import hashlib
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import sugeno_bounds as sb  # noqa: E402
import workloads  # noqa: E402


def pool_digest(name: str, seed: int) -> tuple[int, str]:
    """Number of operations in the pool and the sha256 of their output reprs."""
    digest = hashlib.sha256()
    ops = workloads.build(name, sb, seed).ops
    for op in ops:
        with warnings.catch_warnings():
            warnings.simplefilter("ignore")
            try:
                out = repr(op.call())
            except Exception as exc:  # an error is an output too
                out = f"{type(exc).__name__}: {exc}"
        digest.update(out.encode() + b"\n")
    return len(ops), digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[301, 302, 303])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    args = parser.parse_args(argv)
    for name in args.workload:
        for seed in args.seeds:
            n, hexdigest = pool_digest(name, seed)
            print(f"{name} seed {seed} ops {n} sha256 {hexdigest}", flush=True)


if __name__ == "__main__":
    main()
