"""Digest of every benchmark-pool output, per workload and seed.

    PYTHONPATH=src python tests/pool_digest.py [--seeds 301 302 303] [--workload NAME ...] [--counts]

Run from the repository root.  Builds each workload's pool from ``bench/``
(read, never changed), calls every operation once in pool order, and prints
one line per workload and seed: the sha256 of the operations' output reprs,
one per line.  An operation that raises contributes the exception's type and
message instead.  Two commits that print the same lines give the same outputs
on those pools, so a change meant to keep every answer can be checked with
one diff of this script's output.

A last line gives the sha256 of the command line's bytes: the stdout and exit
code of every ``sugeno-bounds`` example line in README.md, each run in text,
json and csv through ``cli.run`` in this process.

With ``--counts``, each digest line is followed by one that gives the scalar
evaluations the level-set engine made in that pass, of integrands (f) and of
distortions (phi, mu(X) included), and the largest f + phi count of any single
integral in the pass.  They are a deterministic cost figure:
the same on every run and every host, unlike a timing.  The script measures
the code under its own root, so a copy of it placed in another checkout
counts that checkout.
"""

import argparse
import contextlib
import hashlib
import io
import shlex
import sys
import warnings
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path[:0] = [str(ROOT / "src"), str(ROOT / "bench")]

import sugeno_bounds as sb  # noqa: E402
import workloads  # noqa: E402
from sugeno_bounds import cli, sugeno  # noqa: E402


@contextlib.contextmanager
def scalar_evaluations():
    """Count the level-set engine's scalar evaluations, of f and of phi, while open,
    and the most that any one integral made (counted from each level-set build on)."""
    counts, integrand, current = {"f": 0, "phi": 0, "largest": 0}, [None], [0]
    evaluate, build = sugeno.evaluate, sugeno._LevelSets.__init__

    def building(self, f, *args):
        # the integrand of the level sets being built, and then in use; a new integral's count
        integrand[0], current[0] = f, 0
        build(self, f, *args)

    def counting(g, x):
        counts["f" if g is integrand[0] else "phi"] += 1
        current[0] += 1
        counts["largest"] = max(counts["largest"], current[0])
        return evaluate(g, x)

    sugeno.evaluate, sugeno._LevelSets.__init__ = counting, building
    try:
        yield counts
    finally:
        sugeno.evaluate, sugeno._LevelSets.__init__ = evaluate, build


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


def cli_digest() -> tuple[int, str]:
    """Number of README example runs and the sha256 of their stdout and exit codes."""
    digest, runs = hashlib.sha256(), 0
    for line in (ROOT / "README.md").read_text().splitlines():
        if not line.startswith("sugeno-bounds "):
            continue
        for fmt in ("text", "json", "csv"):  # a later --format wins over the example's own
            out = io.StringIO()
            with warnings.catch_warnings(), contextlib.redirect_stdout(out):
                warnings.simplefilter("ignore")
                code = cli.run(shlex.split(line)[1:] + ["--format", fmt])
            digest.update(f"{out.getvalue()}exit {code}\n".encode())
            runs += 1
    return runs, digest.hexdigest()


def main(argv=None) -> None:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", type=int, nargs="+", default=[301, 302, 303])
    parser.add_argument("--workload", nargs="+", choices=workloads.WORKLOADS,
                        default=list(workloads.WORKLOADS))
    parser.add_argument("--counts", action="store_true",
                        help="also print the scalar evaluations of f and phi in each pass, "
                             "and the most of any one integral")
    args = parser.parse_args(argv)
    for name in args.workload:
        for seed in args.seeds:
            with scalar_evaluations() as counts:
                n, hexdigest = pool_digest(name, seed)
            print(f"{name} seed {seed} ops {n} sha256 {hexdigest}", flush=True)
            if args.counts:
                print(f"{name} seed {seed} scalar evaluations f {counts['f']} phi {counts['phi']}"
                      f" largest integral {counts['largest']}", flush=True)
    runs, hexdigest = cli_digest()
    print(f"cli readme examples runs {runs} sha256 {hexdigest}", flush=True)


if __name__ == "__main__":
    main()
