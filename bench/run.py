"""Benchmark for sugeno-bounds.

    python3 bench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  The package is imported from ``src/``; it
need not be installed.  Workloads are described in ``bench/README.md`` and
``BENCHMARK.json``.

With ``--trace 0`` the run sets up (and separately times ``SETUP_REPEATS``
set-ups in fresh interpreters), runs the workload's closed loop for S
seconds, checks every output against an independent reference, and prints
the end-to-end metrics, with times corrected for the host's speed as timed
by a reference loop during the run.  With ``--trace 1`` it runs S/2
seconds untraced and S/2 seconds with the layer tracer installed, and
prints the per-layer metrics; spans go to ``.bench_out/``.

The last line of stdout is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  The line before it records the
environment and run details.
"""

import time

_START = time.perf_counter()

import os  # noqa: E402

# Pin BLAS/OpenMP pools before numpy is imported, here and in every child.
PIN_THREADS = {
    "OMP_NUM_THREADS": "1",
    "OPENBLAS_NUM_THREADS": "1",
    "MKL_NUM_THREADS": "1",
    "NUMEXPR_NUM_THREADS": "1",
    "VECLIB_MAXIMUM_THREADS": "1",
}
os.environ.update(PIN_THREADS)
os.environ.pop("SUGENO_GRID_N", None)

import argparse  # noqa: E402
import hashlib  # noqa: E402
import json  # noqa: E402
import math  # noqa: E402
import platform  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT_DIR = ROOT / ".bench_out"

import tracer as tracing  # noqa: E402
import workloads  # noqa: E402

# Each workload's tail percentile over its pool's per-operation means: the
# highest that leaves ten operations beyond (pools of 200, 200 and 40).
TAIL_PERCENTILE = {
    "integrate_monotone": 95,
    "integrate_bumpy": 95,
    "convexity_lattice": 75,
}
SETUP_REPEATS = 7
CHILD_PROBES = 5
CHILD_TIMEOUT_S = 120.0
SPAN_CAP = 50_000
# The reference: a fixed pure-Python loop that never calls the library,
# timed every REFERENCE_PERIOD_S through the timed loop.  Its mean over the
# run is the host's speed during the run, and end-to-end times are given at
# the speed where it takes REFERENCE_NOMINAL_MS (see README.md).
REFERENCE_LOOP = 20_000
REFERENCE_PERIOD_S = 0.05
REFERENCE_NOMINAL_MS = 1.5


def reference_ns() -> int:
    t0 = time.perf_counter_ns()
    acc = 0
    for i in range(REFERENCE_LOOP):
        acc += i * i
    return time.perf_counter_ns() - t0


def calibrate_ms() -> float:
    """Median of 50 reference loops: the host's speed at the start or end of a run."""
    return statistics.median(reference_ns() for _ in range(50)) / 1e6


def import_package():
    sys.path.insert(0, str(SRC))
    try:
        import sugeno_bounds
    except ImportError as exc:
        sys.exit(f"bench: cannot import sugeno_bounds from {SRC}: {exc}")
    if not Path(sugeno_bounds.__file__).resolve().is_relative_to(SRC):
        sys.exit(f"bench: sugeno_bounds was imported from {sugeno_bounds.__file__}, not {SRC}")
    return sugeno_bounds


def child_env() -> dict:
    env = dict(os.environ)
    env.update(PIN_THREADS)
    env["PYTHONPATH"] = str(SRC)
    env.pop("SUGENO_GRID_N", None)
    return env


def run_child(cmd: list[str], env: dict) -> tuple[int, str, int]:
    """Run ``cmd`` to completion: exit code, combined output and wall ns.

    A child still running after ``CHILD_TIMEOUT_S`` is killed and waited for.
    """
    t0 = time.perf_counter_ns()
    proc = subprocess.run(cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, env=env,
                          cwd=ROOT, timeout=CHILD_TIMEOUT_S, check=False)
    return proc.returncode, proc.stdout.decode(), time.perf_counter_ns() - t0


def set_up(name: str, sb, seed: int):
    pool = workloads.build(name, sb, seed)
    for op in pool.ops:
        if op.warm:
            op.call()
    return pool


def timed_loop(pool, seconds: float, tracer=None):
    """Closed loop over the pool for ``seconds``, a pass at a time.

    Returns the latencies (ns), the (op index, output) pairs, and the
    reference loop's times (ns), taken between operations.
    """
    ops = pool.ops
    latencies, runs, refs = [], [], []
    order, i = pool.next_order(), 0
    end = time.perf_counter() + seconds
    next_ref = 0.0
    while (now := time.perf_counter()) < end:
        if now >= next_ref:
            refs.append(reference_ns())
            next_ref = now + REFERENCE_PERIOD_S
        if i == len(order):
            order, i = pool.next_order(), 0
        k = order[i]
        i += 1
        call = ops[k].call
        if tracer is not None:
            tracer.enter(tracing.OP)
        t0 = time.perf_counter_ns()
        try:
            out = call()
        except Exception as exc:  # a failed operation is counted, not fatal
            out = exc
        t1 = time.perf_counter_ns()
        if tracer is not None:
            tracer.exit()
        latencies.append(t1 - t0)
        runs.append((k, out))
    return latencies, runs, refs


def check_runs(pool, runs) -> tuple[list[bool], list[str]]:
    """Whether each run passed, and the failures.

    Each distinct operation is checked once; its repeats must equal it.
    """
    first, verdict, passed, failures = {}, {}, [], []

    def fail(message):
        passed.append(False)
        failures.append(message)

    for k, out in runs:
        op = pool.ops[k]
        if isinstance(out, Exception):
            fail(f"{op.label}: raised {out!r}")
            continue
        if k not in first:
            first[k] = out
            try:
                verdict[k] = bool(op.check(out))
            except Exception as exc:  # a check that cannot run counts as a miss
                verdict[k] = False
                fail(f"{op.label}: check raised {exc!r}")
                continue
            if not verdict[k]:
                fail(f"{op.label}: wrong output {out!r}")
                continue
        elif out != first[k]:
            fail(f"{op.label}: output differs between repeats")
            continue
        elif not verdict[k]:
            fail(f"{op.label}: wrong output")
            continue
        passed.append(True)
    return passed, failures


def percentile(sorted_values, p: float):
    """Nearest-rank percentile and the number of samples strictly beyond its rank."""
    rank = max(1, math.ceil(p / 100.0 * len(sorted_values)))
    return sorted_values[rank - 1], len(sorted_values) - rank


def setup_seconds(name: str, seed: int) -> float:
    """Median set-up time over fresh interpreters: imports, inputs, parsing and warm-up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed", str(seed),
           "--setup-only"]
    times = []
    for _ in range(SETUP_REPEATS):
        code, out, _ = run_child(cmd, dict(os.environ))
        if code != 0:
            sys.exit(f"bench: set-up child failed with exit code {code}:\n{out}")
        times.append(json.loads(out.strip().splitlines()[-1])["setup_s"])
    return statistics.median(times)


def import_profile(env: dict) -> tuple[float, float, float]:
    """Medians of a bare interpreter's wall time and of the CLI's import cost from -X importtime."""
    bare, total, numpy_ms = [], [], []
    for _ in range(CHILD_PROBES):
        bare.append(run_child([sys.executable, "-c", "pass"], env)[2] / 1e6)
        code, out, _ = run_child([sys.executable, "-X", "importtime", "-c",
                                  "import sugeno_bounds.cli"], env)
        if code != 0:
            sys.exit(f"bench: import probe failed:\n{out}")
        cumulative_us, numpy_us = 0, 0
        for line in out.splitlines():
            fields = line.split("|")
            if not line.startswith("import time:") or len(fields) != 3:
                continue
            try:
                cumulative = int(fields[1])
            except ValueError:
                continue  # the header line
            module = fields[2][1:]
            depth = len(module) - len(module.lstrip(" "))
            module = module.strip()
            if depth == 0 and module.split(".")[0] == "sugeno_bounds":
                cumulative_us += cumulative
            if module == "numpy" and not numpy_us:
                numpy_us = cumulative
        total.append(cumulative_us / 1e3)
        numpy_ms.append(numpy_us / 1e3)
    return statistics.median(bare), statistics.median(total), statistics.median(numpy_ms)


def environment(calib_start: float, calib_end: float) -> dict:
    import numpy

    git_sha = None
    if (ROOT / ".git").exists():
        try:
            proc = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                  text=True, check=False)
            git_sha = proc.stdout.strip() or None
        except OSError:  # no git on this host
            pass
    digest = hashlib.sha256()
    for path in sorted(SRC.rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode())
        digest.update(path.read_bytes())
    return {
        "git_sha": git_sha,
        "src_sha256": digest.hexdigest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "machine": platform.machine(),
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "child_threads": PIN_THREADS,
        "calibration_ms_start": round(calib_start, 4),
        "calibration_ms_end": round(calib_end, 4),
    }


def metric(value: float, unit: str) -> dict:
    return {"value": value, "unit": unit}


def mean_per_op(latencies, runs) -> list[float]:
    """Each distinct operation's mean latency (ns) over its repeats in the run.

    The host's speed moves by up to 1.6x in phases of seconds to minutes
    (see ``README.md``).  A mean moves in proportion to the share of the run
    spent in each phase, where a minimum or a median jumps between phases,
    so per-operation means are what the metrics are built from.
    """
    total, count = {}, {}
    for (k, _), ns in zip(runs, latencies):
        total[k] = total.get(k, 0) + ns
        count[k] = count.get(k, 0) + 1
    return [total[k] / count[k] for k in total]


def end_to_end(name, setup_s, latencies, runs, refs, passed, peak_kb):
    """End-to-end metrics over the pool's per-operation mean latencies.

    Times are divided by the host's slowness: the reference loop's mean
    time in the run over ``REFERENCE_NOMINAL_MS``.  The times as measured
    are returned in the run details.
    """
    means = sorted(mean_per_op(latencies, runs))
    tail, beyond = percentile(means, TAIL_PERCENTILE[name])
    correct = sum(passed) / len(passed)
    ops_per_s = correct * len(means) / (sum(means) / 1e9)
    p50_ms, tail_ms = statistics.median(means) / 1e6, tail / 1e6
    slowness = statistics.fmean(refs) / 1e6 / REFERENCE_NOMINAL_MS
    metrics = {
        "setup_s": metric(setup_s / slowness, "s"),
        "ops_per_s": metric(ops_per_s * slowness, "1/s"),
        "latency_p50_ms": metric(p50_ms / slowness, "ms"),
        "latency_tail_ms": metric(tail_ms / slowness, "ms"),
        "correct_ratio": metric(correct, "ratio"),
        "peak_mem_mb": metric(peak_kb / 1024.0, "MB"),
    }
    info = {
        "host_slowness": slowness,
        "reference_samples": len(refs),
        "measured": {"setup_s": setup_s, "ops_per_s": ops_per_s, "latency_p50_ms": p50_ms,
                     "latency_tail_ms": tail_ms},
        "tail_percentile": TAIL_PERCENTILE[name],
        "operations": len(means),
        "beyond_tail": beyond,
        "samples": len(latencies),
        "repeats_per_op": len(latencies) / len(means),
        "sample_p50_ms": statistics.median(latencies) / 1e6,
        "sample_p99_ms": percentile(sorted(latencies), 99)[0] / 1e6,
    }
    return metrics, info


def per_layer(tr, n_ops, untraced_ops_per_s, traced_ops_per_s, probes) -> dict:
    ops = tr.stats.get("ops", {})
    setup = tr.stats.get("setup", {})
    empty = tracing.LayerStats()

    def get(layer, phase=ops):
        return phase.get(layer, empty)

    out = {}
    for layer, counters in (
        ("expr.evaluate", ()),
        ("expr.evaluate_array", ("points",)),
        ("measure.distortion", ()),
        ("rootfind.sup_threshold", ("g_evals",)),
        ("rootfind.sign_change", ("g_evals",)),
        ("sugeno.integral", ()),
        (tracing.LEVEL_MEASURE, ()),
        ("bounds.hadamard_bound", ()),
        ("bounds.verify", ()),
        ("convexity.check", ()),
        ("expr.parse", ()),
    ):
        stats = get(layer)
        out[f"{layer}.calls"] = metric(stats.calls / n_ops, "count/op")
        if layer != "convexity.check":
            out[f"{layer}.self_ms"] = metric(stats.self_ns / 1e6 / n_ops, "ms/op")
        for key in counters:
            out[f"{layer}.{key}"] = metric(stats.counters.get(key, 0) / n_ops, "count/op")
    parse = get("expr.parse", setup)
    out["setup.expr.parse.calls"] = metric(parse.calls, "count")
    out["setup.expr.parse.self_ms"] = metric(parse.self_ns / 1e6, "ms")

    integral = get("sugeno.integral")
    exact = integral.counters.get("exact", 0)
    out["sugeno.exact_ratio"] = metric(exact / integral.calls if integral.calls else 0.0, "ratio")

    conv = get("convexity.check")
    points = conv.counters.get("lattice_points", 0)
    out["convexity.self_ms"] = metric(conv.self_ns / 1e6 / n_ops, "ms/op")
    out["convexity.lattice_points"] = metric(points / n_ops, "count/op")
    out["convexity.skipped_ratio"] = metric(
        conv.counters.get("skipped", 0) / points if points else 0.0, "ratio")
    out["convexity.peak_alloc_mb"] = metric(
        conv.counters.get("peak_alloc_bytes_max", 0) / 2**20, "MB")

    interpreter_ms, import_ms, numpy_ms = probes
    out["cli.interpreter_ms"] = metric(interpreter_ms, "ms")
    out["cli.import_ms"] = metric(import_ms, "ms")
    out["cli.import_numpy_ms"] = metric(numpy_ms, "ms")

    op = get(tracing.OP)
    layer_self = sum(s.self_ns for name, s in ops.items() if name != tracing.OP)
    out["trace.ops_per_s"] = metric(traced_ops_per_s, "1/s")
    out["trace.untraced_ops_per_s"] = metric(untraced_ops_per_s, "1/s")
    out["trace.overhead_pct"] = metric(100.0 * (untraced_ops_per_s / traced_ops_per_s - 1.0), "%")
    out["trace.attributed_share"] = metric(layer_self / op.total_ns if op.total_ns else 0.0, "ratio")
    out["trace.unattributed_ms"] = metric((op.total_ns - layer_self) / 1e6 / n_ops, "ms/op")
    out["trace.absent_layers"] = metric(len(tr.absent), "count")
    return out


def write_trace(name: str, seed: int, tr, env: dict) -> Path:
    OUT_DIR.mkdir(exist_ok=True)
    path = OUT_DIR / f"trace-{name}-seed{seed}.json"
    doc = {
        "env": env,
        "absent_layers": tr.absent,
        "layers": {phase: tr.export(phase) for phase in tr.stats},
        "span_fields": ["id", "parent", "op", "phase", "name", "start_ns", "end_ns"],
        "spans": tr.spans,
        "spans_dropped": tr.dropped,
    }
    path.write_text(json.dumps(doc))
    return path


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description="sugeno-bounds benchmark")
    parser.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="set up once and print the set-up time (used for setup_s)")
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def main(argv=None) -> int:
    args = parse_args(argv)
    name = args.workload
    sb = import_package()
    if args.setup_only:
        set_up(name, sb, args.seed)
        print(json.dumps({"setup_s": time.perf_counter() - _START}))
        return 0

    calib_start = calibrate_ms()
    tr = tracing.Tracer(SPAN_CAP) if args.trace else None

    if tr is None:
        setup_s = setup_seconds(name, args.seed)
        pool = set_up(name, sb, args.seed)
        latencies, runs, refs = timed_loop(pool, args.seconds)
        peak_kb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
        passed, failures = check_runs(pool, runs)
        metrics, info = end_to_end(name, setup_s, latencies, runs, refs, passed, peak_kb)
    else:
        probes = import_profile(child_env())
        tr.install()
        tr.active = True
        with tr.span(tracing.SETUP):
            pool = set_up(name, sb, args.seed)
        tr.active = False
        half = args.seconds / 2.0
        lat_u, runs_u, _ = timed_loop(pool, half)
        tr.phase = "ops"
        tr.active = True
        lat_t, runs_t, _ = timed_loop(pool, half, tr)
        tr.uninstall()
        runs = runs_u + runs_t
        passed, failures = check_runs(pool, runs)
        metrics = per_layer(tr, len(runs_t), len(lat_u) / (sum(lat_u) / 1e9),
                            len(lat_t) / (sum(lat_t) / 1e9), probes)
        info = {"samples_untraced": len(lat_u), "samples_traced": len(lat_t)}

    env = environment(calib_start, calibrate_ms())
    info.update(workload=name, seed=args.seed, seconds=args.seconds, trace=args.trace,
                failures=failures[:5])
    if tr is not None:
        info["absent_layers"] = tr.absent
        info["trace_file"] = str(write_trace(name, args.seed, tr, env).relative_to(ROOT))
    print(json.dumps({"env": env, "info": info}))
    failed = len(runs) - sum(passed)
    print(json.dumps({"correct": failed == 0, "attempted": len(runs), "failed": failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
