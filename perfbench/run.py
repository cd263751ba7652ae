"""shoda benchmark: time to a checked result, end to end and per module.

Run from the root of a checkout:

    python3 perfbench/run.py --workload completion --seed 1 --seconds 30 --trace 0

Workloads are ``completion``, ``decompose`` and ``cli`` (see workloads.py).
With ``--trace 0`` the run repeats the workload's round of ops as many times
as fill ``--seconds`` at the round's nominal time, and at least as many times
as the round's layout needs, and reports the end-to-end metrics.  With
``--trace 1`` it runs the round twice untraced, then with spans
(tracing.py), then its largest ops under tracemalloc, and reports the
per-layer metrics.  Every op's output is checked outside the timed interval.
See README.md for the metrics and the baseline.

Human-readable lines go first; the last line of standard output is one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""

from __future__ import annotations

import argparse
import json
import math
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
# One BLAS thread: on a shared 2-core machine a second thread was no faster on
# these sizes and widened the run-to-run spread, since every BLAS barrier waits
# for the slower core.
BLAS_THREADS = 1
SETUP_REPEATS = 5  # samples of each part of setup_s
TAIL_BEYOND = 10  # the tail percentile leaves at least this many ops beyond it
MB = 2.0**20

WORKLOADS = ("completion", "decompose", "cli")

END_TO_END = {
    "setup_s": "s",
    "ops_per_s": "1/s",
    "op_s.p50": "s",
    "op_s.tail": "s",
    "peak_rss_mb": "MB",
}

PER_LAYER = {
    "completion.build_B.s": "s",
    "completion.build_B.self_s": "s",
    "completion.build_B.table_mb": "MB",
    "completion.complete.self_s": "s",
    "completion.complete.peak_mb": "MB",
    "tensor.multiply_B.calls": "count",
    "tensor.multiply_B.s": "s",
    "structure.radical.calls": "count",
    "structure.radical.s": "s",
    "structure.quotient.s": "s",
    "structure.wedderburn_identify.self_s": "s",
    "structure.wedderburn_identify.peak_mb": "MB",
    "commutators.decompose_in_completion.self_s": "s",
    "commutators.decompose_in_completion.peak_mb": "MB",
    "commutators.commutator_decompose.s": "s",
    "commutators.is_shoda_complete.s": "s",
    "norms.b_norm.calls": "count",
    "norms.b_norm.s": "s",
    "norms.submultiplicativity_audit.self_s": "s",
    "norms.isometry_check.s": "s",
    "algebra.riesz_projection.calls": "count",
    "algebra.riesz_projection.s": "s",
    "algebra.projection_path.s": "s",
    "algebra.spectrum.s": "s",
    "algebra.rank.s": "s",
    "serialize.load.s": "s",
    "serialize.dumps.s": "s",
    "serialize.bytes_out": "bytes",
    "cli.main.self_s": "s",
}


def _limit_blas_threads() -> None:
    """Pin the BLAS thread count; must run before numpy loads."""
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = str(BLAS_THREADS)


def _import_shoda():
    """Import numpy and the checkout's own shoda from src/; None if absent."""
    src = ROOT / "src"
    if not (src / "shoda" / "__init__.py").is_file():
        return None
    sys.path.insert(0, str(src))
    import numpy  # noqa: F401
    import shoda

    if Path(shoda.__file__).resolve().parent != (src / "shoda").resolve():
        return None
    return shoda


# -- metadata --------------------------------------------------------------


def _blas_info() -> dict:
    """BLAS library name and its live thread count, read through ctypes."""
    import ctypes

    info = {"library": "unknown", "threads": None}
    try:
        with open("/proc/self/maps", encoding="utf-8") as handle:
            paths = {line.split()[-1] for line in handle if "blas" in line.lower()}
    except OSError:
        return info
    for path in sorted(p for p in paths if ".so" in p):
        info["library"] = os.path.basename(path)
        lib = ctypes.CDLL(path)
        for symbol in ("scipy_openblas_get_num_threads64_", "openblas_get_num_threads64_",
                       "openblas_get_num_threads"):
            fn = getattr(lib, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                info["threads"] = int(fn())
                return info
    return info


def _first_line(path: str, key: str) -> str:
    try:
        with open(path, encoding="utf-8") as handle:
            for line in handle:
                if line.startswith(key):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return "unknown"


def _git_commit() -> str:
    """Commit of the checkout when it is a git work tree, read from .git."""
    head = ROOT / ".git" / "HEAD"
    try:
        ref = head.read_text(encoding="utf-8").strip()
        if not ref.startswith("ref: "):
            return ref
        name = ref[5:]
        loose = ROOT / ".git" / name
        if loose.is_file():
            return loose.read_text(encoding="utf-8").strip()
        for line in (ROOT / ".git" / "packed-refs").read_text(encoding="utf-8").splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    except OSError:
        pass
    return "unknown (not a git checkout)"


def metadata(args, numpy) -> dict:
    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "usable_cpus": len(os.sched_getaffinity(0)),
        "cpu_model": _first_line("/proc/cpuinfo", "model name"),
        "mem_total": _first_line("/proc/meminfo", "MemTotal"),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "blas": _blas_info(),
        "git_commit": _git_commit(),
    }


# -- running ops -----------------------------------------------------------


class Tally:
    """Latency and verdict of every attempted op."""

    def __init__(self):
        self.ops: list = []
        self.latencies: list[float] = []
        self.failed_flags: list[bool] = []
        self.failures: list[str] = []

    @property
    def attempted(self) -> int:
        return len(self.latencies)

    @property
    def failed(self) -> int:
        return len(self.failures)

    def run(self, op) -> float:
        start = time.perf_counter()
        try:
            output = op.run()
            error = None
        except Exception as exc:  # an op that raises is a failed op, not a crash
            output, error = None, f"raised {type(exc).__name__}: {exc}"
        elapsed = time.perf_counter() - start
        if error is None:
            error = op.check(output)
        self.ops.append(op)
        self.latencies.append(elapsed)
        self.failed_flags.append(error is not None)
        if error is not None:
            self.failures.append(f"{op.label}: {error}")
        return elapsed


class SetUp:
    """The two parts of setup_s, sampled one pair at a time between the timed
    rounds.  Spread over the run, a slow spell of a shared machine hits only
    some samples, and the medians leave it out."""

    def __init__(self, plan_fn, seed: int, workdir: Path, tiny: bool):
        self.plan_fn, self.seed, self.workdir, self.tiny = plan_fn, seed, workdir, tiny
        self.env = dict(os.environ, PYTHONPATH=os.pathsep.join(
            p for p in (str(ROOT / "src"), os.environ.get("PYTHONPATH")) if p))
        self.imports: list[float] = []
        self.set_ups: list[float] = []
        self.tally = Tally()

    def set_up(self):
        """Draw the inputs, write the CLI files and run the warm-up op; returns
        the plan.  Every call draws the same plan from the same seed; the first
        also pays the one-off costs of first calls, which the median leaves out."""
        import numpy as np

        start = time.perf_counter()
        plan = self.plan_fn(np.random.default_rng(self.seed), self.workdir, self.tiny)
        self.tally.run(plan.warmup)
        self.set_ups.append(time.perf_counter() - start)
        return plan

    def sample(self) -> None:
        """One fresh interpreter that imports numpy and the checkout's shoda and
        exits, then one set-up."""
        start = time.perf_counter()
        # no timeout: with one, the wait polls in steps of up to 50 ms
        subprocess.run([sys.executable, "-c", "import numpy, shoda"], env=self.env, check=True)
        self.imports.append(time.perf_counter() - start)
        self.set_up()

    def seconds(self) -> tuple[float, str]:
        """setup_s after topping the samples up to SETUP_REPEATS, and its parts."""
        while len(self.imports) < SETUP_REPEATS or len(self.set_ups) < SETUP_REPEATS:
            self.sample()
        imports, set_ups = statistics.median(self.imports), statistics.median(self.set_ups)
        parts = (f"import {imports:.4g} s (median of {len(self.imports)}), "
                 f"set-up {set_ups:.4g} s (median of {len(self.set_ups)})")
        return imports + set_ups, parts


def tail(latencies: list[float], failed: list[bool]) -> tuple[float, float]:
    """Latency at the highest percentile with TAIL_BEYOND ops beyond it, and
    that percentile.  Failed ops rank above every verified op."""
    ordered = sorted(zip(failed, latencies))
    rank = max(len(ordered) - TAIL_BEYOND, 1)
    return ordered[rank - 1][1], 100.0 * rank / len(ordered)


def timed_run(plan, seconds: float, tally: Tally, between_rounds) -> int:
    """Whole rounds that fill about `seconds` at the plan's nominal round time,
    and at least the plan's minimum, with a call of `between_rounds` after each;
    returns the number of rounds.  The count does not depend on how fast the
    machine or the code runs, so neither can move the percentile ranks into
    another band of ops."""
    rounds = max(plan.min_rounds, round(seconds / plan.round_s))
    for _ in range(rounds):
        for op in plan.round:
            tally.run(op)
        between_rounds()
    return rounds


def traced_run(plan, tally: Tally, out_dir: Path, tag: str) -> tuple[dict, str]:
    """Per-layer metrics, and the tracing overhead as a printable line."""
    import tracemalloc

    import tracing

    # the first pass runs most ops for the first time; the second is the
    # untraced time that the traced pass is compared with
    for _ in range(2):
        untraced = [tally.run(op) for op in plan.round]
    spans = tracing.Tracer()
    spans.install()
    try:
        traced = []
        for i, op in enumerate(plan.round):
            spans.op = i
            traced.append(tally.run(op))
    finally:
        spans.restore()
    ratio = statistics.median(t / u for t, u in zip(traced, untraced))
    overhead = (f"{sum(traced) - sum(untraced):+.4g} s (traced minus untraced round of "
                f"{sum(untraced):.4g} s); median per-op traced/untraced {ratio:.4g}")

    memory = tracing.Tracer(memory=True)
    tracemalloc.start()
    memory.install()
    try:
        for i, op in enumerate(plan.peak):
            memory.op = i
            tally.run(op)
    finally:
        memory.restore()
        tracemalloc.stop()

    spans.write(out_dir / f"{tag}-spans.jsonl")
    memory.write(out_dir / f"{tag}-memory-spans.jsonl")
    return layer_metrics(spans, memory), overhead


def layer_metrics(spans, memory) -> dict:
    """Every PER_LAYER metric; a layer that the workload never calls reads 0."""
    totals, peaks = spans.totals(), memory.totals()
    values = {}
    for name in PER_LAYER:
        span, _, quantity = name.rpartition(".")
        if quantity == "peak_mb":
            values[name] = peaks.get(span, {}).get("peak_bytes", 0) / MB
        elif quantity in ("calls", "s", "self_s"):
            values[name] = totals.get(span, {}).get(quantity, 0)
    values["completion.build_B.table_mb"] = spans.table_bytes / MB
    values["serialize.bytes_out"] = spans.bytes_out
    return values


def end_to_end(tally: Tally, rounds: int, setup_s: float) -> tuple[dict, dict]:
    """Each timed op counts at the median of its repeats, one per round.
    On a shared machine an op's latency swings with the load of other
    tenants; the median repeat reads the state the machine was in for most of
    the run, where the fastest repeat reads whichever moment happened to be
    quiet.  ops_per_s is the verified ops of one round over the round's time
    at these medians; p50 and tail are taken over every timed op."""
    per_op: dict[int, list[float]] = {}
    for op, t in zip(tally.ops, tally.latencies):
        per_op.setdefault(id(op), []).append(t)
    typical = {key: statistics.median(times) for key, times in per_op.items()}
    steady = [typical[id(op)] for op in tally.ops]
    tail_s, tail_pct = tail(steady, tally.failed_flags)
    values = {
        "setup_s": setup_s,
        "ops_per_s": (tally.attempted - tally.failed) / rounds / sum(typical.values()),
        "op_s.p50": statistics.median(steady),
        "op_s.tail": tail_s,
    }
    values["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss * 1024 / MB
    extra = {
        "fail_ratio": f"{tally.failed / tally.attempted} ratio "
                      f"({tally.failed} failed of {tally.attempted} timed ops)",
        "op_s.tail percentile": f"p{tail_pct:.1f} of {tally.attempted} ops",
        "rounds": rounds,
    }
    return values, extra


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--tiny", action="store_true",
                        help="tiny sizes, for the benchmark's own smoke test")
    return parser.parse_args(argv)


def run(args) -> dict:
    """One benchmark run; returns the result object of the last output line."""
    shoda = _import_shoda()
    if shoda is None:
        raise SystemExit(f"error: no shoda sources under {ROOT / 'src'}; "
                         "run from the root of a shoda checkout")
    import numpy

    import workloads

    work_root = ROOT / ".perfbench"
    workdir = work_root / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        setup = SetUp(workloads.PLANS[args.workload], args.seed, workdir, args.tiny)
        plan = setup.set_up()
        tally = Tally()
        meta = metadata(args, numpy)
        if args.trace:
            tag = f"{args.workload}-seed{args.seed}"
            metrics, overhead = traced_run(plan, tally, work_root, tag)
            units = PER_LAYER
            extra = {"trace overhead": overhead,
                     "spans": str(work_root / f"{tag}-spans.jsonl")}
        else:
            rounds = timed_run(plan, args.seconds, tally, setup.sample)
            setup_s, parts = setup.seconds()
            metrics, extra = end_to_end(tally, rounds, setup_s)
            extra["setup_s parts"] = parts
            units = END_TO_END
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    failures = setup.tally.failures + tally.failures
    print("metadata " + json.dumps(meta, sort_keys=True))
    for line in failures:
        print("FAILED " + line)
    for name, value in metrics.items():
        print(f"{name:45s} {value:.6g} {units[name]}")
    for name, value in extra.items():
        print(f"{name:45s} {value}")
    by_kind: dict[str, list[float]] = {}
    for op, t in zip(tally.ops, tally.latencies):
        by_kind.setdefault(op.kind, []).append(t)
    for kind, times in sorted(by_kind.items()):
        print(f"op {kind:42s} n={len(times):<4d} median {statistics.median(times):.4g} s")
    finite = all(math.isfinite(v) for v in metrics.values())
    return {
        "correct": not failures and finite,
        "attempted": setup.tally.attempted + tally.attempted,
        "failed": len(failures),
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in metrics.items()},
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    _limit_blas_threads()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    result = run(args)
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
