"""matym benchmark: run one workload, check its outputs, print its metrics.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
                             [--heldout-seed M]

Run from the root of a checkout; matym is imported from its `src`
directory. Each workload is a closed loop with one client in this
process: passes over the workload's operations run back to back for
about S seconds (at least two, or one untraced and one traced). BLAS and
OpenMP threads are pinned to 1 before numpy loads.

--trace 0 reports the end-to-end metrics: the median pass in units of a
reference computation timed alongside it (`wall_ref`; see ReferenceClock),
set-up seconds and peak memory. --trace 1 spends half the time on
untraced passes and half on traced ones and reports the per-layer
metrics, with the tracing overhead, and writes the spans to
.bench_out/spans-<workload>-seed<N>.jsonl. --heldout-seed repeats the
measurement on a second seed, reported under `heldout.`, so that a gain
can be confirmed on a seed nobody tuned against.

Every metric is printed as `metric <name> = <value> <unit>`; the last line
is one JSON object with `correct`, `attempted`, `failed` and `metrics`.
The exit code is 0 when every output check passed, 1 when one failed and
2 when matym's sources are missing.
"""

import argparse
import itertools
import json
import os
import platform
import resource
import shutil
import signal
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_REPEATS = 5
REFERENCE_STEPS = 4000  # about 40 ms on a 2 GHz Xeon
REFERENCE_EVERY_S = 0.5  # a sample costs about 8 % of the run
THREAD_PINS = {name: "1" for name in (
    "OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
    "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")}


def parse_args(argv, workloads):
    parser = argparse.ArgumentParser(description="Run one matym benchmark workload.")
    parser.add_argument("--workload", required=True, choices=sorted(workloads))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--heldout-seed", type=int, default=None)
    return parser.parse_args(argv)


def measure_setup(specs):
    """Median import and calculus times over fresh interpreters."""
    runs = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [sys.executable, str(BENCH / "setup_probe.py"), str(SRC), *specs],
            capture_output=True, text=True, timeout=120, check=True)
        probe = json.loads(out.stdout.splitlines()[-1])
        runs.append({**probe, "total_s": probe["import_s"] + probe["calculus_s"]})
    return {key: statistics.median(r[key] for r in runs) for key in runs[0]}


def reference_seconds():
    """Time a fixed computation shaped like matym's inner loops: tuple keys,
    dict updates, 3x3 complex products and zero tests. It calls no matym
    code, so no change to matym can move it; only the host's speed can."""
    import numpy as np

    m = np.arange(9, dtype=complex).reshape(3, 3) + 1j
    start = time.perf_counter()
    acc = {}
    for i in range(REFERENCE_STEPS):
        key = tuple(sorted((i % 7, i % 5, i % 3)))
        p = m @ m
        acc[key] = acc[key] + p if key in acc else p
        if not np.any(acc[key]):
            del acc[key]
    return time.perf_counter() - start


class ReferenceClock:
    """Times the reference computation every REFERENCE_EVERY_S seconds of
    wall time, from a SIGALRM handler, so long operations are sampled in
    their middle too. `paused_s` sums the time the samples took; the pass
    timing leaves it out.

    The shared host's CPU switches within seconds between a fast and a slow
    speed (reference times near 25 and 45 ms), in proportions that drift
    over minutes. A pass divided by the mean reference time sampled during
    it cancels most of that.
    """

    def __init__(self):
        self.samples = []
        self.paused_s = 0.0

    def sample(self, *_):
        start = time.perf_counter()
        self.samples.append(reference_seconds())
        self.paused_s += time.perf_counter() - start

    def __enter__(self):
        signal.signal(signal.SIGALRM, self.sample)
        signal.setitimer(signal.ITIMER_REAL, REFERENCE_EVERY_S, REFERENCE_EVERY_S)
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)


class Passes:
    """Outcome of back-to-back passes over a workload's operations."""

    def __init__(self):
        self.clock = ReferenceClock()  # samples only inside `with self.clock`
        self.walls = []
        self.samples = []  # reference times sampled during each pass
        self.op_seconds = {}
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.bodies = None  # first pass's output bodies, the reference

    def run(self, ops, seconds, minimum, tracer=None):
        """Run at least `minimum` passes, and more while the next one, if
        as long as the last, still ends within `seconds`."""
        start = time.perf_counter()
        for done in itertools.count(1):
            if tracer is not None:
                tracer.pass_id = len(self.walls)
            wall = self.run_pass(ops)
            if done >= minimum and time.perf_counter() - start + wall > seconds:
                return

    def run_pass(self, ops):
        wall = 0.0
        bodies = []
        first_sample = len(self.clock.samples)
        for op in ops:
            self.attempted += 1
            paused = self.clock.paused_s
            try:
                started = time.perf_counter()
                result = op.run()
                took = time.perf_counter() - started - (self.clock.paused_s - paused)
                body, problems = op.check(result)
            except Exception as exc:  # an operation that raises has failed
                took, body, problems = 0.0, "", [f"raised {exc!r}"]
            wall += took
            self.op_seconds.setdefault(op.name, []).append(took)
            if self.bodies is not None and body != self.bodies[len(bodies)]:
                problems.append("output differs from the first pass")
            bodies.append(body)
            if problems:
                self.failed += 1
                self.problems.append(f"pass {len(self.walls)} {op.name}: {'; '.join(problems)}")
        if self.bodies is None:
            self.bodies = bodies
        self.walls.append(wall)
        self.samples.append(self.clock.samples[first_sample:])
        return wall

    def ref_walls(self):
        """Each pass in units of the reference time sampled during it."""
        return [w / statistics.fmean(s) for w, s in zip(self.walls, self.samples)]


def end_to_end_metrics(ref_walls, setup):
    return {
        "wall_ref": (statistics.median(ref_walls), "ref"),
        "setup_s": (setup["total_s"], "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }


def per_layer_metrics(tracer, setup, untraced, traced):
    """The tracer's layer metrics plus set-up parts and tracing overhead."""
    metrics = tracer.layer_metrics(sum(traced), len(traced))
    metrics["setup.import_s"] = (setup["import_s"], "s")
    metrics["matforms.calculus.setup_s"] = (setup["calculus_s"], "s")
    metrics["trace.wall_s"] = (statistics.median(traced), "s")
    metrics["trace.overhead_s"] = (statistics.median(traced) - statistics.median(untraced), "s")
    return metrics


def run_workload(name, seed, seconds, trace, workdir):
    """Measure one workload at one seed; returns (metrics, passes, extra
    metrics that are printed only)."""
    import tracer as tracing
    from workloads import WORKLOADS

    build, specs = WORKLOADS[name]
    setup = measure_setup(specs)
    ops = build(workdir, seed)
    passes = Passes()
    if not trace:
        with passes.clock:
            passes.run(ops, seconds, minimum=2)
        ref_walls = passes.ref_walls()
        extra = {"wall_s": (statistics.median(passes.walls), "s"),
                 "reference_s": (statistics.median(passes.clock.samples), "s")}
        for metric, values, unit in (("wall_ref", ref_walls, "ref"), ("wall_s", passes.walls, "s")):
            q1, _, q3 = statistics.quantiles(values, n=4, method="inclusive")
            extra[f"{metric}.q1"] = (q1, unit)
            extra[f"{metric}.q3"] = (q3, unit)
        return end_to_end_metrics(ref_walls, setup), passes, extra
    passes.run(ops, seconds / 2, minimum=1)
    untraced = list(passes.walls)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        passes.run(ops, seconds / 2, minimum=1, tracer=tracer)
    finally:
        tracer.restore()
    OUT.mkdir(exist_ok=True)
    tracer.write_spans(OUT / f"spans-{name}-seed{seed}.jsonl")
    traced = passes.walls[len(untraced):]
    return per_layer_metrics(tracer, setup, untraced, traced), passes, {}


def git_commit():
    """The commit of a git checkout, read from .git without running git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).exists():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def environment(seed, heldout_seed):
    import numpy
    import scipy

    cpu = platform.processor() or "unknown"
    try:
        with open("/proc/cpuinfo", encoding="utf-8") as f:
            cpu = next(line.split(":", 1)[1].strip() for line in f
                       if line.startswith("model name"))
    except (OSError, StopIteration):
        pass
    blas = numpy.show_config(mode="dicts")["Build Dependencies"]["blas"]
    return {
        "cpu": cpu,
        "nproc": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas": f"{blas.get('name')} {blas.get('version')}",
        "thread_pins": THREAD_PINS,
        "seed": seed,
        "heldout_seed": heldout_seed,
        "commit": git_commit(),
    }


def print_metrics(metrics, prefix=""):
    for name, (value, unit) in metrics.items():
        print(f"metric {prefix}{name} = {value:.6g} {unit}")


def main(argv=None):
    if not (SRC / "matym" / "__init__.py").is_file():
        print(f"benchmark: no matym sources under {SRC}", file=sys.stderr)
        return 2
    os.environ.update(THREAD_PINS)  # before numpy loads, here and in children
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(BENCH))
    from workloads import WORKLOADS

    args = parse_args(argv, WORKLOADS)
    print("environment " + json.dumps(environment(args.seed, args.heldout_seed), sort_keys=True))
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    seeds = [args.seed] + ([args.heldout_seed] if args.heldout_seed is not None else [])
    attempted = failed = 0
    problems = []
    try:
        for i, seed in enumerate(seeds):
            prefix = "heldout." if i else ""
            metrics, passes, extra = run_workload(
                args.workload, seed, args.seconds, args.trace, workdir)
            if not i:
                result_metrics = metrics
            print_metrics(metrics, prefix)
            print_metrics(extra, prefix)
            print(f"metric {prefix}passes = {len(passes.walls)} count "
                  f"({' '.join(f'{w:.4g}' for w in passes.walls)} s)")
            print(f"metric {prefix}failed_frac = {passes.failed / passes.attempted:.6g} "
                  f"fraction ({passes.failed} of {passes.attempted} operations)")
            for op, times in passes.op_seconds.items():
                print(f"op {prefix}{op} median_s = {statistics.median(times):.6g} "
                      f"over {len(times)}")
            attempted += passes.attempted
            failed += passes.failed
            problems += passes.problems
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    for problem in problems:
        print(f"FAILED {problem}")
    correct = failed == 0
    print(json.dumps({
        "correct": correct,
        "attempted": attempted,
        "failed": failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in result_metrics.items()},
    }))
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
