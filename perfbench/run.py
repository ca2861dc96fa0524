"""Closed-loop synkit benchmark: one client, one request in flight.

    python3 perfbench/run.py --workload simulate --seed 1 --seconds 40 --trace 0

Run from the repository root. Workloads: simulate, kernels, scenes (see
README.md beside this file). With ``--trace 0`` the whole measuring time is
untraced and the end-to-end metrics are reported, with request and set-up
times scaled to the host's quiet speed by a reference computation timed
beside them. With ``--trace 1`` every other mix cycle runs traced, and the
per-layer metrics are reported, including the tracing overhead. Output: a
metric table, one provenance JSON line, and as the last line one JSON
object with the keys ``correct``, ``attempted``, ``failed`` and ``metrics``.
"""
import argparse
import hashlib
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import tempfile
from collections import defaultdict
from pathlib import Path
from time import perf_counter

ROOT = Path(__file__).resolve().parent.parent
BLAS_THREADS = 1  # one client; at most nproc, and these matrix sizes gain nothing from two
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = str(BLAS_THREADS)  # read once, when numpy loads BLAS
sys.path.insert(0, str(ROOT / "src"))

try:
    import synkit
except ImportError as exc:
    sys.exit(f"error: cannot import synkit from {ROOT / 'src'}: {exc}")
if Path(synkit.__file__).resolve().parent != (ROOT / "src" / "synkit").resolve():
    sys.exit(f"error: synkit resolved to {synkit.__file__}, not to this checkout")

import numpy as np  # noqa: E402

import spans  # noqa: E402
from workloads import WORKLOADS  # noqa: E402

SETUP_REPEATS = 3
WORK_DIR = ROOT / ".bench_work"

# Host speed. A shared host runs this process at a speed that changes from
# second to second, often by half (other tenants' load), and the change hits
# interpreter, BLAS and memory-bound code alike. A fixed reference
# computation of the same three kinds is timed between requests; each
# request's time is scaled by REFERENCE_S over the mean of the reference
# times on either side of it, which gives its time at the host's quiet speed.
_REF_MATRIX = np.random.default_rng(0).standard_normal((96, 96)) + 96.0 * np.eye(96)
_REF_VECTOR = np.random.default_rng(1).standard_normal(400_000)
# Time of reference_work() on a quiet host: the median of its fastest tenth,
# 2-vCPU virtual machine, Python 3.11.7, numpy 2.4.6, OpenBLAS on one thread.
REFERENCE_S = 0.0065


def reference_work():
    """Seconds taken by the fixed reference computation, run now."""
    start = perf_counter()
    total = 0
    for k in range(40_000):
        total += k * k
    for _ in range(6):
        np.linalg.solve(_REF_MATRIX, _REF_MATRIX)
    for _ in range(3):
        _REF_VECTOR * 1.5 + _REF_VECTOR
    return perf_counter() - start


class Ledger:
    """Counts attempted and failed requests; keeps one good output."""

    def __init__(self, workload):
        self.workload = workload
        self.attempted = 0
        self.failed = 0
        self.problems = []
        self.sample = None

    def settle(self, job, raw, error):
        """Load and check one finished request, then discard its files."""
        self.attempted += 1
        try:
            if error is not None:
                problems = [error]
            else:
                try:
                    out = self.workload.load(job, raw)
                except (OSError, ValueError) as exc:
                    problems = [f"unreadable output: {type(exc).__name__}: {exc}"]
                else:
                    problems = checked(self.workload, out)
        finally:
            self.workload.discard(job)
        if problems:
            self.failed += 1
            self.problems.append(problems)
        elif self.sample is None:
            self.sample = out
        return not problems


def checked(workload, out):
    """Problems found in one output; malformed output is a problem too."""
    try:
        return workload.check(out)
    except (KeyError, IndexError, TypeError, ValueError) as exc:
        return [f"malformed output: {type(exc).__name__}: {exc}"]


def attempt(workload, job):
    """Run one request; returns (raw output, error text or None, seconds)."""
    start = perf_counter()
    try:
        raw, error = workload.run(job), None
    except Exception as exc:  # a request that raises is counted as failed
        raw, error = None, f"{type(exc).__name__}: {exc}"
    return raw, error, perf_counter() - start


def closed_loop(workload, seeds, seconds, ledger, tracer=None):
    """Send requests one after another for ``seconds`` of wall time.

    Only the calls into the program are timed; preparing inputs, checking
    outputs and timing the reference computation happen between them with
    the clock stopped. Each request's time is kept as measured and at the
    host's quiet speed. With a tracer, every other mix cycle is traced, so
    traced and untraced requests share the machine's conditions; the loop
    then runs at least two whole cycles, otherwise at least one.
    """
    latencies, measured, paces, kinds, passed, traced = [], [], [], [], [], []
    least = workload.CYCLE * (1 if tracer is None else 2)
    before = reference_work()
    start = perf_counter()
    while perf_counter() - start < seconds or len(latencies) < least:
        i = len(latencies)
        job = workload.prepare(i, next(seeds))
        tracing = tracer is not None and (i // workload.CYCLE) % 2 == 1
        if tracing:
            tracer.request = i
            tracer.install()
        try:
            raw, error, elapsed = attempt(workload, job)
        finally:
            if tracing:
                tracer.uninstall()
        after = reference_work()
        pace = REFERENCE_S / (0.5 * (before + after))
        before = after
        latencies.append(elapsed * pace)
        measured.append(elapsed)
        paces.append(pace)
        kinds.append(workload.kind(i))
        traced.append(tracing)
        passed.append(ledger.settle(job, raw, error))
    return {"latencies": latencies, "measured": measured, "paces": paces, "kinds": kinds,
            "passed": passed, "traced": traced}


def cycle_rates(latencies, passed, cycle):
    """Passed requests ÷ request time for each whole mix cycle, in order.

    A cycle holds one request of every kind in the mix, so each cycle does
    the same work, and a median over cycles keeps a burst of machine noise
    in one of them out of the figure.
    """
    return [sum(passed[k:k + cycle]) / sum(latencies[k:k + cycle])
            for k in range(0, len(latencies) - cycle + 1, cycle)]


def self_check(workload, sample):
    """Corruptions of a good output that the checks failed to reject."""
    if sample is None:
        return ["no good output to corrupt"]
    return [label for label, bad in workload.corrupt(sample) if not checked(workload, bad)]


def timing_figures(latencies, passed, cycle):
    p90 = statistics.quantiles(latencies, n=10, method="inclusive")[-1]
    return {
        "throughput_rps": statistics.median(cycle_rates(latencies, passed, cycle)),
        "latency_p50_s": statistics.median(latencies),
        "latency_p90_s": p90,
    }


def end_to_end(loop, cycle, setup_s):
    """End-to-end metrics at quiet host speed, and the figures as measured."""
    lat = loop["latencies"]
    figures = timing_figures(lat, loop["passed"], cycle)
    units = {"throughput_rps": "requests/s", "latency_p50_s": "s", "latency_p90_s": "s"}
    metrics = {name: (value, units[name]) for name, value in figures.items()}
    metrics["setup_s"] = (setup_s, "s")
    metrics["peak_rss_mb"] = (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MiB")
    p90 = figures["latency_p90_s"]
    info = {
        "latency_samples": len(lat),
        "p90_tail_samples": sum(x > p90 for x in lat),
        "as_measured": timing_figures(loop["measured"], loop["passed"], cycle),
        "pace_quartiles": statistics.quantiles(loop["paces"], n=4),
    }
    return metrics, info


def layer_breakdown(recorded, loop):
    """Mean self time per layer for each request kind, in seconds."""
    by_request = spans.layer_self_times(recorded)
    groups = defaultdict(list)
    for i, (kind, traced) in enumerate(zip(loop["kinds"], loop["traced"])):
        if traced:
            groups[kind].append(i)
    table = {}
    for kind, requests in sorted(groups.items()):
        table[kind] = {
            layer: sum(by_request[i][layer] for i in requests) / len(requests)
            for layer in spans.LAYERS
        }
        table[kind]["requests"] = len(requests)
    return table


def git_commit():
    """Commit of the checkout, read from .git without running git; None outside git."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    name = ref[5:]
    loose = ROOT / ".git" / name
    if loose.is_file():
        return loose.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + name):
                return line.split()[0]
    return None


def source_digest():
    digest = hashlib.sha256()
    for path in sorted((ROOT / "src").rglob("*.py")):
        digest.update(path.relative_to(ROOT).as_posix().encode())
        digest.update(path.read_bytes())
    return digest.hexdigest()


def paced(action):
    """Run ``action()``; its seconds at quiet host speed and as measured."""
    before = reference_work()
    start = perf_counter()
    action()
    elapsed = perf_counter() - start
    after = reference_work()
    return elapsed * REFERENCE_S / (0.5 * (before + after)), elapsed


def import_runs():
    """Fresh interpreters starting and importing synkit, timed with ``paced``."""
    code = f"import sys; sys.path.insert(0, {str(ROOT / 'src')!r}); import synkit"
    return [paced(lambda: subprocess.run([sys.executable, "-c", code], check=True))
            for _ in range(SETUP_REPEATS)]


def measure(workload, args, work):
    rng = np.random.default_rng(args.seed)
    setup_seed = int(rng.integers(2**31))
    setup_runs = [paced(lambda: workload.setup(work, setup_seed)) for _ in range(SETUP_REPEATS)]
    imports = import_runs()
    setup_s = (statistics.median(quiet for quiet, _ in imports)
               + statistics.median(quiet for quiet, _ in setup_runs))
    # distinct request seeds, consecutive from a seed-derived start
    seeds = itertools.count(int(rng.integers(2**31 - 2**24)))

    ledger = Ledger(workload)
    warm_up = workload.prepare(0, next(seeds))  # fills caches; counted, not timed
    raw, error, _ = attempt(workload, warm_up)
    ledger.settle(warm_up, raw, error)

    info = {"setup_repeats": SETUP_REPEATS,
            "setup_runs_s": [measured for _, measured in setup_runs],
            "import_runs_s": [measured for _, measured in imports]}
    if not args.trace:
        loop = closed_loop(workload, seeds, args.seconds, ledger)
        metrics, samples = end_to_end(loop, workload.CYCLE, setup_s)
        info.update(samples)
        info["failed_frac"] = ledger.failed / ledger.attempted
    else:
        tracer = spans.Tracer()
        loop = closed_loop(workload, seeds, args.seconds, ledger, tracer)
        traced = sum(loop["traced"])
        metrics = spans.per_layer_metrics(tracer.spans, traced)
        rates = cycle_rates(loop["latencies"], loop["passed"], workload.CYCLE)
        # each traced cycle against the untraced cycle just before it
        overhead = statistics.median(
            traced_rate / plain_rate for plain_rate, traced_rate in zip(rates[::2], rates[1::2]))
        metrics["trace.overhead_frac"] = (overhead - 1.0, "ratio")
        info["untraced_requests"] = len(loop["latencies"]) - traced
        info["traced_requests"] = traced
        info["layers_by_kind_s"] = layer_breakdown(tracer.spans, loop)
        trace_dir = WORK_DIR / "traces"
        trace_dir.mkdir(parents=True, exist_ok=True)
        path = trace_dir / f"{workload.name}-seed{args.seed}.jsonl.gz"
        tracer.write(path)
        info["spans"] = len(tracer.spans)
        info["trace_file"] = str(path.relative_to(ROOT))

    missed = self_check(workload, ledger.sample)
    info["self_check_missed"] = missed
    info["problems"] = ledger.problems[:5]
    correct = ledger.failed == 0 and not missed
    return correct, ledger, metrics, info


def parse_args(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    return parser.parse_args(argv)


def main():
    args = parse_args()
    workload = WORKLOADS[args.workload]()
    WORK_DIR.mkdir(exist_ok=True)
    work = Path(tempfile.mkdtemp(prefix=f"{args.workload}-", dir=WORK_DIR))
    try:
        correct, ledger, metrics, info = measure(workload, args, work)
    finally:
        shutil.rmtree(work, ignore_errors=True)

    provenance = {
        "commit": git_commit(),
        "source_sha256": source_digest(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "nproc": len(os.sched_getaffinity(0)),
        "blas_threads": BLAS_THREADS,
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "requests": ledger.attempted,
        "failed": ledger.failed,
        **info,
    }
    print(f"workload {args.workload}  seed {args.seed}  seconds {args.seconds:g}  "
          f"trace {args.trace}  requests {ledger.attempted}  failed {ledger.failed}")
    rows = dict(metrics)
    if not args.trace:
        rows["failed_frac"] = (info["failed_frac"], "ratio")
    for name, (value, unit) in rows.items():
        print(f"  {name:<28} {value:>14.6g} {unit}")
    print(json.dumps({"provenance": provenance}))
    print(json.dumps({
        "correct": bool(correct),
        "attempted": ledger.attempted,
        "failed": ledger.failed,
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }))


if __name__ == "__main__":
    main()
