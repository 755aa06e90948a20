"""Benchmark of crossproj: one workload per run, one closed-loop caller.

Usage, from the root of a source checkout::

    python3 bench/run.py --workload project_small --seed 1 --seconds 12 --trace 0

The library is imported from ``src/`` of the checkout; nothing needs to be
installed.  With ``--trace 0`` the run reports the end-to-end metrics
named in BENCHMARK.json: start-up time of a fresh interpreter importing
``crossproj.cli``, operations per second, p50 latency and pass time over
back-to-back passes of the workload's inputs, and the shares of right and
of completed operations; it also prints the tail latency, which is too
noisy on a shared machine to gate.  With ``--trace 1`` it reports the
per-layer metrics from a traced run (tracing.py) next to an untraced one.
Every metric is printed as ``name value unit``; the last line of output
is one JSON object.

The first pass over the inputs warms up, and every output of it is
checked; after the timed passes one more pass is checked the same way and
must agree with the first.  Timings come from the steady stretches of the
run (timing.py).  A run exits with status 1 and prints no result when the
library cannot be imported from the checkout.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from time import perf_counter_ns

# One thread on one CPU throughout, in this process and in the interpreters
# it starts: the benchmark is one closed-loop caller, and the probes that
# judge the machine's speed (timing.py) run on the CPU they judge.
for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"
os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")

#: Fresh interpreters timed per run for setup_s, spread over the timed passes.
SETUP_LAUNCHES = 7
#: Interpreters run under -X importtime for the cli.* metrics.
IMPORTTIME_LAUNCHES = 5
#: Last-level cache assumed when lscpu cannot report it (this machine's).
DEFAULT_LLC_BYTES = 105 * 2**20

#: What each workload calls its operations, and the unit of its latencies.
OP_NAMES = {
    "project_small": ("project", "us", 1.0),
    "project_large": ("project", "us", 1.0),
    "check_battery": ("check", "ms", 1e-3),
    "solve_feasibility": ("solve", "ms", 1e-3),
}


def fail(message: str) -> None:
    sys.stderr.write(f"bench: {message}\n")
    sys.exit(1)


def load_declared(section: str) -> dict:
    """Metric name -> unit, as BENCHMARK.json declares them."""
    try:
        with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
            spec = json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        fail(f"cannot read BENCHMARK.json: {exc}")
    return {m["name"]: m["unit"] for m in spec[section]}


def launch(args: list[str]) -> subprocess.CompletedProcess:
    """Run a fresh interpreter that finds crossproj in the checkout."""
    env = dict(os.environ)
    env["PYTHONPATH"] = SRC + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    proc = subprocess.run(
        [sys.executable, *args], cwd=ROOT, env=env, capture_output=True, text=True, timeout=60
    )
    if proc.returncode != 0:
        fail(f"{' '.join(args)} exited {proc.returncode}: {proc.stderr.strip()[-500:]}")
    return proc


def measure_imports() -> tuple[float, float]:
    """Median (numpy, crossproj) import seconds read from ``-X importtime``."""
    numpy_s, own_s = [], []
    for _ in range(IMPORTTIME_LAUNCHES):
        err = launch(["-X", "importtime", "-c", "import crossproj.cli"]).stderr
        cumulative = {}
        for line in err.splitlines():
            parts = line.split("|")
            if len(parts) == 3 and parts[1].strip().isdigit():
                cumulative[parts[2].strip()] = int(parts[1]) * 1e-6
        numpy = cumulative.get("numpy", 0.0)
        numpy_s.append(numpy)
        own_s.append(cumulative["crossproj"] + cumulative["crossproj.cli"] - numpy)
    return statistics.median(numpy_s), statistics.median(own_s)


def llc_bytes() -> tuple[int, str]:
    """Size of the highest cache level lscpu reports."""
    try:
        out = subprocess.run(
            ["lscpu", "-C=LEVEL,ALL-SIZE", "--bytes"], capture_output=True, text=True, timeout=10
        ).stdout
        rows = [line.split() for line in out.splitlines()[1:]]
        level, size = max((int(r[0]), int(r[1])) for r in rows if len(r) == 2)
        return size, f"lscpu (L{level})"
    except (OSError, ValueError, subprocess.SubprocessError):
        return DEFAULT_LLC_BYTES, "assumed, lscpu gave none"


def git_revision() -> str:
    """HEAD of the checkout, read from .git without running git."""
    try:
        with open(os.path.join(ROOT, ".git", "HEAD"), encoding="utf-8") as fh:
            head = fh.read().strip()
        if head.startswith("ref: "):
            with open(os.path.join(ROOT, ".git", head[5:]), encoding="utf-8") as fh:
                return fh.read().strip()
        return head
    except OSError:
        return "unknown (not a git checkout)"


def import_library() -> dict:
    if not os.path.isfile(os.path.join(SRC, "crossproj", "__init__.py")):
        fail(f"no crossproj sources under {SRC}")
    sys.path.insert(0, SRC)
    import crossproj
    import crossproj.cli  # noqa: F401  (the start-up path setup_s measures)
    from crossproj import oracle, projection, solvers

    if os.path.dirname(os.path.dirname(os.path.abspath(crossproj.__file__))) != SRC:
        fail(f"crossproj was imported from {crossproj.__file__}, not from {SRC}")
    return {"projection": projection, "oracle": oracle, "solvers": solvers}


def checked_pass(w) -> list:
    """Run every operation once, untimed, and judge each output."""
    from workloads import RAISED

    verdicts = []
    for op in w.ops:
        try:
            res = w.call(op)
        except Exception:  # a raised operation is a failed one
            verdicts.append(RAISED)
            continue
        verdicts.append(w.judge(op, res))
    return verdicts


def tally(verdicts: list) -> Counter:
    c = Counter()
    for v in verdicts:
        c["attempted"] += 1
        c["failed"] += not v.ok
        c["unknown_failures"] += not v.ok and not v.known
        c["completed"] += v.completed
    return c


def end_to_end(w, seconds: float, facts: dict) -> tuple[dict, dict]:
    from timing import Timed

    launch(["-c", "import crossproj.cli"])  # compiles the bytecode once, untimed
    launches = []  # (chunk, seconds): start-ups timed between chunks
    every_ns = int(seconds * 1e9 / (SETUP_LAUNCHES + 1))
    start = perf_counter_ns()

    def time_launch() -> None:
        t0 = perf_counter_ns()
        launch(["-c", "import crossproj.cli"])
        launches.append((len(timed.probes) - 1, (perf_counter_ns() - t0) * 1e-9))

    def between_chunks() -> None:
        if len(launches) < SETUP_LAUNCHES and perf_counter_ns() >= start + (len(launches) + 1) * every_ns:
            time_launch()

    timed = Timed(w, on_chunk=between_chunks)
    timed.run(seconds)
    while len(launches) < SETUP_LAUNCHES:  # a run too short to fit them all
        time_launch()
        timed.close_chunk()
    summary = timed.summary()
    # start-ups made while the machine was steady; at least the three whose
    # chunks had the fastest probes
    pc = timed.chunk_probes()
    ranked = sorted(launches, key=lambda cl: pc[cl[0]])
    setup = [s for c, s in ranked if pc[c] <= summary["steady_ratio"] * pc.min()]
    if len(setup) < 3:
        setup = [s for _, s in ranked[:3]]
    pass_s = summary["pass_ns"] * 1e-9
    facts.update(
        setup_launches=len(launches),
        setup_launches_steady=len(setup),
        timed_passes=summary["passes"],
        steady_frac=round(summary["steady_frac"], 4),
        steady_probe_ratio=round(summary["steady_ratio"], 4),
        latency_samples=summary["samples"],
        raised_in_timed_passes=timed.raised,
    )
    return {
        "setup_s": statistics.median(setup),
        "ops_per_s": len(w.ops) / pass_s,
        "op_p50_us": summary["p50_ns"] * 1e-3,
        "pass_wall_s": pass_s,
    }, summary


def _per(total, base) -> float:
    return total / base if base else 0.0


def _stream_bytes_per_ns(w) -> tuple[float, int]:
    """Sustained read rate of a numpy sum over the workload's own arrays."""
    arrays = list(w.arrays())
    nbytes = sum(a.nbytes for a in arrays)
    times = []
    for _ in range(5):
        t0 = perf_counter_ns()
        for a in arrays:
            a.sum()
        times.append(perf_counter_ns() - t0)
    return nbytes / statistics.median(times), nbytes


def per_layer(w, seconds: float, facts: dict, notes: list) -> dict:
    from timing import Timed
    from tracing import Tracer

    tracer = Tracer()
    chunk_snaps, pass_snaps = [tracer.snapshot()], []

    def switch(variant: int) -> None:
        # odd passes run traced; a snapshot marks the end of each
        if tracer.installed:
            tracer.remove()
            pass_snaps.append(tracer.snapshot())
        if variant:
            tracer.install()

    timed = Timed(w, on_chunk=lambda: chunk_snaps.append(tracer.snapshot()), switch=switch)
    try:
        # four passes at least, so two traced passes can be compared
        timed.run(seconds, variants=2, min_passes=4)
    finally:
        switch(0)

    # counts come from whole passes, and every pass must repeat them exactly
    def counts_of(snap: Counter) -> Counter:
        return Counter({k: v for k, v in snap.items() if k[0] == "calls" or k[0] == "count"})

    per_pass = [counts_of(b - a) for a, b in zip([Counter()] + pass_snaps, pass_snaps)]
    if any(p != per_pass[0] for p in per_pass):
        notes.append("call counts differ between traced passes")
    total = pass_snaps[-1]
    passes = len(pass_snaps)
    ops = passes * len(w.ops)
    iters = total["count", "solvers.iterations"]

    # times come from the steady chunks, per operation or per iteration
    steady = timed.steady_chunks()
    st = sum((b - a for a, b, ok in zip(chunk_snaps, chunk_snaps[1:], steady) if ok), Counter())
    steady_ops = int(timed.ops_per_chunk(variant=1)[steady].sum())
    steady_iters = st["count", "solvers.iterations"]

    def us_op(kind: str, name: str) -> float:
        return _per(st[kind, name], steady_ops) * 1e-3

    def us_iter(kind: str, name: str) -> float:
        return _per(st[kind, name], steady_iters) * 1e-3

    linalg_ns = sum(st["incl_ns", f"linalg.{f}"] for f in ("as_vector", "norm", "inner", "block_solve"))
    sustained, stream_bytes = _stream_bytes_per_ns(w)
    branches = ("orthogonal", "generic_direct", "generic_fallback", "degenerate")
    projected = sum(total["count", f"branch.{b}"] for b in branches)
    numpy_s, crossproj_s = measure_imports()

    m = {}
    for f in ("as_vector", "norm", "inner"):
        m[f"linalg.{f}.calls_per_op"] = _per(total["calls", f"linalg.{f}"], ops)
        m[f"linalg.{f}.us_per_op"] = us_op("incl_ns", f"linalg.{f}")
    m["linalg.block_solve.us_per_op"] = us_op("incl_ns", "linalg.block_solve")
    m["linalg.computed_bytes_per_op"] = _per(total["count", "linalg.bytes"], ops)
    m["linalg.bandwidth_frac"] = _per(st["count", "linalg.bytes"], linalg_ns) / sustained
    m["projection.project.self_us_per_op"] = us_op("self_ns", "projection.project")
    m["projection.classify.calls_per_op"] = _per(total["calls", "projection.classify"], ops)
    m["projection.classify.self_us_per_op"] = us_op("self_ns", "projection.classify")
    for b in branches:
        m[f"projection.branch.{b}_frac"] = _per(total["count", f"branch.{b}"], projected)
    m["oracle.check.self_ms_per_input"] = us_op("self_ns", "oracle.check") * 1e-3
    m["oracle.lagrangian_oracle.ms_per_input"] = us_op("incl_ns", "oracle.lagrangian_oracle") * 1e-3
    m["oracle.subspace_oracle.ms_per_input"] = us_op("incl_ns", "oracle.subspace_oracle") * 1e-3
    m["oracle.project.calls_per_input"] = _per(total["calls", "oracle.project"], ops)
    m["oracle.project.ms_per_input"] = us_op("incl_ns", "oracle.project") * 1e-3
    m["oracle.items_per_input"] = _per(total["count", "oracle.items"], ops)
    m["solvers.iterations"] = _per(iters, passes)
    m["solvers.p_c.calls_per_iter"] = _per(total["calls", "solvers.p_c"], iters)
    m["solvers.p_c.us_per_iter"] = us_iter("incl_ns", "solvers.p_c")
    m["solvers.p_b.us_per_iter"] = us_iter("incl_ns", "solvers.p_b")
    m["solvers.loop.self_us_per_iter"] = us_iter("self_ns", "solvers.loop")
    m["cli.import_numpy_s"] = numpy_s
    m["cli.import_crossproj_s"] = crossproj_s
    plain, traced = timed.summary(variant=0), timed.summary(variant=1)
    m["trace.overhead_frac"] = traced["pass_ns"] / plain["pass_ns"] - 1.0
    facts.update(
        untraced_passes=plain["passes"],
        traced_passes=passes,
        steady_chunks=f"{int(steady.sum())} of {len(steady)}",
        steady_probe_ratio=round(traced["steady_ratio"], 4),
        importtime_launches=IMPORTTIME_LAUNCHES,
        stream_bytes=stream_bytes,
        raised_in_timed_passes=timed.raised,
    )
    return m


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")

    modules = import_library()
    import numpy as np

    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"--workload must be one of {', '.join(workloads.WORKLOADS)}")
    declared = load_declared("per_layer" if args.trace else "end_to_end")
    llc, llc_source = llc_bytes()
    w = workloads.build(args.workload, args.seed, llc, modules)
    facts = {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "cpu_count": os.cpu_count(),
        "pinned_to_cpu": min(os.sched_getaffinity(0)),
        "llc_bytes": llc,
        "llc_source": llc_source,
        "git_revision": git_revision(),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        **w.facts,
        "ops_per_pass": len(w.ops),
    }
    notes: list[str] = []

    first = checked_pass(w)  # also the warm-up
    if args.trace:
        metrics = per_layer(w, args.seconds, facts, notes)
    else:
        metrics, timing = end_to_end(w, args.seconds, facts)
    last = checked_pass(w)
    counts = tally(first) + tally(last)
    if last != first:
        notes.append("outputs of the checked passes before and after timing differ")
    if facts["raised_in_timed_passes"]:
        notes.append(f"{facts['raised_in_timed_passes']} operations raised in the timed passes")
    if counts["unknown_failures"]:
        notes.append(f"{counts['unknown_failures']} wrong outputs outside the known seed-state defects")
    if not args.trace:
        metrics["correct_frac"] = 1.0 - counts["failed"] / counts["attempted"]
        metrics["completed_frac"] = counts["completed"] / counts["attempted"]
    if set(metrics) != set(declared):
        fail(f"measured metrics {sorted(metrics)} differ from BENCHMARK.json {sorted(declared)}")

    for key, value in facts.items():
        print(f"# {key}: {value}")
    for name, value in metrics.items():
        print(f"{name} {value:.6g} {declared[name]}")
    if not args.trace:
        # the same figures under the names the workloads' own reports use
        wrong = counts["failed"] / counts["attempted"]
        op, unit, factor = OP_NAMES[args.workload]
        print(f"wrong_frac {wrong:.6g} frac  (1 - correct_frac)")
        if op == "solve":
            print(f"solve_wall_s {metrics['pass_wall_s']:.6g} s  (pass_wall_s)")
            print(f"solve_unconverged_frac {1.0 - metrics['completed_frac']:.6g} frac  (1 - completed_frac)")
        else:
            print(f"{op}_per_s {metrics['ops_per_s']:.6g} 1/s  (ops_per_s)")
        print(f"{op}_p50_{unit} {metrics['op_p50_us'] * factor:.6g} {unit}  (op_p50_us, {timing['samples']} samples)")
        if "tail_pct" in timing:
            print(
                f"{op}_p{timing['tail_pct']}_{unit} {timing['tail_ns'] * 1e-3 * factor:.6g} {unit}"
                f"  ({timing['samples']} samples, {timing['tail_beyond']} beyond; not gated)"
            )
    for note in notes:
        print(f"# problem: {note}")
    print(json.dumps({
        "correct": not notes,
        "attempted": counts["attempted"],
        "failed": counts["failed"],
        "metrics": {name: {"value": value, "unit": declared[name]} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
