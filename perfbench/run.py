"""Benchmark of the ``nlsv`` estimation and forecasting pipeline.

Run from the root of a checkout:

    python3 perfbench/run.py --workload estimate --seed 1 --seconds 20 --trace 0

``--workload`` is one of estimate, paper-eval, forecast, rolling, or
``all``, which runs each in its own process.  A run makes a fixed list of
operations from the seed, as many as fill about ``--seconds`` on the
machine the sizes were set on, and times each of them in several passes
spread over the run.  With ``--trace 0`` nothing is wrapped; an
operation's time is the fastest of its repeats, and the run reports the
median over operations as the end-to-end metrics named in
``BENCHMARK.json``.  With ``--trace 1`` it runs the seed's first
operation, alternately plain and traced, and reports the per-layer
metrics from the spans plus the tracing overhead.  Every run checks the
program's outputs, and every repeat must reproduce its operation's first
output; the last line of standard output is one JSON object.  Operations
the program gives up on (a fit that raises or stops unconverged, a
skipped forecast origin) count as failed; a wrong output also makes the
run incorrect and the exit
code 1.  Results and spans are written under ``perfbench/out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS")
SETUP_REPEATS = 3
IMPORT_PROBE = (
    "import time; start = time.perf_counter(); "
    "import nlsv.cli, nlsv.eml, nlsv.forecasting, nlsv.likelihood; "
    "print(time.perf_counter() - start)"
)
NAMES = ("estimate", "paper-eval", "forecast", "rolling")


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=NAMES + ("all",))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--size", choices=("full", "smoke"), default="full")
    return parser.parse_args(argv)


def git_rev() -> str:
    """The checked-out commit, read from .git inside the checkout if any."""
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return "unknown"
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
    return "unknown"


def environment(args, threads: str) -> dict:
    import numpy
    import scipy

    return {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds,
        "trace": args.trace, "size": args.size, "git_rev": git_rev(),
        "python": platform.python_version(), "numpy": numpy.__version__,
        "scipy": scipy.__version__, "nproc": os.cpu_count(), "blas_threads": threads,
    }


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def median_of(results, key=None) -> float:
    return statistics.median(r.seconds if key is None else r.parts[key] for r in results)


def best_of(runs):
    """One operation's time: per named part the fastest of its repeats.
    Interference from other work on the machine only ever adds time."""
    parts = {key: min(r.parts[key] for r in runs) for key in runs[0].parts}
    return replace(runs[0], seconds=sum(parts.values()), parts=parts)


def timed_passes(workload) -> list[list]:
    """``workload.repeats`` passes over all operations, so the repeats of
    one operation are spread over the whole run."""
    return [[workload.run(k) for k in range(workload.n_ops)] for _ in range(workload.repeats)]


def import_seconds() -> float:
    """Median time to import the program in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        proc = subprocess.run(
            [sys.executable, "-c", IMPORT_PROBE], capture_output=True, text=True,
            check=True, timeout=120, env=dict(os.environ, PYTHONPATH=str(ROOT / "src")),
        )
        times.append(float(proc.stdout))
    return statistics.median(times)


def measure(workload):
    """Untraced run: set-up several times, then the timed passes."""
    import_s = import_seconds()
    setups = []
    for _ in range(SETUP_REPEATS):
        start = time.perf_counter()
        workload.setup()
        setups.append(time.perf_counter() - start)
    passes = timed_passes(workload)
    extra = workload.finish()
    best = [best_of(runs) for runs in zip(*passes)]
    named = {part: (median_of(best, part), "s") for part in workload.parts}
    named.update({k: (v, "s") for k, v in extra.items()})
    metrics = {
        "task_s": median_of(best),
        "setup_s": import_s + statistics.median(setups),
        "peak_rss_mb": peak_rss_mb(),
    }
    return passes, metrics, named


def trace(workload, run_id: str):
    """Traced run: the seed's first operation, alternately plain and
    traced, ``workload.repeats`` times each but at least twice, so that
    counts can be seen to repeat."""
    from spans import Tracer, absent_layers, layer_metrics

    tracer = Tracer()
    with tracer.installed(f"{run_id}-setup"):
        workload.setup()
    plain, traced = [], []
    reps = max(2, workload.repeats)
    for rep in range(reps):
        for wrapped in ((False, True) if rep % 2 == 0 else (True, False)):
            if wrapped:
                with tracer.installed(f"{run_id}-rep{rep}"):
                    traced.append(workload.run(0))
            else:
                plain.append(workload.run(0))
    with tracer.installed(f"{run_id}-finish"):
        workload.finish()
    once = tracer.spans_of(f"{run_id}-setup", f"{run_id}-finish")
    per_rep = [layer_metrics(once + tracer.spans_of(f"{run_id}-rep{i}")) for i in range(reps)]
    metrics = {name: statistics.median(m[name] for m in per_rep) for name in per_rep[0]}
    untraced, with_trace = best_of(plain).seconds, best_of(traced).seconds
    metrics.update({
        "trace.task_s": with_trace,
        "trace.untraced_task_s": untraced,
        "trace.overhead_s": with_trace - untraced,
        "trace.overhead_share": (with_trace - untraced) / untraced,
    })
    problems = trace_problems(tracer, per_rep)
    notes = {"absent_names": tracer.absent, "absent_layers": absent_layers(tracer)}
    return [plain, traced], metrics, problems, notes, tracer


def trace_problems(tracer, per_rep) -> list[str]:
    """Counts must repeat exactly across repetitions of one operation, and the
    evaluations counted at the optimizer must be those ``fit`` reports."""
    problems = []
    for name in per_rep[0]:
        values = {m[name] for m in per_rep}
        if not name.endswith(("_s", "_step", "_ratio")) and len(values) > 1:
            problems.append(f"count {name} differs across repetitions: {sorted(values)}")
    children: dict = {}
    for span in tracer.spans:
        children.setdefault(span.parent, []).append(span)
    for span in tracer.spans:
        if span.name == "search.fit" and span.error is None:
            evals = sum(c.counts.get("evals", 0) for c in children.get(span.id, ())
                        if c.name == "search.minimize")
            if evals != span.counts["n_evaluations"]:
                problems.append(
                    f"fit reported {span.counts['n_evaluations']} evaluations, "
                    f"the optimizer made {evals}"
                )
    return problems


def run_one(args) -> int:
    src = ROOT / "src"
    if not (src / "nlsv" / "__init__.py").is_file():
        print(f"error: no nlsv package under {src}; run from the root of a checkout",
              file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    threads = str(min(2, os.cpu_count() or 1))
    for var in THREAD_VARS:
        os.environ[var] = threads
    sys.path.insert(0, str(src))
    import workloads

    env = environment(args, threads)
    print("env " + json.dumps(env), flush=True)
    OUT.mkdir(exist_ok=True)
    workdir = OUT / f"work-{args.workload}-{os.getpid()}"
    workload = workloads.WORKLOADS[args.workload](args.seed, args.size, workdir, args.seconds)
    stem = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    try:
        if args.trace:
            passes, values, problems, notes, tracer = trace(
                workload, f"{args.workload}-seed{args.seed}"
            )
            tracer.write(OUT / f"{stem}.spans.jsonl")
            named = {}
            wanted = spec["per_layer"]
            for layer in notes["absent_layers"]:
                print(f"layer {layer} absent: none of its wrapped names exist", flush=True)
        else:
            passes, values, named = measure(workload)
            problems, notes = [], {}
            wanted = spec["end_to_end"]
        checks = workload.check(passes[0])
        for repeat in passes[1:]:
            for k, (first, again) in enumerate(zip(passes[0], repeat)):
                if first.data != again.data:
                    checks.record(False, f"a repeat of operation {k} changed its output")
        if args.trace:
            checks.record(not problems, "; ".join(problems))
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    problems, failed, attempted = checks.problems, checks.failed, checks.attempted
    failures = checks.failures

    metrics = {m["name"]: {"value": values[m["name"]], "unit": m["unit"]} for m in wanted}
    for name, (value, unit) in named.items():
        how = f"median over {workload.n_ops} operations" if name in workload.parts else "once"
        print(f"metric {name} {value:.6g} {unit} ({how})")
    for name, metric in metrics.items():
        print(f"metric {name} {metric['value']:.6g} {metric['unit']}")
    print(f"metric failed_share {failed / attempted:.6g} ratio ({failed} of {attempted})")
    for failure in failures:
        print(f"operation failed: {failure}")
    for problem in problems:
        print(f"check failed: {problem}")
    result = {"correct": not problems, "attempted": attempted, "failed": failed,
              "metrics": metrics}
    record = dict(result, env=env, named={k: v[0] for k, v in named.items()},
                  task_seconds=[[r.seconds for r in runs] for runs in passes], problems=problems,
                  failures=failures, **notes)
    (OUT / f"{stem}.json").write_text(json.dumps(record, indent=1) + "\n")
    print(json.dumps(result), flush=True)
    return 0 if result["correct"] else 1


def run_all(args) -> int:
    """Each workload in its own process, so each has its own peak RSS."""
    summary, code = {}, 0
    for name in NAMES:
        argv = [sys.executable, str(Path(__file__).resolve()), "--workload", name,
                "--seed", str(args.seed), "--seconds", str(args.seconds),
                "--trace", str(args.trace), "--size", args.size]
        proc = subprocess.run(argv, capture_output=True, text=True, cwd=ROOT)
        sys.stdout.write(proc.stdout)
        sys.stderr.write(proc.stderr)
        lines = proc.stdout.strip().splitlines()
        summary[name] = json.loads(lines[-1]) if proc.returncode in (0, 1) and lines else None
        code = code or proc.returncode
    print(json.dumps({"workloads": summary}))
    return code


def main(argv=None) -> int:
    args = parse_args(argv)
    return run_all(args) if args.workload == "all" else run_one(args)


if __name__ == "__main__":
    sys.exit(main())
