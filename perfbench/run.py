"""The msu benchmark: one workload, asked in a closed loop in one process.

    python3 perfbench/run.py --workload axioms --seed 1 --seconds 20 --trace 0

Run from the root of a checkout; msu is imported from its src/ directory.
Set-up (timed as setup_s) is importing msu and msu.cli, then loading the
workload's generated input files through msu.io.  The timed part asks the
workload's questions one at a time, in whole passes over the fixed list,
until the summed question time reaches --seconds.  Answers of the first
pass are checked against computations made apart from msu; every later
pass must repeat them exactly.  The last line of stdout is one JSON
object: correct, attempted, failed and the metrics (end-to-end ones with
--trace 0, per-layer ones with --trace 1).
"""

import importlib
import os
import sys
import time

HERE = os.path.dirname(os.path.abspath(__file__))
SRC = os.path.join(os.path.dirname(HERE), "src")


def main() -> int:
    # Nothing msu imports is loaded before this point, so the import is cold.
    t0 = time.perf_counter()
    sys.path.insert(0, SRC)
    try:
        msu = importlib.import_module("msu")
        importlib.import_module("msu.cli")
    except ImportError as exc:
        print(f"cannot import msu from {SRC}: {exc}", file=sys.stderr)
        return 2
    import_s = time.perf_counter() - t0
    if not os.path.abspath(msu.__file__).startswith(SRC + os.sep):
        print(f"msu came from {msu.__file__}, not from {SRC}", file=sys.stderr)
        return 2

    import argparse
    import json
    import resource
    import shutil
    import statistics

    sys.path.insert(0, HERE)
    import workloads
    from spans import Tracer

    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    plan, build = workloads.GENERATORS[args.workload](args.seed)
    out_dir = os.path.join(HERE, "out")
    work = os.path.join(out_dir, f"inputs-{args.workload}-{args.seed}-{os.getpid()}")
    os.makedirs(work, exist_ok=True)
    try:
        for name, obj in plan.files.items():
            with open(os.path.join(work, name), "w", encoding="utf-8") as fh:
                json.dump(obj, fh)
        t1 = time.perf_counter()
        loaded = workloads.load(msu, plan, work)
        setup_s = import_s + time.perf_counter() - t1
        questions = build(loaded, work)

        if args.trace:
            plain = ask(msu, questions, args.seconds / 2)
            tracer = Tracer(msu)
            tracer.install()
            try:
                traced = ask(msu, questions, args.seconds / 2, first=plain.first)
            finally:
                tracer.uninstall()
            loops = [plain, traced]
        else:
            loops = [ask(msu, questions, args.seconds)]
        peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024

        first = loops[0].first
        failing = []
        for q, ans in zip(questions, first):
            try:
                q.check(ans)
            except Exception as exc:  # a check that crashes rejects the answer too
                failing.append(q)
                note = "known fault" if q.known_fault else "WRONG"
                print(f"{note}: {q.group}: {type(exc).__name__}: {exc}", file=sys.stderr)
        unstable = sum(loop.unstable for loop in loops)
        if unstable:
            print(f"WRONG: {unstable} answers changed between passes", file=sys.stderr)
        correct = unstable == 0 and all(q.known_fault for q in failing)
        passes = sum(loop.passes for loop in loops)

        if args.trace:
            metrics = tracer.metrics(traced.passes)
            metrics["trace.overhead_ratio"] = (plain.rate() / traced.rate(), "ratio")
            metrics["cli.process_start_ms"] = (process_start_ms(), "ms")
            os.makedirs(os.path.join(out_dir, "traces"), exist_ok=True)
            tracer.write(os.path.join(out_dir, "traces", f"{args.workload}-{args.seed}.json"))
        else:
            (loop,) = loops
            lat = sorted(loop.latencies)
            metrics = {
                "questions_per_s": (loop.rate(), "1/s"),
                "question_p50_ms": (statistics.median(lat) / 1e6, "ms"),
                "question_p90_ms": (statistics.quantiles(lat, n=10)[8] / 1e6, "ms"),
                "cli_p50_ms": (statistics.median(loop.cli_latencies) / 1e6, "ms"),
                "setup_s": (setup_s, "s"),
                "peak_rss_mb": (peak_rss_mb, "MB"),
            }
    finally:
        shutil.rmtree(work, ignore_errors=True)

    print(f"{args.workload} seed {args.seed}: {passes} passes of {len(questions)} questions",
          file=sys.stderr)
    print(json.dumps({
        "correct": correct,
        "attempted": passes * len(questions),
        "failed": passes * len(failing),
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }))
    return 0


class Loop:
    def __init__(self):
        self.latencies: list[int] = []  # ns, one per question asked
        self.cli_latencies: list[int] = []
        self.passes = 0
        self.busy_ns = 0
        self.first = None  # answers of the first pass
        self.unstable = 0  # later answers that differ from the first pass

    def rate(self) -> float:
        return len(self.latencies) / (self.busy_ns / 1e9)


def same_answer(a, b) -> bool:
    if isinstance(a, BaseException) or isinstance(b, BaseException):
        return type(a) is type(b) and str(a) == str(b)
    return a == b


def ask(msu, questions, seconds, first=None) -> Loop:
    """Closed loop: whole passes until the summed question time reaches seconds."""
    clock = time.perf_counter_ns
    loop = Loop()
    loop.first = first
    limit = seconds * 1e9
    while loop.busy_ns < limit:
        ctx = {}
        answers = []
        for q in questions:
            t0 = clock()
            try:
                ans = q.call(msu, ctx)
            except Exception as exc:  # an error is an answer; its check judges it
                ans = exc
            dt = clock() - t0
            answers.append(ans)
            loop.latencies.append(dt)
            if q.cli:
                loop.cli_latencies.append(dt)
            loop.busy_ns += dt
        loop.passes += 1
        if loop.first is None:
            loop.first = answers
        else:
            loop.unstable += sum(not same_answer(a, b) for a, b in zip(loop.first, answers))
    return loop


def process_start_ms(runs=5) -> float:
    """Median wall time of a fresh interpreter that imports msu (reference only)."""
    import statistics
    import subprocess

    code = f"import sys; sys.path.insert(0, {SRC!r}); import msu"
    times = []
    for _ in range(runs):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code], check=True)
        times.append((time.perf_counter() - t0) * 1000)
    return statistics.median(times)


if __name__ == "__main__":
    sys.exit(main())
