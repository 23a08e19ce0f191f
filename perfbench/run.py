"""opdense benchmark: one workload, one process, one JSON result line.

    python3 perfbench/run.py --workload triage|train|select --seed N --seconds S --trace 0|1

Run from the root of a source checkout; the library is imported from its
``src/`` directory. The timed phase repeats whole rounds of the workload
until ``--seconds`` of rounds are used up and reports the wall time of
its fastest round. Set-up runs seven times, once before the first round
and the others spread between the rounds, and reports the fastest. With
``--trace 1`` the rounds alternate untraced and traced, and the
per-layer metrics come from the spans of the last set-up, which is
traced, and of the first traced round.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import resource
import shutil
import statistics
import sys
import time
import traceback
from pathlib import Path

BLAS_THREADS = "1"  # one thread: BLAS calls here are small and threads add run-to-run noise
ROOT = Path(__file__).resolve().parent.parent
SETUP_REPEATS = 7


def _import_library():
    if not (ROOT / "src" / "opdense" / "__init__.py").is_file():
        raise SystemExit(f"error: no opdense sources under {ROOT / 'src'}; run from a source checkout")
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = BLAS_THREADS
    sys.path.insert(0, str(ROOT / "src"))
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    import opdense
    if Path(opdense.__file__).resolve().parent != ROOT / "src" / "opdense":
        raise SystemExit(f"error: imported opdense from {opdense.__file__}, not from {ROOT / 'src'}")


def _rounds(workload, seconds: float, tracer, before_round):
    """Run whole rounds until ``seconds`` is about used up, checking each
    round that runs to its end. ``before_round(elapsed)`` is called before
    each round; its time does not count. Returns the round times
    (untraced, traced), the counts, the problems the checks found, and the
    results of the last round that ran to its end (None if none did)."""
    untraced, traced = [], []
    attempted = failed = 0
    problems: list[str] = []
    results = None
    start = time.perf_counter()
    paused = 0.0
    while True:
        t0 = time.perf_counter()
        before_round(t0 - start - paused)
        paused += time.perf_counter() - t0
        use_trace = tracer is not None and len(traced) <= len(untraced)
        if use_trace:
            tracer.run = len(traced) + 1
            tracer.install()
        workload.done = 0
        out = None  # drop the previous round's outputs before the next one
        gc.collect()
        t0 = time.perf_counter()
        try:
            out = workload.run_round()
        except Exception:  # a failing library call fails the rest of its round
            traceback.print_exc(file=sys.stderr)
            failed += workload.ops_per_round - workload.done
        else:
            if workload.done != workload.ops_per_round:
                raise RuntimeError(f"a round made {workload.done} library calls, not {workload.ops_per_round}")
        finally:
            elapsed = time.perf_counter() - t0
            if use_trace:
                tracer.uninstall()
        (traced if use_trace else untraced).append(elapsed)
        print(f"round {len(untraced) + len(traced)}{' traced' if use_trace else ''}: {elapsed:.4f} s",
              file=sys.stderr)
        attempted += workload.ops_per_round
        if out is not None:
            problems += [p for p in workload.check(out) if p not in problems]
            results = workload.results(out)
        rounds = untraced + traced
        total = time.perf_counter() - start - paused
        if total + 0.5 * statistics.median(rounds) >= seconds and untraced and (tracer is None or traced):
            return untraced, traced, attempted, failed, problems, results


def run(name: str, seed: int, seconds: float, trace: bool, size=None, work: Path | None = None) -> dict:
    """One run of a workload; ``work`` is its scratch directory, removed at the end."""
    from tracing import Tracer, layer_metrics
    from workloads import WORKLOADS

    cls, default_size = WORKLOADS[name]
    work = work or ROOT / ".perfbench" / f"work-{name}-{os.getpid()}"
    workload = cls(seed, size or default_size)
    tracer = Tracer() if trace else None
    try:
        setups = []

        def set_up():
            last_setup = tracer is not None and len(setups) == SETUP_REPEATS - 1
            if last_setup:
                tracer.run = 0
                tracer.install()
            t0 = time.perf_counter()
            try:
                workload.setup(work / "setup")
            finally:
                setups.append(time.perf_counter() - t0)
                print(f"set-up {len(setups)}: {setups[-1]:.4f} s", file=sys.stderr)
                if last_setup:
                    tracer.uninstall()

        def before_round(elapsed):
            # spread the set-ups over the run: the reference machine's CPU
            # speed drifts over tens of seconds, so set-ups made in one burst
            # all sample the same moment
            while len(setups) < SETUP_REPEATS and elapsed >= len(setups) * seconds / SETUP_REPEATS:
                set_up()

        set_up()
        untraced, traced, attempted, failed, problems, results = _rounds(workload, seconds, tracer, before_round)
        while len(setups) < SETUP_REPEATS:
            set_up()
        if results is None:
            problems.append("no round ran to its end, so no output could be checked")
        for problem in problems:
            print(f"check failed: {problem}", file=sys.stderr)
        spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
        declared = spec["per_layer"] if trace else spec["end_to_end"]
        if trace:
            metrics = layer_metrics(tracer.spans, {0, 1})
            metrics["trace.overhead_s"] = min(traced) - min(untraced)
            metrics["trace.spans"] = len(tracer.spans)
            tracer.write(work.parent / f"trace-{name}-seed{seed}.jsonl")
        else:
            # the shared virtual CPU runs two to three times slower for
            # stretches of seconds to minutes, and a round or a set-up sits in
            # one state, so their median and mean jump with the share of slow
            # ones. The slowdown only ever adds time, so the fastest round and
            # the fastest set-up are the ones that measure the program.
            metrics = {"setup_s": min(setups), "run_s": min(untraced),
                       "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0}
            if results is not None:
                metrics.update(results)
        if results is not None and set(metrics) != {m["name"] for m in declared}:
            raise RuntimeError(f"metrics {sorted(metrics)} do not match BENCHMARK.json")
        return {"correct": not problems, "attempted": attempted, "failed": failed,
                "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                            for m in declared if m["name"] in metrics}}
    finally:
        shutil.rmtree(work, ignore_errors=True)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=("triage", "train", "select"))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    _import_library()
    result = run(args.workload, args.seed, args.seconds, bool(args.trace))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
