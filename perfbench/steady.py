"""Steadiness of the benchmark: run each workload once per seed and report,
for every end-to-end metric, the median, the quartiles and their spread
as a share of the median, against the metric's bound.

    python3 perfbench/steady.py --seeds 1-10 --out .perfbench/steady-a.json
    python3 perfbench/steady.py --compare .perfbench/steady-a.json .perfbench/steady-b.json

Runs are made one at a time, each in its own process. ``--compare``
checks a second set of runs against a first: every median may be worse
by at most the metric's bound, and the share of failed operations must
be the same.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def collect(seeds: list[int], out: Path) -> dict:
    results: dict[str, list[dict]] = {w["name"]: [] for w in SPEC["workloads"]}
    for workload in results:
        for seed in seeds:
            cmd = SPEC["command"] + ["--workload", workload, "--seed", str(seed),
                                     "--seconds", str(SPEC["run_seconds"]), "--trace", "0"]
            proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
            if proc.returncode != 0:
                sys.stderr.write(proc.stderr)
                raise SystemExit(f"{workload} seed {seed}: exit {proc.returncode}")
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["seed"] = seed
            result["rounds"] = [float(line.split()[-2]) for line in proc.stderr.splitlines()
                                if line.startswith("round ")]
            results[workload].append(result)
            print(f"{workload} seed {seed}: correct={result['correct']} "
                  + " ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items()), flush=True)
            out.parent.mkdir(parents=True, exist_ok=True)
            out.write_text(json.dumps(results, indent=1), encoding="utf-8")
    return results


def summarize(results: dict) -> dict:
    """Per workload and metric: median, q1, q3 and (q3 - q1) / median."""
    summary = {}
    for workload, runs in results.items():
        rows = {}
        for metric in SPEC["end_to_end"]:
            values = [r["metrics"][metric["name"]]["value"] for r in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            rows[metric["name"]] = {"median": median, "q1": q1, "q3": q3,
                                    "spread": (q3 - q1) / median, "bound": metric["bound"]}
        summary[workload] = {"metrics": rows, "runs": len(runs),
                             "correct": all(r["correct"] for r in runs),
                             "failed_share": [r["failed"] / r["attempted"] for r in runs]}
    return summary


def print_summary(summary: dict) -> bool:
    ok = True
    for workload, s in summary.items():
        print(f"\n{workload}: {s['runs']} runs, all correct: {s['correct']}, "
              f"failed share: {sorted(set(s['failed_share']))}")
        print(f"  {'metric':<18}{'median':>14}{'q1':>14}{'q3':>14}{'spread':>9}{'bound':>7}")
        for name, row in s["metrics"].items():
            flag = "" if row["spread"] <= row["bound"] / 3 else (" > bound/3" if row["spread"] <= row["bound"] else " > BOUND")
            ok &= row["spread"] <= row["bound"]
            print(f"  {name:<18}{row['median']:>14.6g}{row['q1']:>14.6g}{row['q3']:>14.6g}"
                  f"{row['spread']:>9.4f}{row['bound']:>7}{flag}")
    return ok


def compare(first: dict, second: dict) -> bool:
    """Second set against the first: no median worse by more than its bound,
    and the same failed share."""
    better = {m["name"]: m["better"] for m in SPEC["end_to_end"]}
    ok = True
    a, b = summarize(first), summarize(second)
    for workload in a:
        print(f"\n{workload}")
        for name, row in a[workload]["metrics"].items():
            m1, m2 = row["median"], b[workload]["metrics"][name]["median"]
            worse = (m2 - m1) / m1 if better[name] == "lower" else (m1 - m2) / m1
            flag = "ok" if worse <= row["bound"] else "WORSE THAN BOUND"
            ok &= worse <= row["bound"]
            print(f"  {name:<18}{m1:>14.6g}{m2:>14.6g}  worse by {worse:+.4f} (bound {row['bound']}) {flag}")
        same = sorted(set(a[workload]["failed_share"])) == sorted(set(b[workload]["failed_share"]))
        ok &= same
        print(f"  failed share equal: {same}")
    return ok


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="steadiness of the opdense benchmark")
    parser.add_argument("--seeds", default="1-10", help="inclusive range, e.g. 1-10")
    parser.add_argument("--out", type=Path, default=ROOT / ".perfbench" / "steady.json")
    parser.add_argument("--compare", nargs=2, type=Path, metavar=("FIRST", "SECOND"))
    args = parser.parse_args(argv)
    if args.compare:
        first, second = (json.loads(p.read_text(encoding="utf-8")) for p in args.compare)
        return 0 if compare(first, second) else 1
    results = collect(_seeds(args.seeds), args.out)
    return 0 if print_summary(summarize(results)) else 1


if __name__ == "__main__":
    raise SystemExit(main())
