"""Repeat benchmark runs over seeds and summarise their spread.

Usage, from the root of a checkout::

    python3 benchmarks/collect.py --seeds 1-10 [--workloads default,validate]
        [--trace 1] [--out benchmarks/BENCH_seed.json]

Runs ``benchmarks/run.py`` once per workload and seed, one run at a
time, with ``run_seconds`` from ``BENCHMARK.json``, and echoes each
run's metric table (every metric by name and unit, and the failed
operations). Then for every metric it prints the median of the runs,
the quartiles as ``statistics.quantiles(values, n=4)`` gives them, and
the spread ``(q3 - q1) / median`` next to the metric's bound, and the
same for the ungated median wall time and CPU slowness of the runs.
``--out`` adds the runs to a JSON file (records of earlier calls are
kept) and rewrites its summary.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
RUN_TIMEOUT_S = 900
# ungated figures of a run's record summarised next to its metrics
EXTRA = {"op_wall_s.p50": "s", "slowness.p50": "ratio"}


def seed_list(text):
    seeds = []
    for part in text.split(","):
        lo, _, hi = part.partition("-")
        seeds.extend(range(int(lo), int(hi or lo) + 1))
    return seeds


def one_run(workload, seed, seconds, trace):
    start = time.perf_counter()
    proc = subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds),
         "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, timeout=RUN_TIMEOUT_S,
        check=False)
    wall = time.perf_counter() - start
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(f"{workload} seed {seed} exited "
                           f"{proc.returncode}: {proc.stderr[-2000:]}")
    table = lines[:next(i for i, line in enumerate(lines)
                        if line.startswith("record: "))]
    record = json.loads(lines[len(table)][8:])
    record["result"] = json.loads(lines[-1])
    record["wall_s"] = wall
    return record, table


def summarise(runs, bounds):
    groups = {}
    for r in runs:
        groups.setdefault((r["workload"], r["trace"]), []).append(r)
    summary = {}
    for (workload, trace), group in sorted(groups.items()):
        block = {"runs": len(group),
                 "seeds": sorted(r["seed"] for r in group),
                 "all_correct": all(r["result"]["correct"] for r in group),
                 "wall_s_total": sum(r["wall_s"] for r in group),
                 "metrics": {}}
        figures = {name: m["unit"]
                   for name, m in group[0]["metrics"].items()}
        figures.update((n, u) for n, u in EXTRA.items()
                       if all(n in r["extra"] for r in group))
        for name, unit in figures.items():
            values = [r["metrics"][name]["value"] if name in r["metrics"]
                      else r["extra"][name] for r in group]
            median = statistics.median(values)
            entry = {"unit": unit, "median": median, "values": values}
            if len(values) >= 2:
                q1, _, q3 = statistics.quantiles(values, n=4)
                entry.update(q1=q1, q3=q3, spread=(
                    (q3 - q1) / median if median else None))
            if name in bounds:
                entry["bound"] = bounds[name]
            block["metrics"][name] = entry
        summary[f"{workload}/trace{trace}"] = block
    return summary


def print_summary(summary):
    for key, block in summary.items():
        print(f"{key}: {block['runs']} runs, correct={block['all_correct']}, "
              f"{block['wall_s_total']:.0f} s")
        for name, m in block["metrics"].items():
            spread = m.get("spread")
            bound = m.get("bound")
            flag = ""
            if spread is not None and bound:
                flag = "ok" if spread < bound / 3 else (
                    "WITHIN BOUND" if spread <= bound else "OVER BOUND")
            print(f"  {name:26s} median {m['median']:<12.6g} {m['unit']:6s}"
                  + (f" spread {spread:.4f}" if spread is not None else "")
                  + (f" bound {bound}" if bound else "") + f" {flag}")


def main(argv=None) -> int:
    parser = argparse.ArgumentParser()
    parser.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    parser.add_argument("--workloads")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--out")
    args = parser.parse_args(argv)

    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    names = (args.workloads.split(",") if args.workloads
             else [w["name"] for w in bench["workloads"]])
    seconds = bench["run_seconds"]
    out = Path(args.out) if args.out else None
    runs = []
    if out and out.exists():
        earlier = json.loads(out.read_text())
        if earlier["run_seconds"] != seconds:
            parser.error(f"{out} holds runs of {earlier['run_seconds']} s, "
                         f"BENCHMARK.json now says {seconds} s")
        runs = earlier["runs"]
    fresh = []
    for workload in names:
        for seed in args.seeds:
            record, table = one_run(workload, seed, seconds, args.trace)
            print("\n".join(table))
            print(f"  wall {record['wall_s']:.1f} s, "
                  f"correct={record['result']['correct']}", flush=True)
            fresh.append(record)
    print_summary(summarise(fresh, bounds))
    if out:
        runs.extend(fresh)
        out.write_text(json.dumps(
            {"run_seconds": seconds, "summary": summarise(runs, bounds),
             "runs": runs}, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
