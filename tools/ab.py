"""Alternating parent/change runs of the benchmark, written as a BENCH file.

    python3 tools/ab.py PARENT CHANGE --out BENCH_<n>.json \\
        [--workloads W ...] [--seeds S ...] [--seconds 5] \\
        [--change "what the change does"] [--claim WORKLOAD:METRIC]

PARENT and CHANGE are two checkouts of the repository, each run from its
own root. For every workload and seed the tool runs

    python3 perfbench/run.py --workload W --seed S --seconds T --trace 0

once in each checkout: the parent first on even seeds, the change first on
odd ones, so that neither side always runs on a warmer or a busier host.
It reads each run's last line of output (correct, failed operations and
the end-to-end metrics) and writes, per workload and metric of the
change's BENCHMARK.json, each side's runs, median and quartiles, the pairs
the change won (ties count for neither side), the change of the median,
the parent's interquartile range, and whether the difference is resolved:
one side won at least nine tenths of the pairs and the medians differ by
more than the parent's interquartile range.

Workloads default to every workload of the change's BENCHMARK.json, seeds
to 0 .. 9. Exit code 1 means some run was not correct.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

WIN_SHARE = 0.9
COMMAND = ("python3 perfbench/run.py --workload W --seed S --seconds {seconds} "
           "--trace 0")


def quartiles(values) -> dict:
    """q1, median and q3, interpolated linearly between order statistics
    (numpy's default percentile)."""
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return {"q1": q1, "median": median, "q3": q3}


def compare(parent: list[float], change: list[float], better: str,
            unit: str) -> dict:
    """The summary of one metric on one workload from its paired runs:
    parent[i] and change[i] ran as pair i."""
    if len(parent) != len(change) or len(parent) < 2:
        raise ValueError("need two or more pairs, one value per side each")
    sign = 1.0 if better == "lower" else -1.0
    change_won = sum(sign * (c - p) < 0.0 for p, c in zip(parent, change))
    parent_won = sum(sign * (c - p) > 0.0 for p, c in zip(parent, change))
    p, c = quartiles(parent), quartiles(change)
    iqr = p["q3"] - p["q1"]
    gap = abs(c["median"] - p["median"])
    return {
        "unit": unit, "parent": p, "change": c,
        "change_won": change_won, "pairs": len(parent),
        "median_change_pct": 100.0 * (c["median"] / p["median"] - 1.0),
        "parent_iqr": iqr,
        "resolved": (max(change_won, parent_won) >= WIN_SHARE * len(parent)
                     and gap > iqr),
        "parent_runs": list(parent), "change_runs": list(change),
    }


def last_json(output: str) -> dict:
    """The run's result: the JSON object on its last line of output."""
    lines = output.strip().splitlines()
    if not lines:
        raise ValueError("the run printed nothing")
    return json.loads(lines[-1])


def environment_of(output: str) -> dict | None:
    """The JSON object of the run's "environment" line, if it printed one."""
    for line in output.splitlines():
        if line.startswith("environment "):
            return json.loads(line[len("environment "):])
    return None


def run_once(checkout: Path, workload: str, seed: int,
             seconds: float) -> tuple[dict, str]:
    """(result, output) of one benchmark run in checkout."""
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", str(seed), "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, check=False)
    if done.returncode != 0:
        raise RuntimeError(f"{checkout}: {workload} seed {seed} exited "
                           f"{done.returncode}: {done.stderr.strip()}")
    return last_json(done.stdout), done.stdout


def summarize(runs: dict, metrics: list[dict]) -> dict:
    """Per workload, the pair count and compare() of each metric. runs maps
    a workload to its list of (parent result, change result) pairs."""
    out = {}
    for workload, pairs in runs.items():
        entry = {"pairs": len(pairs)}
        for m in metrics:
            name = m["name"]
            entry[name] = compare(
                [p["metrics"][name]["value"] for p, _ in pairs],
                [c["metrics"][name]["value"] for _, c in pairs],
                m["better"], m["unit"])
        out[workload] = entry
    return out


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("parent", type=Path)
    ap.add_argument("change", type=Path)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--workloads", nargs="+")
    ap.add_argument("--seeds", nargs="+", type=int, default=list(range(10)))
    ap.add_argument("--seconds", type=float, default=5.0)
    ap.add_argument("--change", dest="change_text", default="",
                    help="what the change does")
    ap.add_argument("--claim", help="WORKLOAD:METRIC the change claims")
    return ap.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics = spec["end_to_end"]
    workloads = args.workloads or [w["name"] for w in spec["workloads"]]
    runs = {w: [] for w in workloads}
    environment, correct, failed = None, True, 0
    for workload in workloads:
        for seed in args.seeds:
            sides = [args.parent, args.change]
            if seed % 2:
                sides.reverse()
            result = {}
            for side in sides:
                result[side], output = run_once(side, workload, seed,
                                                args.seconds)
                environment = environment or environment_of(output)
                correct = correct and result[side]["correct"]
                failed += result[side]["failed"]
                print(f"{workload} seed {seed} "
                      f"{'parent' if side is args.parent else 'change'}: "
                      + ", ".join(f"{k} {v['value']:.6g}" for k, v in
                                  result[side]["metrics"].items()),
                      flush=True)
            runs[workload].append((result[args.parent], result[args.change]))
    bench = {
        "change": args.change_text,
        "command": COMMAND.format(seconds=args.seconds),
        "pairs": ("one parent run and one change run per seed and workload; "
                  "the parent ran first on even seeds, the change on odd "
                  "ones"),
        "environment": environment,
        "seeds": args.seeds,
        "correct": correct,
        "failed_operations": failed,
        "workloads": summarize(runs, metrics),
    }
    if args.claim:
        workload, metric = args.claim.split(":")
        better = {m["name"]: m["better"] for m in metrics}[metric]
        bench["claimed"] = {"workload": workload, "metric": metric,
                            "better": better}
    args.out.write_text(json.dumps(bench, indent=1) + "\n")
    return 0 if correct and not failed else 1


if __name__ == "__main__":
    sys.exit(main())
