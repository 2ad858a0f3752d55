"""Record the benchmark's baseline: run-to-run spread, repeatability, held-out seed.

    python3 perfbench/baseline.py --out perfbench/baseline.json

For every workload of BENCHMARK.json it makes two sets of untraced runs
(``run.py --trace 0``) over seeds 0-9, one run after the other and the
second set after the first has finished on every workload.  For each set and
end-to-end metric it reports the values, median, quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and spread, the distance
between the quartiles over the median; and for each metric how far the second
median moved from the first, in the direction BENCHMARK.json calls worse,
next to the metric's bound.  It then makes one untraced run at the held-out
seed 1000 and two traced runs at seed 0, and records whether the traced runs'
work counts repeat exactly.  Nothing here is needed by run.py.
"""
from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
BENCH = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in BENCH["workloads"]]
SEEDS = list(range(10))
SETS = 2
HELD_OUT_SEED = 1000
TRACED_RUNS = 2
# per-layer units whose values are work counts, not timings
COUNT_UNITS = ("count", "MiB", "1/level")


def run_once(workload: str, seed: int, trace: int) -> tuple[dict, dict]:
    cmd = [sys.executable, *BENCH["command"][1:], "--workload", workload, "--seed", str(seed),
           "--seconds", str(BENCH["run_seconds"]), "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900)
    if proc.returncode != 0:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}: {proc.stderr[-2000:]}")
    record, result = (json.loads(line) for line in proc.stdout.splitlines()[-2:])
    print(f"{workload} seed {seed} trace {trace}: " + json.dumps(result),
          file=sys.stderr, flush=True)
    return record, result


def spread(values: list[float]) -> dict:
    q1, _, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"values": values, "median": median, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / median}


def summarise_set(results: list[dict]) -> dict:
    return {"seeds": SEEDS, "all_correct": all(r["correct"] for r in results),
            "attempted": sum(r["attempted"] for r in results),
            "failed": sum(r["failed"] for r in results),
            "end_to_end": {m["name"]: spread([r["metrics"][m["name"]]["value"] for r in results])
                           for m in BENCH["end_to_end"]}}


def drift(sets: list[dict]) -> dict:
    """How much worse the second set's median is than the first's, per metric."""
    out = {}
    for metric in BENCH["end_to_end"]:
        first, second = (s["end_to_end"][metric["name"]]["median"] for s in sets)
        worse = (second - first) / first
        if metric["better"] == "higher":
            worse = -worse
        out[metric["name"]] = {"worse_by": worse, "bound": metric["bound"],
                               "within": worse <= metric["bound"]}
    return out


def traced(workload: str) -> dict:
    runs = [run_once(workload, SEEDS[0], 1)[1] for _ in range(TRACED_RUNS)]
    counts = [{name: m["value"] for name, m in r["metrics"].items() if m["unit"] in COUNT_UNITS}
              for r in runs]
    return {"seed": SEEDS[0], "all_correct": all(r["correct"] for r in runs),
            "counts_repeat": all(c == counts[0] for c in counts),
            "metrics": [{k: v["value"] for k, v in r["metrics"].items()} for r in runs]}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--out", required=True)
    args = parser.parse_args(argv)
    env = None
    sets = {w: [] for w in WORKLOADS}
    for _ in range(SETS):
        for workload in WORKLOADS:
            results = []
            for seed in SEEDS:
                record, result = run_once(workload, seed, 0)
                env = record["environment"]
                results.append(result)
            sets[workload].append(summarise_set(results))
    summary = {}
    for workload in WORKLOADS:
        held_out = run_once(workload, HELD_OUT_SEED, 0)[1]
        summary[workload] = {"sets": sets[workload], "drift": drift(sets[workload]),
                             "held_out": {"seed": HELD_OUT_SEED, **held_out},
                             "traced": traced(workload)}
    doc = {"run_seconds": BENCH["run_seconds"], "environment": env, "workloads": summary}
    Path(args.out).write_text(json.dumps(doc, indent=1) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
