"""Steadiness: two sets of benchmark runs of one commit, compared.

Usage: ``python3 perfbench/steadiness.py``

Each of the two sets runs every workload 10 times at ``BENCHMARK.json``'s
``run_seconds``, one seed per run, taking the workloads in turn (run 1 of
every workload, then run 2, ...).  Set 1 uses seeds 1-10 and set 2 seeds
101-110.  For every end-to-end metric of every workload it prints each
set's median and quartiles (``statistics.quantiles(values, n=4)``), the
spread (third minus first quartile over the median) and how far set 2's
median moved from set 1's.  It notes every spread beyond a third of the
metric's bound, and fails on any spread beyond the bound, any move beyond
the bound in either direction, any incorrect run, and any difference in
the share of failed operations between the sets.  Raw results are written
to ``.bench_build/perfbench/steadiness.json``.
"""

from __future__ import annotations

import json
import statistics
import subprocess
import sys

from workloads import BUILD, HERE, ROOT, WORKLOADS

RUNS = 10
SET_SEED_BASE = (1, 101)
OUT = BUILD / "steadiness.json"


def run_once(workload: str, seed: int, seconds: int) -> dict:
    done = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        stdout=subprocess.PIPE, text=True, check=True, timeout=900,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])


def summary(values: list) -> dict:
    q1, median, q3 = statistics.quantiles(values, n=4)
    median = statistics.median(values)
    return {"median": median, "q1": q1, "q3": q3, "spread": (q3 - q1) / median}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = bench["run_seconds"]
    bounds = {metric["name"]: metric["bound"] for metric in bench["end_to_end"]}

    raw: dict = {w: [[] for _ in SET_SEED_BASE] for w in WORKLOADS}
    for set_index, base in enumerate(SET_SEED_BASE):
        for run in range(RUNS):
            seed = base + run
            for workload in WORKLOADS:
                result = run_once(workload, seed, seconds)
                raw[workload][set_index].append({"seed": seed, **result})
                print(f"set {set_index + 1} {workload} seed {seed}: "
                      f"wall_s={result['metrics']['wall_s']['value']:.3f} "
                      f"failed={result['failed']}/{result['attempted']}", file=sys.stderr)
    OUT.parent.mkdir(parents=True, exist_ok=True)
    OUT.write_text(json.dumps(raw, indent=1), encoding="utf-8")

    problems = 0
    for workload in WORKLOADS:
        sets = raw[workload]
        shares = {
            sum(r["failed"] for r in runs) / sum(r["attempted"] for r in runs) for runs in sets
        }
        print(f"\n{workload}  failed share per set: {sorted(shares)}")
        problems += len(shares) != 1 or not all(r["correct"] for runs in sets for r in runs)
        print(f"  {'metric':<18} {'set':>3} {'median':>12} {'q1':>12} {'q3':>12} "
              f"{'spread':>7} {'bound':>6}")
        for name, bound in bounds.items():
            stats = [summary([r["metrics"][name]["value"] for r in runs]) for runs in sets]
            for index, stat in enumerate(stats):
                flag = ""
                if stat["spread"] > bound:
                    flag = "  SPREAD > BOUND"
                    problems += 1
                elif stat["spread"] > bound / 3:
                    flag = "  spread > bound/3"
                print(f"  {name:<18} {index + 1:>3} {stat['median']:>12.4f} {stat['q1']:>12.4f} "
                      f"{stat['q3']:>12.4f} {stat['spread']:>7.3f} {bound:>6.2f}{flag}")
            move = (stats[1]["median"] - stats[0]["median"]) / stats[0]["median"]
            flag = ""
            if abs(move) > bound:
                flag = "  MOVED MORE THAN BOUND"
                problems += 1
            print(f"  {name:<18} set 2 vs set 1 median: {move:+.3f}{flag}")
    print(f"\nraw results: {OUT}")
    return 1 if problems else 0


if __name__ == "__main__":
    sys.exit(main())
