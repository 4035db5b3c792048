"""Steadiness check: repeat one workload over several seeds.

    python3 perfbench/steady.py --workload cut_deep --runs 10 --first-seed 100

Runs ``run.py`` once per seed, one run at a time, and prints each
end-to-end metric's median, its quartile spread ((Q3 - Q1) / median, from
``statistics.quantiles(values, n=4)``) and its bound from BENCHMARK.json.
A spread above a third of the bound is marked.  ``--out`` appends every
run's result line to a file, so two sets of runs can be compared with
``--compare``.
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


def spread(values: list[float]) -> float:
    q1, _, q3 = statistics.quantiles(values, n=4)
    return (q3 - q1) / statistics.median(values)


def one_run(workload: str, seed: int, seconds: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", "0"]
    out = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
    if out.returncode != 0:
        raise RuntimeError(f"seed {seed}: exit {out.returncode}\n{out.stderr}")
    result = json.loads(out.stdout.strip().splitlines()[-1])
    result["workload"], result["seed"] = workload, seed
    return result


def report(results: list[dict], spec: dict) -> None:
    for m in spec["end_to_end"]:
        values = [r["metrics"][m["name"]]["value"] for r in results]
        s = spread(values)
        flag = "" if s <= m["bound"] / 3 else "  <-- above bound/3"
        print(f"  {m['name']:<12} median {statistics.median(values):>11.5g} {m['unit']:<6} "
              f"spread {s:6.3f}  bound {m['bound']}{flag}")
    bad = [r["seed"] for r in results if not r["correct"]]
    print(f"  runs {len(results)}, incorrect seeds {bad}")


def compare(first: list[dict], second: list[dict], spec: dict) -> None:
    """Second set's median against the first's, as a share of the first."""
    for m in spec["end_to_end"]:
        a = statistics.median(r["metrics"][m["name"]]["value"] for r in first)
        b = statistics.median(r["metrics"][m["name"]]["value"] for r in second)
        worse = (b - a) / a if m["better"] == "lower" else (a - b) / a
        flag = "" if worse <= m["bound"] else "  <-- worse than bound"
        print(f"  {m['name']:<12} {a:>11.5g} -> {b:>11.5g}  worse by {worse:+.3f}  bound {m['bound']}{flag}")


def load(path: str) -> dict[str, list[dict]]:
    by_workload: dict[str, list[dict]] = {}
    for line in Path(path).read_text().splitlines():
        r = json.loads(line)
        by_workload.setdefault(r["workload"], []).append(r)
    return by_workload


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", action="append", help="repeatable; default all")
    ap.add_argument("--runs", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--out", help="append result lines to this file")
    ap.add_argument("--compare", nargs=2, metavar="FILE", help="compare two --out files")
    args = ap.parse_args()

    if args.compare:
        first, second = (load(p) for p in args.compare)
        for w in first:
            print(w)
            compare(first[w], second[w], spec)
        return
    for w in args.workload or [x["name"] for x in spec["workloads"]]:
        results = []
        for seed in range(args.first_seed, args.first_seed + args.runs):
            r = one_run(w, seed, args.seconds)
            results.append(r)
            if args.out:
                with open(args.out, "a") as f:
                    f.write(json.dumps(r) + "\n")
        print(w)
        report(results, spec)


if __name__ == "__main__":
    main()
