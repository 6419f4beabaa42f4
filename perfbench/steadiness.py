#!/usr/bin/env python3
"""Steadiness record: repeated untraced runs of every workload, one seed each.

    python3 perfbench/steadiness.py [--sets 2] [--runs 10] [--workloads a,b]
                                    [--out perfbench/steadiness.json]

Each set runs every workload ``--runs`` times through ``run.py``, each run
with another seed (set k uses seeds 1000*k + 1 ... 1000*k + runs). For every
end-to-end metric it reports the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them) and the spread
(Q3 - Q1) / median; per run it keeps cpu-s / wall-s, the number of rounds and
the shortest round. With two or more sets it compares each set's median with
the first set's. Spreads and shifts are checked against the bounds in
BENCHMARK.json (``setup_s`` is only held to the median shift); a shift fails
in either direction, since two sets of the same code must agree. The exit
code is 1 when any check fails.
"""

import argparse
import json
import re
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=ROOT, capture_output=True, text=True, check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"steadiness: {workload} seed {seed} failed "
                         f"(exit {proc.returncode}):\n{proc.stderr[-2000:]}")
    result = json.loads(lines[-1])
    rounds = [float(m.group(1)) for m in re.finditer(r"^round: wall ([0-9.]+) s", proc.stdout,
                                                     re.M)]
    ratio = re.search(r"cpu_s/wall_s ([0-9.]+)", proc.stdout)
    return {
        "seed": seed,
        "correct": result["correct"],
        "attempted": result["attempted"],
        "failed": result["failed"],
        "metrics": {k: v["value"] for k, v in result["metrics"].items()},
        "rounds": len(rounds),
        "shortest_round_s": min(rounds),
        "cpu_per_wall": float(ratio.group(1)) if ratio else None,
    }


def describe(values: list) -> dict:
    q1, q2, q3 = statistics.quantiles(values, n=4)
    return {"median": q2, "q1": q1, "q3": q3, "spread": (q3 - q1) / q2 if q2 else None,
            "values": values}


def main() -> int:
    bench = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--sets", type=int, default=2)
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--workloads", default=",".join(w["name"] for w in bench["workloads"]))
    parser.add_argument("--seconds", type=float, default=bench["run_seconds"])
    parser.add_argument("--out", type=Path, default=HERE / "steadiness.json")
    args = parser.parse_args()

    bounds = {m["name"]: m["bound"] for m in bench["end_to_end"]}
    record = {"run_seconds": args.seconds, "runs_per_set": args.runs, "workloads": {}}
    ok = True
    for workload in args.workloads.split(","):
        sets = []
        for k in range(1, args.sets + 1):
            runs = [run_once(workload, 1000 * k + i, args.seconds)
                    for i in range(1, args.runs + 1)]
            stats = {name: describe([r["metrics"][name] for r in runs]) for name in bounds}
            sets.append({"runs": runs, "metrics": stats})
            for r in runs:
                ok &= r["correct"] and r["failed"] == 0
            for name, bound in bounds.items():
                s = stats[name]
                if name != "setup_s" and s["spread"] is not None and s["spread"] > bound:
                    ok = False
                print(f"{workload:18s} set {k} {name:12s} median {s['median']:.6g} "
                      f"q1 {s['q1']:.6g} q3 {s['q3']:.6g} spread {s['spread']:.4f} "
                      f"(bound {bound}, target < {bound / 3:.4f})", flush=True)
            print(f"{workload:18s} set {k} cpu/wall "
                  f"{min(r['cpu_per_wall'] for r in runs):.4f}-"
                  f"{max(r['cpu_per_wall'] for r in runs):.4f}, rounds "
                  f"{min(r['rounds'] for r in runs)}-{max(r['rounds'] for r in runs)}, "
                  f"shortest round {min(r['shortest_round_s'] for r in runs):.3f} s",
                  flush=True)
        shifts = {}
        for name, bound in bounds.items():
            first = sets[0]["metrics"][name]["median"]
            shifts[name] = [s["metrics"][name]["median"] / first - 1.0 for s in sets[1:]]
            for shift in shifts[name]:
                if abs(shift) > bound:
                    ok = False
                print(f"{workload:18s} {name:12s} median shift vs set 1: {shift:+.4f} "
                      f"(bound {bound})", flush=True)
        record["workloads"][workload] = {"sets": sets, "median_shift_vs_set1": shifts}
    args.out.write_text(json.dumps(record, indent=1) + "\n")
    print(f"steadiness: {'ok' if ok else 'FAILED'}; record written to {args.out}")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
