"""Run-to-run spread of the end-to-end metrics.

Runs ``run.py`` once per (workload, seed), one process at a time and with
the workload order alternating between seeds, then prints for every
end-to-end metric the median of the runs and the quartile spread
``(q3 - q1) / median`` next to a third of the metric's bound::

    python3 perfbench/steadiness.py --seeds 1-10 --out runs.jsonl
    python3 perfbench/steadiness.py --compare runs_a.jsonl runs_b.jsonl

``--compare`` checks that the second set's median of every metric is not
worse than the first's by more than the bound.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())


def _seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def run_all(workloads: list[str], seeds: list[int], seconds: int, out: Path) -> None:
    with open(out, "a") as fh:
        for i, seed in enumerate(seeds):
            order = workloads if i % 2 == 0 else workloads[::-1]
            for name in order:
                cmd = [sys.executable, "perfbench/run.py", "--workload", name, "--seed", str(seed),
                       "--seconds", str(seconds), "--trace", "0"]
                proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=180)
                lines = proc.stdout.strip().splitlines()
                result = json.loads(lines[-1]) if lines else {}
                info = json.loads(lines[-2]).get("perfbench", {}) if len(lines) > 1 else {}
                row = {"workload": name, "seed": seed, "exit": proc.returncode, "result": result, "info": info}
                fh.write(json.dumps(row) + "\n")
                fh.flush()
                metrics = {k: v["value"] for k, v in result.get("metrics", {}).items()}
                print(name, seed, proc.returncode, metrics, flush=True)


def load(path: Path) -> dict:
    by_workload: dict = {}
    for line in path.read_text().splitlines():
        row = json.loads(line)
        for name, metric in row["result"].get("metrics", {}).items():
            by_workload.setdefault(row["workload"], {}).setdefault(name, []).append(metric["value"])
    return by_workload


def report(path: Path) -> None:
    for workload, metrics in sorted(load(path).items()):
        for spec in SPEC["end_to_end"]:
            values = metrics.get(spec["name"], [])
            if len(values) < 2:
                continue
            q1, _, q3 = statistics.quantiles(values, n=4)
            med = statistics.median(values)
            spread = (q3 - q1) / med
            flag = "ok" if spread < spec["bound"] / 3 else ("WITHIN BOUND" if spread <= spec["bound"] else "OVER")
            print(f"{workload:18s} {spec['name']:14s} n={len(values):2d} median={med:.6g} "
                  f"spread={spread:.3f} bound/3={spec['bound'] / 3:.3f} {flag}")


def compare(first: Path, second: Path) -> None:
    a, b = load(first), load(second)
    for workload in sorted(a):
        for spec in SPEC["end_to_end"]:
            m1 = statistics.median(a[workload][spec["name"]])
            m2 = statistics.median(b[workload][spec["name"]])
            worse = (m2 - m1) / m1 if spec["better"] == "lower" else (m1 - m2) / m1
            flag = "ok" if worse <= spec["bound"] else "WORSE"
            print(f"{workload:18s} {spec['name']:14s} {m1:.6g} -> {m2:.6g} worse_by={worse:+.3f} "
                  f"bound={spec['bound']} {flag}")


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="1-10")
    parser.add_argument("--workloads", default=",".join(w["name"] for w in SPEC["workloads"]))
    parser.add_argument("--seconds", type=int, default=SPEC["run_seconds"])
    parser.add_argument("--out", type=Path)
    parser.add_argument("--report", type=Path)
    parser.add_argument("--compare", type=Path, nargs=2)
    args = parser.parse_args()
    if args.compare:
        compare(*args.compare)
        return 0
    if args.out:
        run_all(args.workloads.split(","), _seeds(args.seeds), args.seconds, args.out)
    report(args.out or args.report)
    return 0


if __name__ == "__main__":
    sys.exit(main())
