"""Reference figures: repeated runs of every workload, plus one traced run each.

    python3 bench/reference.py                 # 10 seeds, every workload
    python3 bench/reference.py --seeds 5 --workloads interim_boundaries --no-trace

Runs ``bench/run.py`` once per (seed, workload), seeds 1..N, workloads
interleaved, with the run length of ``BENCHMARK.json``.  For each
end-to-end metric it prints the median, the quartiles (``statistics.
quantiles(values, n=4)``) and their distance as a share of the median,
next to the metric's bound; then the per-layer metrics of one traced run
per workload.  Everything is also written to ``bench/out/reference.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent


def run(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [
        sys.executable, str(BENCH / "run.py"), "--workload", workload, "--seed", str(seed),
        "--seconds", str(seconds), "--trace", str(trace),
    ]
    start = time.monotonic()
    done = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=900, check=True)
    result = json.loads(done.stdout.strip().splitlines()[-1])
    result["wall_s"] = time.monotonic() - start
    return result


def main(argv=None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    names = [w["name"] for w in spec["workloads"]]
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--seeds", type=int, default=10)
    parser.add_argument("--first-seed", type=int, default=1)
    parser.add_argument("--workloads", default=",".join(names))
    parser.add_argument("--seconds", type=int, default=spec["run_seconds"])
    parser.add_argument("--no-trace", action="store_true")
    args = parser.parse_args(argv)
    workloads = args.workloads.split(",")
    seeds = range(args.first_seed, args.first_seed + args.seeds)
    runs: dict[str, list[dict]] = {w: [] for w in workloads}
    for seed in seeds:
        for w in workloads:
            res = run(w, seed, args.seconds, 0)
            runs[w].append(res)
            print(f"{w} seed {seed}: correct={res['correct']} attempted={res['attempted']} "
                  f"failed={res['failed']} wall={res['wall_s']:.1f}s", file=sys.stderr, flush=True)
    report = {"seconds": args.seconds, "seeds": list(seeds), "end_to_end": {}, "per_layer": {}}
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for w in workloads:
        print(f"\n{w}: {len(runs[w])} runs, all correct: {all(r['correct'] for r in runs[w])}, "
              f"failed/attempted: {sum(r['failed'] for r in runs[w])}/"
              f"{sum(r['attempted'] for r in runs[w])}")
        print("| metric | median | q1 | q3 | (q3-q1)/median | bound |")
        print("|---|---|---|---|---|---|")
        report["end_to_end"][w] = {}
        for name in bounds:
            values = [r["metrics"][name]["value"] for r in runs[w]]
            med = statistics.median(values)
            q1, _, q3 = statistics.quantiles(values, n=4) if len(values) > 1 else (med, med, med)
            spread = (q3 - q1) / med if med else float("nan")
            unit = runs[w][0]["metrics"][name]["unit"]
            report["end_to_end"][w][name] = {
                "values": values, "median": med, "q1": q1, "q3": q3, "spread": spread, "unit": unit,
            }
            print(f"| {name} ({unit}) | {med:.4g} | {q1:.4g} | {q3:.4g} | {spread:.3f} | "
                  f"{bounds[name]} |")
    if not args.no_trace:
        for w in workloads:
            res = run(w, args.first_seed, args.seconds, 1)
            report["per_layer"][w] = res["metrics"]
            print(f"\n{w}, traced, seed {args.first_seed}, per op:")
            for name, m in res["metrics"].items():
                print(f"  {name} = {m['value']:.4g} {m['unit']}")
    out = BENCH / "out"
    out.mkdir(exist_ok=True)
    (out / "reference.json").write_text(json.dumps(report, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
