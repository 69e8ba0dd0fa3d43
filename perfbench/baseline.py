"""Run the benchmark over several seeds and summarise it (from the repo root).

    python3 perfbench/baseline.py --seeds 1-10 --out perfbench/baseline.json

With BENCHMARK.json's run length, for each workload: one untraced run per
seed, each end-to-end metric's median and quartiles over the seeds with
the spread (q3 - q1) / median against the bound in BENCHMARK.json, and one
traced run (first seed) whose per-layer row is stored next to them.  Exits
1 if any run fails its answer checks or any spread other than
``setup_s``'s exceeds its bound.
"""

from __future__ import annotations

import argparse
import json
import platform
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(x) for x in text.split(",")]


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", str(trace)],
        cwd=ROOT, capture_output=True, text=True, check=False,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise SystemExit(f"{workload} seed {seed} failed (exit {proc.returncode}):\n{proc.stdout}\n{proc.stderr}")
    return json.loads(lines[-1])


def spread(values: list[float]) -> dict:
    q1, med, q3 = statistics.quantiles(values, n=4)
    return {"median": med, "q1": q1, "q3": q3, "spread": (q3 - q1) / med, "values": values}


def profile_claims(rows: dict) -> dict:
    """The ROADMAP's profile claims, checked against the traced rows."""
    out = {}
    for workload, row in rows.items():
        m = row["trace"]["metrics"]
        c7_share = m["verify.c7_s"] / m["verify.certificate_s"]
        out[workload] = {
            "c7_share_of_verify": c7_share,
            "c7_at_least_99pct_of_verify": c7_share >= 0.99,
            "build_core_s": m["covgraph.build_core_s"],
            "complete_graph_s": m["covgraph.complete_graph_s"],
            "covgraph_hot_spot": "build_core" if m["covgraph.build_core_s"] > m["covgraph.complete_graph_s"]
            else "complete_graph",
        }
    return out


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--seeds", default="1-10")
    ap.add_argument("--out", default=None)
    args = ap.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    seconds = spec["run_seconds"]
    workloads = [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    seeds = seed_list(args.seeds)
    summary = {
        "machine": f"{platform.machine()}, {platform.python_implementation()} {platform.python_version()}",
        "run_seconds": seconds,
        "seeds": seeds,
        "workloads": {},
    }
    ok = True
    for workload in workloads:
        runs = [run_once(workload, seed, seconds, 0) for seed in seeds]
        e2e = {}
        print(f"{workload}: {len(runs)} seeds")
        for name, bound in bounds.items():
            stat = spread([r["metrics"][name]["value"] for r in runs])
            stat["bound"] = bound
            e2e[name] = stat
            flag = "" if stat["spread"] <= bound / 3 else ("  above bound/3" if stat["spread"] <= bound else "  ABOVE BOUND")
            if name != "setup_s" and stat["spread"] > bound:
                ok = False
            print(f"  {name:18s} median {stat['median']:12.6f}  spread {stat['spread']:.3f} (bound {bound}){flag}")
        row = {"e2e": e2e, "attempted": [r["attempted"] for r in runs]}
        run_once(workload, seeds[0], seconds, 1)
        trace = json.loads((ROOT / ".perfbench_out" / f"trace_{workload}.json").read_text(encoding="utf-8"))
        trace.pop("spans")
        row["trace"] = trace
        summary["workloads"][workload] = row
    summary["profile_claims"] = profile_claims(summary["workloads"])
    print(json.dumps(summary["profile_claims"], indent=1))
    if args.out:
        Path(args.out).write_text(json.dumps(summary, indent=1) + "\n", encoding="utf-8")
    return 0 if ok else 1


if __name__ == "__main__":
    raise SystemExit(main())
