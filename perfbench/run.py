"""Benchmark driver for freedecomp: one client, closed loop, in-process CLI.

    python3 perfbench/run.py --workload corpus --seed 1 --seconds 40 --trace 0

Generates the workload's system files from the seed, measures set-up in
fresh interpreters, then repeats passes over the systems until the time is
up.  A pass runs every command a user runs through ``freedecomp.cli.main``
and checks each answer against what the input's construction implies.
With ``--trace 1`` it alternates untraced passes with traced ones and
reports per-layer numbers instead.  The last line of stdout is the JSON
result; exit code 0 only when every answer was right.
"""

from __future__ import annotations

import argparse
import contextlib
import gc
import io
import json
import math
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
WORK = ROOT / ".perfbench_work"
OUT = ROOT / ".perfbench_out"
SETUP_REPEATS = 5
CHEAP_REPEATS = 3  # kurosh and tampered verifies are short: run them this often per pass
WORKLOADS = ("corpus", "coset-scale", "certify-scale")
# coset-scale's full-pipeline systems take 0.03 s: run decompose and verify
# on them as often per pass as the short commands
PIPELINE_REPEATS = {"coset-scale": CHEAP_REPEATS}

E2E_UNITS = {
    "setup_s": "s",
    "decompose_s.p50": "s",
    "decompose_s.p90": "s",
    "decompose_s.sum": "s",
    "verify_s.p50": "s",
    "verify_s.p90": "s",
    "verify_s.sum": "s",
    "reject_s.sum": "s",
    "kurosh_s.sum": "s",
    "peak_rss_mb": "MB",
}
LAYER_TIMES = (
    "cli.load_system",
    "cli.serialize",
    "fingroup.validate_group",
    "freeprod.make_system",
    "freeprod.parse_word",
    "covgraph.build_core",
    "covgraph.complete_graph",
    "covgraph.canonicalize",
    "conjecture.surjectivity",
    "conjecture.decompose",
    "higgins.theta_tree",
    "higgins.decompose",
    "kurosh.decompose",
    "verify.certificate",
    "verify.rebuild",
) + tuple(f"verify.c{i}" for i in range(1, 8))
SELF_TIMES = ("conjecture.decompose",)
COUNTS = (
    "covgraph.wedge_vertices",
    "covgraph.core_vertices",
    "covgraph.index",
    "higgins.tree_attempts",
    "kurosh.pieces",
    "kurosh.free_rank",
    "verify.c7_states",
)
RATIOS = ("verify.c7_exhaustive_frac", "trace.span_share", "trace.overhead_frac")


def per_layer_units() -> dict[str, str]:
    units = {f"{name}_s": "s" for name in LAYER_TIMES}
    units.update({f"{name.split('.')[0]}.self_s": "s" for name in SELF_TIMES})
    units.update({name: "count" for name in COUNTS})
    units.update({name: "ratio" for name in RATIOS})
    return units


# ------------------------------------------------------------------ inputs


def build_cases(workload: str, seed: int, tiny: bool):
    """(cases run through kurosh only, cases run through every command)."""
    import inputs

    if workload == "corpus":
        return [], inputs.corpus(seed, count=12 if tiny else 170)
    if workload == "coset-scale":
        return inputs.coset_scale(seed, ladder=(12, 24) if tiny else inputs.COSET_LADDER)
    if workload == "certify-scale":
        if tiny:
            return [], inputs.certify_scale(seed, z2z3=(4,), s3z4=(4, (1, 3), (4,)))
        return [], inputs.certify_scale(seed)
    raise SystemExit(f"unknown workload {workload!r}; choose from {', '.join(WORKLOADS)}")


# ------------------------------------------------------------------- checks


def structure_ok(case, pieces, free_rank: int) -> bool:
    """Pieces and free rank agree with the construction, and
    chi(H) = index * chi(G) holds for them."""
    import inputs

    chi = inputs.euler_characteristic([order for _, order in pieces], free_rank)
    return tuple(sorted(pieces)) == case.pieces and free_rank == case.free_rank and chi == case.index * case.chi_g


def cert_structure(cert: dict) -> tuple[list, int]:
    pieces = [(fc["lam"], len(vg) + 1) for fc in cert["factors"] for vg in fc["vertex_groups"]]
    return pieces, sum(len(fc["f_basis"]) for fc in cert["factors"])


def verdict(stdout: str) -> str:
    lines = stdout.strip().splitlines()
    return lines[-1] if lines else ""


# ------------------------------------------------------------------ passes


OPS = ("decompose", "verify", "reject", "kurosh")


class Stats:
    """Per operation and system, the seconds each pass took."""

    def __init__(self) -> None:
        self.samples: dict[str, dict[str, list[float]]] = {op: {} for op in OPS}
        self.passes = 0
        self.attempted = 0
        self.failed = 0
        self.errors: list[str] = []

    def medians(self, op: str) -> list[float]:
        """Each system's median time over the passes, which filters out a
        garbage collection or a slow moment of the machine."""
        return [statistics.median(times) for times in self.samples[op].values()]

    def record(self, op: str, seconds: float, ok: bool, case_name: str, detail: str = "") -> None:
        self.samples[op].setdefault(case_name, []).append(seconds)
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"{op} {case_name}: {detail}".rstrip())


def run_cli(argv) -> tuple[int, str, float]:
    from freedecomp import cli

    out, err = io.StringIO(), io.StringIO()
    gc.collect()  # start each command without garbage left by the last, as a fresh process would
    t0 = time.perf_counter()
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
    except SystemExit as exc:
        code = exc.code if isinstance(exc.code, int) else 2
    except Exception as exc:  # a crash is a wrong answer, not a benchmark error
        code = -1
        err.write(f"{type(exc).__name__}: {exc}")
    return code, out.getvalue() + err.getvalue(), time.perf_counter() - t0


def plan(kurosh_only, full) -> list:
    """(case, runs every command?) in pass order."""
    return [(case, False) for case in kurosh_only] + [(case, True) for case in full]


def make_tampered(case, cert: dict, sys_path: Path, tampered: dict) -> None:
    """Write the case's tampered certificates once."""
    import inputs

    if case.name in tampered:
        return
    tampered[case.name] = []
    for kind, bad in inputs.tampered_copies(case.groups, cert).items():
        path = sys_path.with_suffix(f".bad-{kind}.json")
        path.write_text(json.dumps(bad) + "\n", encoding="utf-8")
        tampered[case.name].append(path)


def untraced_pass(kurosh_only, full, files, stats: Stats, tampered: dict, repeats: int = 1) -> None:
    stats.passes += 1
    for case, whole in plan(kurosh_only, full):
        sys_path = files[case.name]
        k_path = sys_path.with_suffix(".kurosh.json")
        for _ in range(CHEAP_REPEATS):
            code, text, dt = run_cli(["kurosh", str(sys_path), "-o", str(k_path)])
            ok = code == 0
            if ok:
                out = json.loads(k_path.read_text(encoding="utf-8"))
                pieces = [(p["lam"], len(p["stabilizer"])) for p in out["pieces"]]
                ok = structure_ok(case, pieces, out["free_rank"])
            stats.record("kurosh", dt, ok, case.name, f"exit {code} {text[-200:]}")
        if not whole:
            continue

        cert_path = sys_path.with_suffix(".cert.json")
        for _ in range(repeats):
            code, text, dt = run_cli(["decompose", str(sys_path), "-o", str(cert_path)])
            ok = code == 0 and verdict(text) == "verdict: pass"
            cert = None
            if ok:
                cert = json.loads(cert_path.read_text(encoding="utf-8"))
                ok = structure_ok(case, *cert_structure(cert))
            stats.record("decompose", dt, ok, case.name, f"exit {code} {text[-200:]}")
            if cert is None:
                break
            code, text, dt = run_cli(["verify", str(sys_path), str(cert_path)])
            stats.record("verify", dt, code == 0 and verdict(text) == "verdict: pass", case.name, f"exit {code}")
        if cert is None:
            continue
        make_tampered(case, cert, sys_path, tampered)
        for bad_path in tampered[case.name] * CHEAP_REPEATS:
            code, text, dt = run_cli(["verify", str(sys_path), str(bad_path)])
            ok = code == 1 and verdict(text) == "verdict: FAIL"
            stats.record("reject", dt, ok, bad_path.stem, f"exit {code}")


def traced_pass(kurosh_only, full, files, stats: Stats, tampered: dict, tr):
    """One pass through the public calls the CLI makes, with spans when
    ``tr`` is enabled.  Returns the summed wall time of the operations;
    the replays after each decompose run outside it."""
    import tracing

    op_time = 0.0
    exhaustive = verifies = 0
    stats.passes += 1
    for case, whole in plan(kurosh_only, full):
        tr.request = case.name
        sys_path = files[case.name]
        cert_path = sys_path.with_suffix(".cert.json")
        ops = [("kurosh", sys_path.with_suffix(".kurosh.json"))]
        if whole:
            ops += [("decompose", cert_path), ("verify", cert_path), ("reject", None)]
        while ops:
            op, path = ops.pop(0)
            if op == "reject" and path is None:
                ops = [("reject", bad) for bad in tampered.get(case.name, ())]
                continue
            gc.collect()
            t0 = time.perf_counter()
            try:
                if op == "kurosh":
                    out = tracing.traced_kurosh(tr, sys_path, path)
                    pieces = [(p["lam"], len(p["stabilizer"])) for p in out["pieces"]]
                    ok = structure_ok(case, pieces, out["free_rank"])
                elif op == "decompose":
                    cert, report = tracing.traced_decompose(tr, sys_path, path)
                    ok = report.verdict and structure_ok(case, *cert_structure(cert))
                else:
                    report = tracing.traced_verify(tr, sys_path, path)
                    ok = report.verdict == (op == "verify")
                detail = "traced"
            except Exception as exc:  # a crash is a wrong answer, not a benchmark error
                ok, detail = False, f"traced: {type(exc).__name__}: {exc}"
            dt = time.perf_counter() - t0
            stats.record(op, dt, ok, path.stem if op == "reject" else case.name, detail)
            op_time += dt
            tr.replay()
            if not ok:
                break
            if op == "decompose":
                make_tampered(case, cert, sys_path, tampered)
            if op == "verify":
                states, full_search = tracing.c7_outcome(report)
                tr.counts["verify.c7_states"] += states
                exhaustive += full_search
                verifies += 1
    tr.counts["verify.c7_exhaustive_frac"] = exhaustive / verifies if verifies else 1.0
    return op_time


def fits(start: float, seconds: float, done: int) -> bool:
    """Start another pass while it is expected to end within the run
    time, judged by the mean pass so far; always run at least one."""
    if not done:
        return True
    elapsed = time.perf_counter() - start
    return elapsed + elapsed / done <= seconds


# ------------------------------------------------------------------- setup


def measure_setup(paths) -> float:
    """Median wall time of a fresh interpreter importing freedecomp and
    loading every system file of the workload."""
    code = (
        "import json, sys\n"
        "sys.path.insert(0, sys.argv[1])\n"
        "from freedecomp.cli import load_system\n"
        "for p in sys.argv[2:]:\n"
        "    with open(p, encoding='utf-8') as fh:\n"
        "        load_system(json.load(fh))\n"
    )
    times = []
    for _ in range(SETUP_REPEATS):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", code, str(SRC), *map(str, paths)], check=True, cwd=ROOT)
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# ------------------------------------------------------------------ report


def percentile(values, p: float) -> float:
    """Harrell-Davis estimate of the p-quantile: a Beta((n+1)p, (n+1)(1-p))
    weighted mean of all order statistics.  A single order statistic jumps
    when one system crosses a gap between cost classes; this does not."""
    xs = sorted(values)
    n = len(xs)
    if n == 1:
        return xs[0]
    a, b = p * (n + 1), (1 - p) * (n + 1)
    log_norm = math.lgamma(a + b) - math.lgamma(a) - math.lgamma(b)
    per = 100  # midpoints per order statistic's interval [i/n, (i+1)/n]
    density = [
        math.exp(log_norm + (a - 1) * math.log(x) + (b - 1) * math.log1p(-x))
        for x in ((k + 0.5) / (per * n) for k in range(per * n))
    ]
    weights = [sum(density[i * per:(i + 1) * per]) for i in range(n)]
    return sum(w * x for w, x in zip(weights, xs)) / sum(weights)


def e2e_metrics(stats: Stats, setup_s: float) -> tuple[dict, dict]:
    values = {
        "setup_s": setup_s,
        "decompose_s.p50": percentile(stats.medians("decompose"), 0.5),
        "decompose_s.p90": percentile(stats.medians("decompose"), 0.9),
        "decompose_s.sum": sum(stats.medians("decompose")),
        "verify_s.p50": percentile(stats.medians("verify"), 0.5),
        "verify_s.p90": percentile(stats.medians("verify"), 0.9),
        "verify_s.sum": sum(stats.medians("verify")),
        "reject_s.sum": sum(stats.medians("reject")),
        "kurosh_s.sum": sum(stats.medians("kurosh")),
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
    }
    notes = {
        "setup_s": f"median of {SETUP_REPEATS} fresh interpreters",
        "peak_rss_mb": "benchmark process",
    }
    for op in OPS:
        for q in ("p50", "p90", "sum"):
            runs = min((len(times) for times in stats.samples[op].values()), default=0)
            notes[f"{op}_s.{q}"] = f"n={len(stats.samples[op])} systems, each the median of at least {runs} runs"
    return values, notes


def layer_metrics(tracers, op_times, off_times) -> tuple[dict, dict]:
    """Medians over traced passes, the overhead against passes with spans
    off, and the first traced pass's self time per layer."""
    per_pass = []
    for tr, op_time in zip(tracers, op_times):
        totals, selfs = tr.totals(), tr.self_times()
        row = {f"{name}_s": totals.get(name, 0.0) for name in LAYER_TIMES}
        row.update({f"{name.split('.')[0]}.self_s": selfs.get(name, 0.0) for name in SELF_TIMES})
        row.update({name: tr.counts.get(name, 0.0) for name in COUNTS})
        row["verify.c7_exhaustive_frac"] = tr.counts["verify.c7_exhaustive_frac"]
        top = sum(s["end"] - s["start"] for s in tr.spans if s["parent"] is None)
        row["trace.span_share"] = top / op_time
        per_pass.append(row)
    values = {name: statistics.median(row[name] for row in per_pass) for name in per_pass[0]}
    values["trace.overhead_frac"] = statistics.median(op_times) / statistics.median(off_times) - 1.0
    self_by_layer: dict[str, float] = {}
    for name, secs in tracers[0].self_times().items():
        layer = name.split(".")[0]
        self_by_layer[layer] = self_by_layer.get(layer, 0.0) + secs
    return values, self_by_layer


def print_metrics(values: dict, units: dict, notes: dict) -> None:
    for name, value in values.items():
        note = notes.get(name, "")
        print(f"{name:32s} {value:14.6f} {units[name]:6s} {note}")


# -------------------------------------------------------------------- main


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__, formatter_class=argparse.RawDescriptionHelpFormatter)
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--tiny", action="store_true", help="smallest sizes, for the benchmark's own tests")
    args = ap.parse_args(argv)

    if not (SRC / "freedecomp" / "__init__.py").is_file():
        print(f"error: no freedecomp sources under {SRC}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import freedecomp

    if Path(freedecomp.__file__).resolve().parent != (SRC / "freedecomp").resolve():
        print(f"error: imported freedecomp from {freedecomp.__file__}, not {SRC}", file=sys.stderr)
        return 2

    kurosh_only, full = build_cases(args.workload, args.seed, args.tiny)
    workdir = WORK / f"{args.workload}-{args.seed}-{args.trace}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        import inputs

        paths = inputs.write_cases(list(kurosh_only) + list(full), workdir)
        files = {case.name: path for case, path in zip(list(kurosh_only) + list(full), paths)}
        stats = Stats()
        tampered: dict = {}
        print(f"workload {args.workload} seed {args.seed}: {len(kurosh_only)} kurosh-only systems, "
              f"{len(full)} systems through decompose/verify/reject/kurosh")

        if args.trace == 0:
            setup_s = measure_setup(paths)
            start = time.perf_counter()
            while fits(start, args.seconds, stats.passes):
                untraced_pass(kurosh_only, full, files, stats, tampered, PIPELINE_REPEATS.get(args.workload, 1))
            values, notes = e2e_metrics(stats, setup_s)
            units = E2E_UNITS
        else:
            import tracing

            # A first pass with spans off warms the process up and writes the
            # tampered certificates; the timed pairs alternate which side runs first.
            traced_pass(kurosh_only, full, files, stats, tampered, tracing.Tracer(enabled=False))
            tracers, op_times, off_times = [], [], []
            start = time.perf_counter()
            while fits(start, args.seconds, len(tracers)):
                tracers.append(tracing.Tracer())
                pair = [(tracers[-1], op_times), (tracing.Tracer(enabled=False), off_times)]
                for tr, times in pair if len(tracers) % 2 else pair[::-1]:
                    times.append(traced_pass(kurosh_only, full, files, stats, tampered, tr))
            values, self_by_layer = layer_metrics(tracers, op_times, off_times)
            units = per_layer_units()
            notes = {"trace.overhead_frac": f"median of {len(tracers)} passes with spans vs without"}
            OUT.mkdir(exist_ok=True)
            row = {
                "workload": args.workload,
                "seed": args.seed,
                "passes": len(tracers),
                "spans_off_e2e_s": statistics.median(off_times),
                "spans_on_e2e_s": statistics.median(op_times),
                "span_share": values["trace.span_share"],
                "overhead_frac": values["trace.overhead_frac"],
                "self_s_by_layer": self_by_layer,
                "metrics": values,
                "spans": tracers[0].spans,
            }
            (OUT / f"trace_{args.workload}.json").write_text(json.dumps(row) + "\n", encoding="utf-8")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
        with contextlib.suppress(OSError):
            WORK.rmdir()  # only when no other run is using it

    failed_frac = stats.failed / stats.attempted
    print_metrics(values, units, notes)
    print(f"{'failed_frac':32s} {failed_frac:14.6f} {'ratio':6s} {stats.failed}/{stats.attempted} operations")
    for line in stats.errors:
        print(f"wrong answer: {line}", file=sys.stderr)
    correct = stats.failed == 0
    result = {
        "correct": correct,
        "attempted": stats.attempted,
        "failed": stats.failed,
        "metrics": {name: {"value": value, "unit": units[name]} for name, value in values.items()},
    }
    print(json.dumps(result))
    return 0 if correct else 1


if __name__ == "__main__":
    raise SystemExit(main())
