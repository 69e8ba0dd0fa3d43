"""Tests of the benchmark itself: inputs, answers, tampering, output shape.

Run from the repo root:  PYTHONPATH=src python -m pytest -q perfbench
"""

from __future__ import annotations

import json
import random
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(ROOT / "src"))

import inputs  # noqa: E402
import run  # noqa: E402

SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))


def _all_cases(seed: int) -> list:
    big, small = inputs.coset_scale(seed, ladder=(30,))
    return inputs.corpus(seed, count=20) + big + small + inputs.certify_scale(seed)


def test_same_seed_gives_identical_system_files(tmp_path):
    first = inputs.write_cases(_all_cases(7), tmp_path / "a")
    second = inputs.write_cases(_all_cases(7), tmp_path / "b")
    assert [p.name for p in first] == [p.name for p in second]
    for a, b in zip(first, second):
        assert a.read_bytes() == b.read_bytes()
    other = inputs.write_cases(_all_cases(8), tmp_path / "c")
    assert any(a.read_bytes() != c.read_bytes() for a, c in zip(first, other))


@pytest.mark.parametrize("n", [3, 12, 61, 300])
def test_transitive_action_has_n_points_and_h_fixes_zero(n):
    rnd = random.Random(n)
    signature = inputs.z2z3_signature(n)
    action = inputs.draw_action([inputs.Z2, inputs.Z3], [inputs.Z2, inputs.Z1], [(0, 1), (0, 0, 0)], signature, n, rnd)
    assert action.points == n
    for group, act in zip(action.factors_g, action.act):
        for g in range(group.order):
            assert sorted(act[g]) == list(range(n))  # a permutation of the n points
            for h in range(group.order):  # a right action: (p.h).g == p.(hg)
                assert all(act[g][act[h][p]] == act[group.mul[h][g]][p] for p in range(n))
    reached, frontier = {0}, [0]
    while frontier:
        p = frontier.pop()
        for group, act in zip(action.factors_g, action.act):
            for g in range(1, group.order):
                if act[g][p] not in reached:
                    reached.add(act[g][p])
                    frontier.append(act[g][p])
    assert reached == set(range(n))
    for word in inputs.schreier_generators(action):
        p = 0
        for lam, e in word:
            p = action.act[lam][e][p]
        assert p == 0
    pieces, rank = inputs.expected_structure(action)
    assert inputs.euler_characteristic([o for _, o in pieces], rank) == n * inputs.chi_of_g(action)


def _decompose(tmp_path, case):
    path = inputs.write_cases([case], tmp_path)[0]
    cert_path = tmp_path / "cert.json"
    code, text, _ = run.run_cli(["decompose", str(path), "-o", str(cert_path)])
    assert code == 0, text
    return path, json.loads(cert_path.read_text(encoding="utf-8"))


def test_tampered_certificates_are_rejected(tmp_path):
    case = inputs.z2z3_case("z2z3_n4", 4, random.Random(3))  # one Z3 piece and free rank 1
    path, cert = _decompose(tmp_path, case)
    assert run.structure_ok(case, *run.cert_structure(cert))
    bad = inputs.tampered_copies(case.groups, cert)
    assert set(bad) == {"piece", "basis"}
    for kind, bad_cert in bad.items():
        bad_path = tmp_path / f"bad-{kind}.json"
        bad_path.write_text(json.dumps(bad_cert), encoding="utf-8")
        code, text, _ = run.run_cli(["verify", str(path), str(bad_path)])
        assert code == 1 and run.verdict(text) == "verdict: FAIL", (kind, text)


def test_trivial_subgroup_has_nothing_to_tamper():
    assert inputs.tampered_copies((), {"factors": [{"f_basis": [], "reps": []}]}) == {}


@pytest.mark.parametrize("workload", [w["name"] for w in SPEC["workloads"]])
@pytest.mark.parametrize("trace", [0, 1])
def test_tiny_pass_prints_every_named_metric(workload, trace):
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "5", "--seconds", "1",
         "--trace", str(trace), "--tiny"],
        cwd=ROOT, capture_output=True, text=True, timeout=300, check=False,
    )
    assert proc.returncode == 0, proc.stdout + proc.stderr
    lines = proc.stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    wanted = SPEC["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in wanted}
    for m in wanted:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
        assert any(line.startswith(m["name"] + " ") for line in lines[:-1])  # the readable table too
    if not trace:
        assert any(line.startswith("failed_frac ") for line in lines)


def test_refuses_to_run_without_the_sources(tmp_path):
    bench = tmp_path / "perfbench"
    bench.mkdir()
    for f in HERE.glob("*.py"):
        (bench / f.name).write_bytes(f.read_bytes())
    (bench / "corpus_shapes.json").write_bytes((HERE / "corpus_shapes.json").read_bytes())
    (tmp_path / "BENCHMARK.json").write_bytes((ROOT / "BENCHMARK.json").read_bytes())
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "corpus", "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60, check=False,
    )
    assert proc.returncode != 0 and proc.stdout.strip() == ""
