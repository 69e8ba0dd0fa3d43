"""Derive the corpus shapes from the test corpus (run once, from the repo root).

    PYTHONPATH=src python3 perfbench/derive_shapes.py > perfbench/corpus_shapes.json

Takes ``make_corpus(20250810, 210)`` from ``tests/conftest.py``, keeps the
systems whose subgroup maps onto B, and records for the first 170 the
factor names, the kind of each factor map, the index, and the orbit sizes
of each factor on the cosets.  The benchmark draws a fresh action of each
shape from its seed, so only these shapes, not the test's subgroups, are
reused.
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parents[1] / "tests"))

from conftest import make_corpus  # noqa: E402

from freedecomp.conjecture import ThetaNotSurjectiveOntoB, check_h_theta_surjective  # noqa: E402
from freedecomp.covgraph import lambda_components  # noqa: E402


def theta_kind(g, b) -> str:
    if b.order == g.order:
        return "id"
    if b.order == 1:
        return "collapse"
    return {"Z4": "mod2", "S3": "sign"}[g.name]


def main() -> None:
    shapes = []
    for inst in make_corpus(seed=20250810, count=210):
        system = inst.system
        try:
            check_h_theta_surjective(system, inst.gens, 10_000)
        except ThetaNotSurjectiveOntoB:
            continue
        shapes.append(
            [
                [g.name for g in system.factors_g],
                [theta_kind(g, b) for g, b in zip(system.factors_g, system.factors_b)],
                inst.graph.vertex_count,
                [
                    sorted(len(c.vertices) for c in lambda_components(system, inst.graph, lam))
                    for lam in range(system.num_factors)
                ],
            ]
        )
    json.dump(shapes[:170], sys.stdout)
    sys.stdout.write("\n")


if __name__ == "__main__":
    main()
