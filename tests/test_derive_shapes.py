"""``perfbench/derive_shapes.py`` must still derive the committed corpus
shapes byte for byte: the benchmark's ``corpus`` workload draws its systems
from ``perfbench/corpus_shapes.json``, and the script reads
``check_h_theta_surjective``, ``ThetaNotSurjectiveOntoB`` and
``lambda_components`` from the package."""

import importlib.util
from pathlib import Path

PERFBENCH = Path(__file__).resolve().parents[1] / "perfbench"


def test_derived_shapes_equal_the_committed_file(capsys):
    spec = importlib.util.spec_from_file_location("derive_shapes", PERFBENCH / "derive_shapes.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    module.main()
    assert capsys.readouterr().out.encode("utf-8") == (PERFBENCH / "corpus_shapes.json").read_bytes()
