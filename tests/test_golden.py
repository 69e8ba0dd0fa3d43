"""Golden oracle: certificate bytes and ``decompose`` exit codes over the
seeded corpus must not change.

Every system of the session corpus (seed 20250810) is written as a system
file and run through ``freedecomp decompose``.  The digest covers, per
system in corpus order, the exit code and ``json.dumps(certificate, indent=2)``
of the written certificate (empty when none was written).  A change that
alters any certificate byte or any verdict changes the digest; when that is
intended, regenerate the digest with ``corpus_digest`` and say why.
"""

import hashlib
import json

from freedecomp.cli import main
from freedecomp.freeprod import format_word

GOLDEN_DIGEST = "64500a3d1ea86505fee0a5821d78f92849b5d4a1be693b27699ae0eec655fc99"


def system_json(inst) -> dict:
    data = inst.system.description()
    data["subgroup"] = [format_word(w) for w in inst.gens]
    return data


def corpus_digest(corpus, tmp_path, capsys) -> tuple[str, dict[int, int]]:
    digest = hashlib.sha256()
    codes: dict[int, int] = {}
    for idx, inst in enumerate(corpus):
        sys_file = tmp_path / f"sys{idx}.json"
        cert_file = tmp_path / f"cert{idx}.json"
        sys_file.write_text(json.dumps(system_json(inst)), encoding="utf-8")
        code = main(["decompose", str(sys_file), "-o", str(cert_file)])
        capsys.readouterr()
        text = json.dumps(json.loads(cert_file.read_text(encoding="utf-8")), indent=2) if cert_file.exists() else ""
        digest.update(f"{idx}:{code}:{text}\n".encode("utf-8"))
        codes[code] = codes.get(code, 0) + 1
    return digest.hexdigest(), codes


def test_corpus_certificates_and_exit_codes_unchanged(corpus, tmp_path, capsys):
    digest, codes = corpus_digest(corpus, tmp_path, capsys)
    assert digest == GOLDEN_DIGEST, f"corpus digest changed: {digest} (exit codes {codes})"
