import itertools
import json

from freedecomp import build_core as real_build_core
from freedecomp import cli, conjecture, verify
from freedecomp.cli import main
from freedecomp.conjecture import canonical_generators
from freedecomp.fingroup import sym

SYS_A = {
    "factors_G": ["cyclic 2", "cyclic 2"],
    "factors_B": ["cyclic 2", "cyclic 1"],
    "theta": [[0, 1], [0, 0]],
    "subgroup": ["0:1", "1:1 0:1 1:1"],
}

SYS_B = {
    "factors_G": ["cyclic 2", "cyclic 3"],
    "subgroup": ["0:1", "1:1 0:1 1:2", "1:2 0:1 1:1"],
}


def write(tmp_path, name, payload):
    path = tmp_path / name
    path.write_text(json.dumps(payload), encoding="utf-8")
    return str(path)


def test_decompose_roundtrip(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert_file = str(tmp_path / "cert.json")
    report_file = str(tmp_path / "report.json")
    code = main(["decompose", sys_file, "-o", cert_file, "--report", report_file])
    assert code == 0
    out = capsys.readouterr().out
    assert "verdict: pass" in out

    cert_text = (tmp_path / "cert.json").read_text()
    assert cert_text.endswith("\n")
    cert = json.loads(cert_text)
    fc0 = cert["factors"][0]
    assert fc0["reps"] == ["", "1:1"]
    assert fc0["vertex_groups"] == [["0:1"], ["1:1 0:1 1:1"]]
    assert fc0["f_basis"] == []
    assert cert["factors"][1]["reps"] == []

    report = json.loads((tmp_path / "report.json").read_text())
    assert report["verdict"] == "pass"
    assert len(report["checks"]) == 7

    # re-verify from the written files: verdict must be reproduced
    code = main(["verify", sys_file, cert_file])
    assert code == 0
    assert "verdict: pass" in capsys.readouterr().out


def test_decompose_deterministic_bytes(tmp_path):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    shuffled = dict(SYS_A, subgroup=["1:1 0:1 1:1", "0:1"])
    sys_file2 = write(tmp_path, "sys2.json", shuffled)
    c1, c2 = str(tmp_path / "c1.json"), str(tmp_path / "c2.json")
    assert main(["decompose", sys_file, "-o", c1]) == 0
    assert main(["decompose", sys_file2, "-o", c2]) == 0
    assert (tmp_path / "c1.json").read_bytes() == (tmp_path / "c2.json").read_bytes()


def test_decompose_bound_exceeded(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    code = main(["decompose", sys_file, "-o", str(tmp_path / "c.json"), "--max-cosets", "1"])
    assert code == 2
    assert "bound" in capsys.readouterr().err


def test_nonsurjective_theta_rejected(tmp_path, capsys):
    bad = {
        "factors_G": ["cyclic 4"],
        "factors_B": ["cyclic 4"],
        "theta": [[0, 2, 0, 2]],
        "subgroup": ["0:1"],
    }
    sys_file = write(tmp_path, "sys.json", bad)
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json")]) == 3


def test_h_theta_not_onto_is_invalid_input(tmp_path):
    bad = {
        "factors_G": ["cyclic 2", "cyclic 2"],
        "subgroup": ["0:1", "1:1 0:1 1:1"],
    }
    sys_file = write(tmp_path, "sys.json", bad)
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json")]) == 3


def test_malformed_system_rejected(tmp_path):
    sys_file = write(tmp_path, "sys.json", {"factors_G": []})
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json")]) == 3
    sys_file = write(tmp_path, "sys2.json", {"factors_G": [[[0, 1], [1, 1]]], "subgroup": []})
    assert main(["kurosh", sys_file]) == 3


def test_kurosh_sys_b(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_B)
    out_file = str(tmp_path / "kurosh.json")
    assert main(["kurosh", sys_file, "-o", out_file]) == 0
    data = json.loads((tmp_path / "kurosh.json").read_text())
    assert len(data["pieces"]) == 3
    assert all(len(p["stabilizer"]) == 2 and p["lam"] == 0 for p in data["pieces"])
    assert {p["rep"] for p in data["pieces"]} == {"", "1:1", "1:2"}
    assert data["free_rank"] == 0


def test_kurosh_trivial_subgroup_bound(tmp_path, capsys):
    sys_file = write(
        tmp_path, "sys.json", {"factors_G": ["cyclic 2", "cyclic 2"], "subgroup": [], "bounds": {"max_cosets": 40}}
    )
    assert main(["kurosh", sys_file]) == 2
    assert "bound" in capsys.readouterr().err


def test_graph_dot(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    assert main(["graph", sys_file]) == 0
    out = capsys.readouterr().out
    assert out.startswith("digraph") and out.endswith("}\n")
    assert out.count("->") == 4


def test_normalform(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    assert main(["normalform", sys_file, "0:1 0:1"]) == 0
    assert capsys.readouterr().out == "\n"
    sys_file_b = write(tmp_path, "sysb.json", SYS_B)
    assert main(["normalform", sys_file_b, "0:1 1:1 1:2"]) == 0
    assert capsys.readouterr().out == "0:1\n"
    # on the B side of SYS_A the second factor is trivial
    assert main(["normalform", sys_file, "1:1", "--side", "B"]) == 3
    assert main(["normalform", sys_file, "0:1", "--side", "B"]) == 0
    assert capsys.readouterr().out == "0:1\n"


def test_member(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    assert main(["member", sys_file, "1:1 0:1 1:1"]) == 0
    assert capsys.readouterr().out == "true\n"
    assert main(["member", sys_file, "1:1"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_tampered_certificate_fails_verify(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert_file = str(tmp_path / "cert.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    capsys.readouterr()
    cert = json.loads((tmp_path / "cert.json").read_text())
    cert["factors"][0]["reps"][1] = "1:1 0:1"
    tampered = write(tmp_path, "tampered.json", cert)
    assert main(["verify", sys_file, tampered]) == 1
    assert "FAIL" in capsys.readouterr().out


def test_unreadable_file(tmp_path):
    assert main(["decompose", str(tmp_path / "missing.json"), "-o", str(tmp_path / "c.json")]) == 3


def test_tree_retries_below_one_is_invalid_input(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", dict(SYS_A, bounds={"tree_retries": 0}))
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json")]) == 3
    assert "tree_retries must be at least 1" in capsys.readouterr().err
    sys_file = write(tmp_path, "sys2.json", SYS_A)
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json"), "--tree-retries", "0"]) == 3
    assert "tree_retries must be at least 1" in capsys.readouterr().err


def test_decompose_builds_the_coset_graph_once(tmp_path, monkeypatch, capsys):
    # a redundant generator keeps H's generators apart from the words the
    # certificate regenerates H from in check C5
    payload = dict(SYS_A, subgroup=SYS_A["subgroup"] + ["0:1 1:1 0:1 1:1"])
    sys_file = write(tmp_path, "sys.json", payload)
    _, gens, _ = cli.load_system(payload)
    h_gens = canonical_generators(gens)
    calls = []

    def counting_build_core(sys, words):
        calls.append(tuple(words))
        return real_build_core(sys, words)

    def no_verify(*args, **kwargs):
        raise AssertionError("decompose must not rebuild through verify_certificate")

    for module in (cli, conjecture, verify):
        monkeypatch.setattr(module, "build_core", counting_build_core)
    monkeypatch.setattr(cli, "verify_certificate", no_verify)
    code = main(["decompose", sys_file, "-o", str(tmp_path / "c.json"), "--dot", str(tmp_path / "g.dot")])
    assert code == 0, capsys.readouterr()
    assert calls.count(h_gens) == 1
    assert (tmp_path / "g.dot").read_text().count("->") == 4


# S5 * Z2 onto Z2 * Z2 by (sign, identity); H is a point stabiliser of a
# transitive action on 10 points, presented by Schreier generators.  S5's
# elements carry the labels below (label of the i-th permutation in
# lexicographic order); under them every transversal retry puts a piece of
# H_1 in factor 0, so decompose fails after all retries.
S5_LABELS = [
    0, 41, 90, 83, 15, 72, 89, 9, 58, 60, 37, 108, 18, 55, 74, 119, 92, 28, 79, 95,
    38, 102, 7, 67, 4, 56, 30, 105, 39, 69, 19, 117, 10, 12, 16, 52, 103, 50, 57, 111,
    101, 61, 46, 84, 22, 20, 91, 68, 78, 54, 85, 21, 81, 14, 26, 98, 6, 82, 17, 114,
    94, 13, 47, 77, 34, 35, 25, 104, 99, 116, 43, 33, 36, 75, 44, 70, 45, 73, 86, 32,
    107, 31, 96, 29, 2, 3, 71, 100, 40, 23, 110, 63, 59, 1, 11, 48, 65, 53, 87, 88,
    112, 42, 109, 24, 115, 76, 49, 80, 97, 118, 62, 27, 8, 66, 113, 5, 51, 93, 64, 106,
]
S5Z2_SUBGROUP = [
    "0:102",
    "0:110 1:1 0:74 1:1 0:34",
    "1:1 0:84 1:1",
    "0:110 1:1 0:2 1:1 0:34",
    "0:110 1:1 0:12 1:1 0:65 1:1 0:34",
    "0:110 1:1 0:110 1:1 0:34 1:1",
    "1:1 0:102 1:1",
    "0:74",
    "0:110 1:1 0:65 1:1 0:65 1:1",
    "0:110 1:1 0:102 1:1 0:102 1:1 0:34",
    "0:12 1:1",
    "1:1 0:12 1:1 0:102 1:1 0:65 1:1",
    "1:1 0:12 1:1 0:32 1:1 0:34",
    "1:1 0:14 1:1",
    "0:110 1:1 0:107 1:1 0:34",
    "1:1 0:110 1:1 0:34 1:1 0:34",
    "1:1 0:65",
]


def s5z2_system() -> dict:
    s5 = sym(5)
    n = s5.order
    table = [[0] * n for _ in range(n)]
    for i in range(n):
        for j in range(n):
            table[S5_LABELS[i]][S5_LABELS[j]] = S5_LABELS[s5.mul[i][j]]
    sign = [0] * n
    for i, p in enumerate(sorted(itertools.permutations(range(5)))):
        sign[S5_LABELS[i]] = sum(p[a] > p[b] for a in range(5) for b in range(a + 1, 5)) % 2
    return {
        "factors_G": [table, "cyclic 2"],
        "factors_B": ["cyclic 2", "cyclic 2"],
        "theta": [sign, [0, 1]],
        "subgroup": S5Z2_SUBGROUP,
    }


def test_rejection_names_every_retry(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", s5z2_system())
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json")]) == 1
    err = capsys.readouterr().err
    assert "all 8 transversal retries rejected" in err
    for order_seed in range(8):
        assert f"order_seed {order_seed}: H_1 has a nontrivial piece in factor 0" in err
