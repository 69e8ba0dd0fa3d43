import argparse
import copy
import itertools
import json
import random
import re

import pytest
from hypothesis import given, settings, strategies as st

from freedecomp import build_core as real_build_core
from freedecomp import cli, conjecture, covgraph, fingroup, verify
from freedecomp.cli import main
from freedecomp.conjecture import canonical_generators
from freedecomp.fingroup import FiniteGroup, sym
from freedecomp.freeprod import format_word

from conftest import NONASSOC_LOOP, dihedral_point_stabilizer, relabel, sign_map
from naive_enum import cubic_associative

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
    assert len(report["checks"]) == 6

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
    # no command has a bound, so none exits 2: a file's bound of one coset
    # stops nothing, and the flags that set or needed a bound are usage
    # errors; graph writes H's core, the graph decompose --dot writes
    phase2 = dict(SYS_A, subgroup=["0:1", "1:1 0:1 1:1 0:1 1:1"], bounds={"max_cosets": 1})
    sys_file = write(tmp_path, "sys.json", phase2)
    dot_file = tmp_path / "core.dot"
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json"), "--dot", str(dot_file)]) == 0
    assert main(["graph", sys_file, "--dot", str(tmp_path / "g.dot")]) == 0
    assert (tmp_path / "g.dot").read_text() == dot_file.read_text()
    capsys.readouterr()
    for argv, flags in (
        (["decompose", sys_file, "-o", str(tmp_path / "x.json")], "--max-cosets 1"),
        (["graph", sys_file], "--complete"),
        (["graph", sys_file], "--max-cosets 2"),
    ):
        assert main(argv + flags.split()) == 3
        assert f"unrecognized arguments: {flags}" in capsys.readouterr().err


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


@pytest.mark.parametrize(
    "field, value, message",
    [
        ("subgroup", [5], "subgroup must be a list of word strings"),
        ("subgroup", "0:1", "subgroup must be a list of word strings"),
        ("theta", 5, "theta must list one index map per factor"),
    ],
    ids=["subgroup-int-entry", "subgroup-string", "theta-int"],
)
def test_malformed_system_field_is_invalid_input(tmp_path, capsys, field, value, message):
    sys_file = write(tmp_path, "sys.json", dict(SYS_B, **{field: value}))
    for argv in (["kurosh", sys_file], ["decompose", sys_file, "-o", str(tmp_path / "c.json")]):
        assert main(argv) == 3
        assert message in capsys.readouterr().err


@pytest.mark.parametrize(
    "bounds",
    [[], {"max_cosets": "abc"}, {"max_cosets": -1}, {"max_cosets": 0}, {"max_cosets": 10_000}],
    ids=["bounds-list", "max-cosets-string", "max-cosets-negative", "max-cosets-zero", "max-cosets-valid"],
)
def test_bounds_key_is_ignored(tmp_path, capsys, bounds):
    # no command reads a bound, so a bounds key, whatever its value, is
    # ignored like any unknown key: every command answers as without it
    def answers(payload):
        sys_file = write(tmp_path, "sys.json", payload)
        cert_file, dot_file = tmp_path / "c.json", tmp_path / "g.dot"
        out = []
        for argv in (
            ["decompose", sys_file, "-o", str(cert_file)],
            ["verify", sys_file, str(cert_file)],
            ["kurosh", sys_file],
            ["graph", sys_file, "--dot", str(dot_file)],
            ["member", sys_file, "1:1 0:1 1:1"],
            ["normalform", sys_file, "0:1 1:1 1:1"],
        ):
            code = main(argv)
            stdout, stderr = capsys.readouterr()
            out.append((code, re.sub(r"\(\d+\.\d ms\)", "", stdout), stderr))
        return out + [cert_file.read_text(), dot_file.read_text()]

    plain = answers(SYS_A)
    assert [code for code, _, _ in plain[:6]] == [0] * 6
    assert answers(dict(SYS_A, bounds=bounds)) == plain


def test_non_positive_max_cosets_flag_is_invalid_input(tmp_path, capsys):
    # graph has no coset bound left to set, so the flag is a usage error
    sys_file = write(tmp_path, "sys.json", SYS_B)
    assert main(["graph", sys_file, "--max-cosets", "0"]) == 3
    assert "unrecognized arguments: --max-cosets 0" in capsys.readouterr().err


@pytest.mark.parametrize(
    "table", [NONASSOC_LOOP, relabel(NONASSOC_LOOP, [3, 1, 2, 0, 4])], ids=["identity-0", "identity-3"]
)
def test_non_associative_table_is_invalid_input(tmp_path, capsys, table):
    sys_file = write(tmp_path, "sys.json", {"factors_G": [table, "cyclic 2"], "subgroup": ["1:1"]})
    for argv in (["kurosh", sys_file], ["decompose", sys_file, "-o", str(tmp_path / "c.json")]):
        assert main(argv) == 3
        named = re.search(r"invalid input: \((\d+)\*(\d+)\)\*(\d+) != ", capsys.readouterr().err)
        x, a, y = map(int, named.groups())
        assert table[table[x][a]][y] != table[x][table[a][y]]


@pytest.mark.parametrize(
    "source, target, theta",
    [
        ("sym 3", "cyclic 2", [s ^ (x == 3) for x, s in enumerate(sign_map(3))]),
        ("cyclic 4", "cyclic 2", [0, 1, 0, 0]),
    ],
    ids=["S3-sign-broken-at-3", "Z4-mod-2-broken-at-3"],
)
def test_non_homomorphic_theta_is_invalid_input(tmp_path, capsys, source, target, theta):
    group = cli._load_group(source, "G0")
    assert 3 not in fingroup._generators(group.mul)  # theta breaks the law off the generators
    data = {"factors_G": [source], "factors_B": [target], "theta": [theta], "subgroup": []}
    sys_file = write(tmp_path, "sys.json", data)
    for argv in (["kurosh", sys_file], ["decompose", sys_file, "-o", str(tmp_path / "c.json")]):
        assert main(argv) == 3
        named = re.search(r"invalid input: map\((\d+)\*(\d+)\) != ", capsys.readouterr().err)
        x, a = map(int, named.groups())
        image = cli._load_group(target, "B0")
        assert theta[group.mul[x][a]] != image.mul[theta[x]][theta[a]]


def test_large_tables_load_as_the_oracle_validates_them():
    # A relabelled S5 with its identity off index 0 and the shorthand Z400.
    perm = list(range(120))
    random.Random(5).shuffle(perm)
    s5 = relabel(sym(5).mul, perm)
    system, _, _ = cli.load_system({"factors_G": ["cyclic 400", {"name": "S5", "table": s5}]})
    z400, loaded_s5 = system.factors_g

    # Z400 is associative by arithmetic; the cubic oracle would take seconds.
    z400_rows = tuple(tuple((i + j) % 400 for j in range(400)) for i in range(400))
    assert z400 == FiniteGroup(400, z400_rows, tuple(-i % 400 for i in range(400)), "Z400")
    assert cubic_associative(s5) is None
    e = perm[0]
    swap = list(range(120))
    swap[0], swap[e] = e, 0
    rows = relabel(s5, swap)
    assert loaded_s5 == FiniteGroup(120, tuple(map(tuple, rows)), tuple(row.index(0) for row in rows), "S5")
    assert [h.map for h in system.theta] == [tuple(range(400)), tuple(range(120))]


@pytest.mark.parametrize("n", [fingroup.CYCLIC_MAX + 1, 10**20])
def test_cyclic_past_its_cap_is_invalid_input_before_any_table_is_built(tmp_path, capsys, monkeypatch, n):
    def no_table(order):
        raise AssertionError(f"built the order-{order} table")

    monkeypatch.setattr(fingroup, "_cyclic_table", no_table)
    sys_file = write(tmp_path, "sys.json", {"factors_G": [f"cyclic {n}"], "subgroup": []})
    assert main(["kurosh", sys_file]) == 3
    err = capsys.readouterr().err
    assert err == f"invalid input: cyclic(n) supports 1 <= n <= {fingroup.CYCLIC_MAX}, got {n}\n"


def test_shorthand_groups_are_built_once(monkeypatch):
    # cyclic and sym are cached, so loading a shorthand-only system again
    # validates no table, while an explicit table is validated on every load
    calls = []
    validate = fingroup.validate_group

    def counting(table, name="G"):
        calls.append(name)
        return validate(table, name)

    monkeypatch.setattr(fingroup, "validate_group", counting)
    monkeypatch.setattr(cli, "validate_group", counting)
    shorthand = {
        "factors_G": ["cyclic 6", "sym 4"],
        "factors_B": ["cyclic 2", "cyclic 1"],
        "theta": [[0, 1] * 3, [0] * 24],
    }
    first, _, _ = cli.load_system(shorthand)
    calls.clear()
    again, _, _ = cli.load_system(shorthand)
    assert calls == []
    assert again.factors_g[0] is first.factors_g[0] and again.factors_b[1] is first.factors_b[1]
    explicit = {"factors_G": [[[0, 1], [1, 0]], "cyclic 3"]}
    for _ in range(2):
        calls.clear()
        cli.load_system(explicit)
        assert calls == ["G0"]


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
    # the trivial subgroup of an infinite product has infinite index;
    # kurosh and graph read its one-vertex core and no coset bound, so the
    # file's bound stops nothing
    sys_file = write(
        tmp_path, "sys.json", {"factors_G": ["cyclic 2", "cyclic 2"], "subgroup": [], "bounds": {"max_cosets": 40}}
    )
    assert main(["kurosh", sys_file]) == 0
    assert json.loads(capsys.readouterr().out) == {"pieces": [], "free_basis": [], "free_rank": 0}
    assert main(["graph", sys_file]) == 0
    assert capsys.readouterr().out == "digraph coregraph {\n  rankdir=LR;\n  v0 [shape=doublecircle];\n}\n"


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


def test_certificate_with_an_h_generators_key_still_verifies(tmp_path, capsys):
    # certificates written before the field was dropped carry "h_generators";
    # the parser ignores keys it does not read, whatever their value
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert_file = str(tmp_path / "cert.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    assert "h_generators" not in cert
    for value in (["0:1", "1:1 0:1 1:1"], ["0:1"], [1]):
        old_file = write(tmp_path, "old.json", dict(cert, h_generators=value))
        capsys.readouterr()
        assert main(["verify", sys_file, old_file]) == 0
        assert "verdict: pass" in capsys.readouterr().out


def test_certificate_without_provenance_keys_still_verifies(tmp_path, capsys):
    # no check reads beta_primes, g_corrections or tree_transversal, so a
    # certificate without them verifies; decompose writes no transversal,
    # and a certificate that carries one, with a word per coset of the
    # complete graph or per vertex of the core, as older certificates do,
    # verifies alike
    trivial_in_s3 = {"factors_G": ["sym 3"], "factors_B": ["cyclic 1"], "theta": [[0] * 6], "subgroup": []}
    for payload, transversals in ((SYS_A, [["", "1:1"]]), (trivial_in_s3, [[""], [""] + [f"0:{g}" for g in range(1, 6)]])):
        sys_file = write(tmp_path, "sys.json", payload)
        cert_file = str(tmp_path / "cert.json")
        assert main(["decompose", sys_file, "-o", cert_file]) == 0
        cert = json.loads((tmp_path / "cert.json").read_text())
        assert "tree_transversal" not in cert
        bare = dict(cert)
        bare["factors"] = [
            {key: value for key, value in fc.items() if key not in ("beta_primes", "g_corrections")}
            for fc in cert["factors"]
        ]
        for doc in [bare] + [dict(cert, tree_transversal=words) for words in transversals]:
            capsys.readouterr()
            assert main(["verify", sys_file, write(tmp_path, "old.json", doc)]) == 0
            assert "verdict: pass" in capsys.readouterr().out


def test_decompose_verify_and_kurosh_never_complete(tmp_path, monkeypatch, capsys):
    # every command works on H's core, so H = <a> in Z2 * Z3 onto Z2 * 1,
    # of infinite index, decomposes into H_0 = <a> and H_1 = 1
    def no_completion(*args):
        raise AssertionError("a command completed a coset graph")

    monkeypatch.setattr(covgraph, "complete_graph", no_completion)
    payload = {
        "factors_G": ["cyclic 2", "cyclic 3"],
        "factors_B": ["cyclic 2", "cyclic 1"],
        "theta": [[0, 1], [0, 0, 0]],
        "subgroup": ["0:1"],
    }
    sys_file = write(tmp_path, "sys.json", payload)
    cert_file, dot_file = str(tmp_path / "cert.json"), tmp_path / "core.dot"
    assert main(["decompose", sys_file, "-o", cert_file, "--dot", str(dot_file)]) == 0
    fc0, fc1 = json.loads((tmp_path / "cert.json").read_text())["factors"]
    assert (fc0["reps"], fc0["vertex_groups"], fc0["f_basis"]) == ([""], [["0:1"]], [])
    assert (fc1["reps"], fc1["vertex_groups"], fc1["f_basis"]) == ([], [], [])
    assert dot_file.read_text().count("->") == 1  # the core: one vertex with its a-loop
    assert main(["verify", sys_file, cert_file]) == 0
    capsys.readouterr()
    assert main(["kurosh", sys_file]) == 0
    out = json.loads(capsys.readouterr().out)
    assert [p["rep"] for p in out["pieces"]] == [""] and out["free_rank"] == 0
    assert main(["graph", sys_file]) == 0
    assert capsys.readouterr().out == dot_file.read_text()
    assert main(["member", sys_file, "1:1 0:1 1:2"]) == 0
    assert capsys.readouterr().out == "false\n"


def test_unreadable_file(tmp_path):
    assert main(["decompose", str(tmp_path / "missing.json"), "-o", str(tmp_path / "c.json")]) == 3


def test_tree_bounds_are_not_settable(tmp_path, capsys):
    # the transversal search's bounds are constants: a file's tree keys are
    # ignored like any unknown key, and decompose has no flag for them
    sys_file = write(tmp_path, "sys.json", dict(SYS_A, bounds={"tree_retries": 0, "tree_word_bound": -1}))
    assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json")]) == 0
    capsys.readouterr()
    for flag in ("--tree-retries", "--tree-word-bound"):
        assert main(["decompose", sys_file, "-o", str(tmp_path / "c.json"), flag, "2"]) == 3
        assert f"unrecognized arguments: {flag} 2" in capsys.readouterr().err


def test_dihedral_stabilizers_past_the_old_depth_cap_decompose(tmp_path, capsys):
    # a search capped at 64 edges finds no transversal word for the far end
    # of these path-shaped coset graphs (test_higgins checks the oracle)
    for n in (67, 100, 140):
        _, gens = dihedral_point_stabilizer(n)  # the system of SYS_A
        sys_file = write(tmp_path, f"d{n}.json", dict(SYS_A, subgroup=[format_word(w) for w in gens]))
        cert_file = str(tmp_path / f"c{n}.json")
        assert main(["decompose", sys_file, "-o", cert_file]) == 0
        assert main(["verify", sys_file, cert_file]) == 0
        assert "verdict: pass" in capsys.readouterr().out


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
# lexicographic order); under them every transversal retry of the
# transversal search put a piece of H_1 in factor 0, while H's reduced
# Kurosh basis decomposes it.
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


def test_pinned_s5z2_system_decomposes_and_verifies(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", s5z2_system())
    cert_file = str(tmp_path / "c.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    assert "verdict: pass" in capsys.readouterr().out
    assert main(["verify", sys_file, cert_file]) == 0
    assert "verdict: pass" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flags",
    [
        ("decompose", set()),
        ("kurosh", set()),
        ("verify", set()),
        ("graph", set()),
        ("normalform", set()),
        ("member", set()),
    ],
)
def test_bound_flags_only_where_read(capsys, command, flags):
    # no command reads a bound, so none takes a bound flag
    assert main([command, "--help"]) == 0
    out = capsys.readouterr().out
    bound_flags = {"--max-cosets", "--tree-word-bound", "--tree-retries"}
    assert {f for f in bound_flags if f in out} == flags


def test_flag_a_subcommand_does_not_read_is_a_usage_error(tmp_path, capsys):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    assert main(["member", sys_file, "0:1", "--max-cosets", "0"]) == 3
    assert "unrecognized arguments: --max-cosets 0" in capsys.readouterr().err
    cert_file = str(tmp_path / "cert.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    assert main(["verify", sys_file, cert_file, "--tree-retries", "0"]) == 3
    assert "unrecognized arguments: --tree-retries 0" in capsys.readouterr().err


def test_usage_errors_exit_3_and_help_exits_0(tmp_path, capsys):
    assert main(["bogus"]) == 3
    assert main([]) == 3
    assert main(["kurosh"]) == 3
    assert main(["kurosh", write(tmp_path, "sys.json", SYS_B), "--max-cosets", "many"]) == 3
    assert "usage:" in capsys.readouterr().err
    assert main(["--help"]) == 0
    assert "usage:" in capsys.readouterr().out


@pytest.mark.parametrize(
    "command, flag",
    [
        ("kurosh", "-o"),
        ("decompose", "-o"),
        ("decompose", "--report"),
        ("decompose", "--dot"),
        ("verify", "-o"),
        ("graph", "--dot"),
    ],
)
def test_unwritable_output_path_is_invalid_input(tmp_path, capsys, command, flag):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert_file = str(tmp_path / "cert.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    argv = [command, sys_file]
    if command == "decompose" and flag != "-o":
        argv += ["-o", str(tmp_path / "c2.json")]
    if command == "verify":
        argv.append(cert_file)
    capsys.readouterr()
    for bad in (str(tmp_path / "missing" / "out.txt"), str(tmp_path)):
        assert main(argv + [flag, bad]) == 3
        assert capsys.readouterr().err.startswith(f"invalid input: cannot write {bad}: ")


@pytest.mark.parametrize("bad_flag", ["--dot", "--report"])
def test_failed_decompose_write_leaves_no_outputs(tmp_path, capsys, bad_flag):
    # every output is rendered before the first write, and the files
    # written before a failing one are removed again
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert, dot, report = (tmp_path / name for name in ("c.json", "g.dot", "r.json"))
    bad = str(tmp_path / "missing" / "out.txt")
    paths = {"--dot": str(dot), "--report": str(report), bad_flag: bad}
    argv = ["decompose", sys_file, "-o", str(cert), "--dot", paths["--dot"], "--report", paths["--report"]]
    assert main(argv) == 3
    assert capsys.readouterr().err.startswith(f"invalid input: cannot write {bad}: ")
    assert sorted(p.name for p in tmp_path.iterdir()) == ["sys.json"]
    assert main(["decompose", sys_file, "-o", str(cert), "--dot", str(dot), "--report", str(report)]) == 0
    assert sorted(p.name for p in tmp_path.iterdir()) == ["c.json", "g.dot", "r.json", "sys.json"]


def _parser_sequence(tmp_path) -> list[list[str]]:
    """Seven main calls: two passes, a usage error, --help, a flag the
    subcommand does not read, a removed flag and a malformed file."""
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert_file = str(tmp_path / "cert.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    return [
        ["decompose", sys_file, "-o", cert_file, "--report", str(tmp_path / "report.json")],
        ["verify", sys_file, cert_file],
        ["kurosh"],
        ["verify", "--help"],
        ["member", sys_file, "0:1", "--max-cosets", "0"],
        ["graph", sys_file, "--complete"],
        ["kurosh", write(tmp_path, "bad.json", {"factors_G": []})],
    ]


def test_main_builds_its_parser_once_per_process(tmp_path, monkeypatch):
    sequence = _parser_sequence(tmp_path)
    built = []
    real_init = argparse.ArgumentParser.__init__

    def counting_init(self, *args, **kwargs):
        built.append(kwargs.get("prog"))
        real_init(self, *args, **kwargs)

    cli.build_parser.cache_clear()
    monkeypatch.setattr(argparse.ArgumentParser, "__init__", counting_init)
    assert [main(argv) for argv in sequence] == [0, 0, 3, 0, 3, 3, 3]
    # one top-level parser and one per subcommand, all from the first call
    assert len(built) == 7


def test_shared_parser_answers_do_not_depend_on_call_order(tmp_path, capsys):
    sequence = _parser_sequence(tmp_path)
    capsys.readouterr()

    def run(argv):
        code = main(argv)
        out, err = capsys.readouterr()
        return code, re.sub(r"\(\d+\.\d ms\)", "", out), err

    forward = [run(argv) for argv in sequence]
    backward = [run(argv) for argv in reversed(sequence)][::-1]
    assert forward == backward
    assert "usage: freedecomp verify" in forward[3][1]
    assert "usage: freedecomp kurosh" in forward[2][2]


def test_uncaught_exception_is_an_internal_error(tmp_path, monkeypatch, capsys):
    def crash(*args, **kwargs):
        raise KeyError("boom")

    monkeypatch.setattr(cli, "kurosh_decompose", crash)
    assert main(["kurosh", write(tmp_path, "sys.json", SYS_B)]) == cli.EXIT_INTERNAL == 4
    err = capsys.readouterr().err
    assert err == "internal error: KeyError: 'boom'\n"


@pytest.mark.parametrize(
    "path, value",
    [
        (("factors", 0, "reps"), [[]]),
        (("factors", 0, "f_basis"), [["0:1"]]),
        (("factors", 0, "beta_primes"), [None]),
        (("factors", 0, "vertex_groups"), ["0:1"]),
        (("factors", 0, "vertex_groups"), [[7]]),
        (("factors", 1, "g_corrections"), [{}]),
        (("tree_transversal",), "0:1"),
    ],
)
def test_malformed_certificate_word_is_invalid_input(tmp_path, capsys, path, value):
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert_file = str(tmp_path / "cert.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    _set_path(cert, path, value)
    bad_file = write(tmp_path, "bad.json", cert)
    capsys.readouterr()
    assert main(["verify", sys_file, bad_file]) == 3
    assert "invalid input: expected a list of word strings" in capsys.readouterr().err


@pytest.mark.parametrize("index, lam", [(0, 0.0), (1, 1.0), (1, True), (0, "0")])
def test_non_integer_factor_label_is_invalid_input(tmp_path, capsys, index, lam):
    # 0.0 == 0 and True == 1, but only an int labels a factor
    sys_file = write(tmp_path, "sys.json", SYS_A)
    cert_file = str(tmp_path / "cert.json")
    assert main(["decompose", sys_file, "-o", cert_file]) == 0
    cert = json.loads((tmp_path / "cert.json").read_text())
    cert["factors"][index]["lam"] = lam
    bad_file = write(tmp_path, "bad.json", cert)
    capsys.readouterr()
    assert main(["verify", sys_file, bad_file]) == 3
    assert capsys.readouterr().err == f"invalid input: factor entry {index} labeled {lam}\n"


def _set_path(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


def _paths(doc, prefix=()):
    yield prefix
    if isinstance(doc, dict):
        for key, value in doc.items():
            yield from _paths(value, prefix + (key,))
    elif isinstance(doc, list):
        for i, value in enumerate(doc):
            yield from _paths(value, prefix + (i,))


_JSON_VALUES = st.recursive(
    st.none()
    | st.booleans()
    | st.integers(-3, 12)
    | st.sampled_from(["", "0:1", "1:1 0:1 1:1", "0:2", "2:1", "1:", "x", "cyclic 2", "sym 3", "cyclic 0"]),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.sampled_from(["lam", "table", "max_cosets", "reps", "factors", "x"]), inner, max_size=3),
    max_leaves=8,
)


@st.composite
def _mutated(draw, doc):
    """``doc`` with one or two nodes replaced by small JSON values or deleted."""
    doc = copy.deepcopy(doc)
    for _ in range(draw(st.integers(1, 2))):
        path = draw(st.sampled_from(list(_paths(doc))))
        if path and draw(st.booleans()):
            parent = doc
            for key in path[:-1]:
                parent = parent[key]
            del parent[path[-1]]
        elif path:
            _set_path(doc, path, draw(_JSON_VALUES))
        else:
            doc = draw(_JSON_VALUES)
    return doc


def _fuzz_files(directory):
    # every command runs on a valid system file and certificate first
    sys_file = directory / "sys.json"
    cert_file = directory / "cert.json"
    if not cert_file.exists():
        sys_file.write_text(json.dumps(dict(SYS_A, bounds={"max_cosets": 64})), encoding="utf-8")
        assert main(["decompose", str(sys_file), "-o", str(cert_file)]) == 0
    return json.loads(sys_file.read_text()), json.loads(cert_file.read_text())


@given(data=st.data())
@settings(max_examples=150, deadline=None)
def test_mutated_inputs_exit_0_to_3(tmp_path_factory, data):
    # every input ends in a documented exit code, never an internal error
    directory = tmp_path_factory.getbasetemp() / "fuzz"
    directory.mkdir(exist_ok=True)
    system, cert = _fuzz_files(directory)
    if data.draw(st.booleans(), label="mutate the system"):
        system = data.draw(_mutated(system), label="system")
    else:
        cert = data.draw(_mutated(cert), label="certificate")
    sys_file = directory / "mutated-sys.json"
    cert_file = directory / "mutated-cert.json"
    sys_file.write_text(json.dumps(system), encoding="utf-8")
    cert_file.write_text(json.dumps(cert), encoding="utf-8")
    for argv in (
        ["verify", str(sys_file), str(cert_file)],
        ["kurosh", str(sys_file)],
        ["decompose", str(sys_file), "-o", str(directory / "out.json")],
        ["graph", str(sys_file), "--dot", str(directory / "g.dot")],
        ["member", str(sys_file), "1:1 0:1 1:1"],
        ["normalform", str(sys_file), "0:1 1:1", "--side", "B"],
    ):
        assert main(argv) in (0, 1, 3), argv
