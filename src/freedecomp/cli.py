"""Command-line interface: JSON in, certificates/reports/DOT out.

Exit codes: 0 success, 1 verification or decomposition failure, 3 invalid
input (including command-line usage errors and output paths that cannot be
written; ``decompose`` then removes the outputs it already wrote), 4
internal error (an uncaught exception, reported as ``internal error:
<type>: <msg>``).  Every command that reads H works on H's core, which
is never completed, so no command has a bound and H may have infinite
index.
"""

from __future__ import annotations

import argparse
import functools
import json
import sys as _sys
from pathlib import Path

from .conjecture import (
    Bounds,
    CertificateRejected,
    ConjectureCertificate,
    FactorCertificate,
    ThetaNotSurjectiveOntoB,
    decompose_and_check,
)
from .covgraph import build_core, membership, to_dot
from .fingroup import GroupTableError, NotAHomomorphism, NotSurjective, cyclic, sym, validate_group
from .freeprod import FactorSystem, format_word, make_system, parse_word
from .kurosh import kurosh_decompose
from .verify import MalformedCertificate, VerificationReport, verify_certificate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 3
EXIT_INTERNAL = 4


class InputError(ValueError):
    pass


def _load_group(entry, default_name: str):
    if isinstance(entry, str):
        parts = entry.split()
        if len(parts) == 2 and parts[0] in ("cyclic", "sym"):
            try:
                n = int(parts[1])
            except ValueError as exc:
                raise InputError(f"bad group shorthand {entry!r}") from exc
            return cyclic(n) if parts[0] == "cyclic" else sym(n)
        raise InputError(f"unknown group shorthand {entry!r} (use 'cyclic n' or 'sym n')")
    if isinstance(entry, dict) and "table" in entry:
        default_name, entry = entry.get("name", default_name), entry["table"]
    if _is_list_of(entry, list):
        return validate_group(entry, name=default_name)
    raise InputError(f"cannot interpret group entry {entry!r}")


def _is_list_of(value, kind) -> bool:
    return isinstance(value, list) and all(isinstance(x, kind) for x in value)


def load_system(data: dict) -> tuple[FactorSystem, list, Bounds]:
    """Build a validated system and subgroup generators from JSON; other
    keys, ``bounds`` among them, are ignored.  The third value is always
    ``Bounds()``: the benchmark harness unpacks three and reads it."""
    if not isinstance(data, dict) or "factors_G" not in data:
        raise InputError("system file must be an object with a factors_G list")
    raw_g = data["factors_G"]
    if not isinstance(raw_g, list) or not raw_g:
        raise InputError("factors_G must be a nonempty list")
    factors_g = [_load_group(entry, f"G{i}") for i, entry in enumerate(raw_g)]
    if "factors_B" in data:
        raw_b = data["factors_B"]
        if not isinstance(raw_b, list) or len(raw_b) != len(raw_g):
            raise InputError("factors_B must match factors_G in length")
        factors_b = [_load_group(entry, f"B{i}") for i, entry in enumerate(raw_b)]
        theta_maps = data.get("theta")
    else:
        factors_b = factors_g
        theta_maps = data.get("theta", [list(range(g.order)) for g in factors_g])
    if not _is_list_of(theta_maps, list) or len(theta_maps) != len(raw_g):
        raise InputError("theta must list one index map per factor")
    system = make_system(factors_g, factors_b, theta_maps)

    raw_gens = data.get("subgroup", [])
    if not _is_list_of(raw_gens, str):
        raise InputError("subgroup must be a list of word strings")
    gens = [parse_word(system, "G", w) for w in raw_gens]
    return system, gens, Bounds()


def _read_json(path: str):
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return json.load(fh)
    except (OSError, json.JSONDecodeError) as exc:
        raise InputError(f"cannot read {path}: {exc}") from exc


def _dump(obj) -> str:
    return json.dumps(obj, indent=2) + "\n"


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        _sys.stdout.write(text)
        return
    try:
        Path(path).write_text(text, encoding="utf-8")
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


def _write_all(outputs) -> None:
    """Write rendered ``(path, text)`` outputs in order; when one cannot be
    written, remove the files already written before raising, so a failed
    command leaves no partial set of outputs behind."""
    written = []
    try:
        for path, text in outputs:
            _write(path, text)
            if path not in (None, "-"):
                written.append(Path(path))
    except InputError:
        for path in written:
            path.unlink(missing_ok=True)
        raise


def certificate_to_json(cert: ConjectureCertificate) -> dict:
    return {
        "system_hash": cert.system_hash,
        "factors": [
            {
                "lam": fc.lam,
                "beta_primes": [format_word(w) for w in fc.beta_primes],
                "g_corrections": [format_word(w) for w in fc.g_corrections],
                "reps": [format_word(w) for w in fc.reps],
                "vertex_groups": [[format_word(w) for w in vg] for vg in fc.vertex_groups],
                "f_basis": [format_word(w) for w in fc.f_basis],
            }
            for fc in cert.factors
        ],
    }


def certificate_from_json(system: FactorSystem, data: dict) -> ConjectureCertificate:
    def words(items):
        if not _is_list_of(items, str):
            raise MalformedCertificate(f"expected a list of word strings, got {items!r}")
        try:
            return tuple(parse_word(system, "G", w) for w in items)
        except (ValueError, TypeError) as exc:
            raise MalformedCertificate(str(exc)) from exc

    # the provenance keys (beta_primes, g_corrections, and the
    # tree_transversal of older certificates) are optional: no check
    # reads them
    try:
        factors = tuple(
            FactorCertificate(
                lam=fc["lam"],
                beta_primes=words(fc.get("beta_primes", [])),
                g_corrections=words(fc.get("g_corrections", [])),
                reps=words(fc["reps"]),
                vertex_groups=tuple(words(vg) for vg in fc["vertex_groups"]),
                f_basis=words(fc["f_basis"]),
            )
            for fc in data["factors"]
        )
        return ConjectureCertificate(
            system_hash=data["system_hash"],
            factors=factors,
            tree_transversal=words(data.get("tree_transversal", [])),
        )
    except (KeyError, TypeError) as exc:
        raise MalformedCertificate(f"certificate JSON malformed: {exc}") from exc


def report_to_json(report: VerificationReport) -> dict:
    return {
        "checks": [
            {
                "name": c.name,
                "status": c.status,
                "details": c.details,
                "elapsed_ms": round(c.elapsed_ms, 3),
            }
            for c in report.checks
        ],
        "verdict": "pass" if report.verdict else "fail",
    }


def kurosh_to_json(decomp) -> dict:
    return {
        "pieces": [
            {
                "lam": p.lam,
                "rep": format_word(p.rep),
                "stabilizer": list(p.stabilizer),
                "vertex_group_gens": [format_word(w) for w in p.vertex_group_gens],
            }
            for p in decomp.pieces
        ],
        "free_basis": [format_word(w) for w in decomp.free_basis],
        "free_rank": decomp.free_rank,
    }


def cmd_decompose(args) -> int:
    system, gens, _ = load_system(_read_json(args.system))
    cert, report, graph = decompose_and_check(system, gens)
    outputs = [(args.output, _dump(certificate_to_json(cert)))]
    if args.dot:
        outputs.append((args.dot, to_dot(graph)))
    if args.report:
        outputs.append((args.report, _dump(report_to_json(report))))
    _write_all(outputs)
    print(report.summary())
    return EXIT_OK


def cmd_kurosh(args) -> int:
    system, gens, _ = load_system(_read_json(args.system))
    decomp = kurosh_decompose(system, build_core(system, gens))
    _write(args.output, _dump(kurosh_to_json(decomp)))
    return EXIT_OK


def cmd_verify(args) -> int:
    system, gens, _ = load_system(_read_json(args.system))
    cert = certificate_from_json(system, _read_json(args.certificate))
    report = verify_certificate(system, gens, cert)
    if args.output:
        _write(args.output, _dump(report_to_json(report)))
    print(report.summary())
    return EXIT_OK if report.verdict else EXIT_VERIFY_FAILED


def cmd_graph(args) -> int:
    system, gens, _ = load_system(_read_json(args.system))
    _write(args.dot, to_dot(build_core(system, gens)))
    return EXIT_OK


def cmd_normalform(args) -> int:
    system, _, _ = load_system(_read_json(args.system))
    word = parse_word(system, args.side, args.word)
    print(format_word(word))
    return EXIT_OK


def cmd_member(args) -> int:
    system, gens, _ = load_system(_read_json(args.system))
    word = parse_word(system, "G", args.word)
    graph = build_core(system, gens)
    print("true" if membership(system, graph, word) else "false")
    return EXIT_OK


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The command-line parser, built on the first call and shared by every
    later one: ``parse_args`` only reads it, so each ``main`` call in a
    process skips rebuilding seven parsers."""
    parser = argparse.ArgumentParser(prog="freedecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a subgroup factor-wise and verify the certificate")
    p.add_argument("system")
    p.add_argument("-o", "--output", default="certificate.json")
    p.add_argument("--report", default=None, help="also write the report as JSON")
    p.add_argument("--dot", default=None, help="write the core of the subgroup as DOT")
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("kurosh", help="free-product decomposition of a subgroup")
    p.add_argument("system")
    p.add_argument("-o", "--output", default="-")
    p.set_defaults(fn=cmd_kurosh)

    p = sub.add_parser("verify", help="re-verify a certificate")
    p.add_argument("system")
    p.add_argument("certificate")
    p.add_argument("-o", "--output", default=None)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("graph", help="emit the core of the subgroup as DOT")
    p.add_argument("system")
    p.add_argument("--dot", default="-", help="output path (default stdout)")
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("normalform", help="normal form of a word")
    p.add_argument("system")
    p.add_argument("word")
    p.add_argument("--side", choices=("G", "B"), default="G")
    p.set_defaults(fn=cmd_normalform)

    p = sub.add_parser("member", help="test membership of a word in the subgroup")
    p.add_argument("system")
    p.add_argument("word")
    p.set_defaults(fn=cmd_member)

    return parser


def main(argv=None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:  # --help exits 0, a usage error 2
        return EXIT_INVALID if exc.code else EXIT_OK
    try:
        return args.fn(args)
    except (
        InputError,
        GroupTableError,
        NotAHomomorphism,
        NotSurjective,
        ThetaNotSurjectiveOntoB,
        MalformedCertificate,
        ValueError,
    ) as exc:
        print(f"invalid input: {exc}", file=_sys.stderr)
        return EXIT_INVALID
    except CertificateRejected as exc:
        print(f"decomposition failed: {exc}", file=_sys.stderr)
        return EXIT_VERIFY_FAILED
    except Exception as exc:
        print(f"internal error: {type(exc).__name__}: {exc}", file=_sys.stderr)
        return EXIT_INTERNAL


if __name__ == "__main__":
    raise SystemExit(main())
