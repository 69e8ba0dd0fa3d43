"""Command-line interface: JSON in, certificates/reports/DOT out.

Exit codes: 0 success, 1 verification or decomposition failure, 2 bound
exceeded, 3 invalid input.
"""

from __future__ import annotations

import argparse
import json
import sys as _sys
from pathlib import Path

from .conjecture import (
    BetaImageNotInFactor,
    Bounds,
    CertificateRejected,
    ConjectureCertificate,
    CrossFactorPieceNontrivial,
    FactorCertificate,
    ThetaNotSurjectiveOntoB,
    decompose_and_check,
)
from .covgraph import IndexBoundExceeded, build_core, canonicalize, complete_graph, membership, to_dot
from .fingroup import GroupTableError, NotAHomomorphism, NotSurjective, cyclic, sym, validate_group
from .freeprod import FactorSystem, format_word, make_system, parse_word
from .higgins import TreeBoundExceeded
from .kurosh import kurosh_decompose
from .verify import MalformedCertificate, VerificationReport, verify_certificate

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_BOUND = 2
EXIT_INVALID = 3


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
    if isinstance(entry, list):
        return validate_group(entry, name=default_name)
    if isinstance(entry, dict) and "table" in entry:
        return validate_group(entry["table"], name=entry.get("name", default_name))
    raise InputError(f"cannot interpret group entry {entry!r}")


def load_system(data: dict) -> tuple[FactorSystem, list, Bounds]:
    """Build a validated system, subgroup generators and bounds from JSON."""
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
        if theta_maps is None or len(theta_maps) != len(raw_g):
            raise InputError("theta must list one index map per factor")
    else:
        factors_b = factors_g
        theta_maps = data.get("theta", [list(range(g.order)) for g in factors_g])
    system = make_system(factors_g, factors_b, theta_maps)

    gens = [parse_word(system, "G", w) for w in data.get("subgroup", [])]

    raw_bounds = data.get("bounds", {})
    bounds = Bounds(
        max_cosets=raw_bounds.get("max_cosets", 10_000),
        tree_word_bound=raw_bounds.get("tree_word_bound", 12),
        tree_retries=raw_bounds.get("tree_retries", 8),
    )
    return system, gens, bounds


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
    else:
        Path(path).write_text(text, encoding="utf-8")


def certificate_to_json(cert: ConjectureCertificate) -> dict:
    return {
        "system_hash": cert.system_hash,
        "h_generators": [format_word(w) for w in cert.h_generators],
        "factors": [
            {
                "lam": fc.lam,
                "beta_list": [format_word(w) for w in fc.beta_list],
                "beta_primes": [format_word(w) for w in fc.beta_primes],
                "g_corrections": [format_word(w) for w in fc.g_corrections],
                "reps": [format_word(w) for w in fc.reps],
                "vertex_groups": [[format_word(w) for w in vg] for vg in fc.vertex_groups],
                "f_basis": [format_word(w) for w in fc.f_basis],
                "h_lambda_gens": [format_word(w) for w in fc.h_lambda_gens],
            }
            for fc in cert.factors
        ],
        "tree_transversal": [format_word(w) for w in cert.tree_transversal],
    }


def certificate_from_json(system: FactorSystem, data: dict) -> ConjectureCertificate:
    def words(items):
        try:
            return tuple(parse_word(system, "G", w) for w in items)
        except (ValueError, TypeError) as exc:
            raise MalformedCertificate(str(exc)) from exc

    try:
        factors = tuple(
            FactorCertificate(
                lam=fc["lam"],
                beta_list=words(fc["beta_list"]),
                beta_primes=words(fc["beta_primes"]),
                g_corrections=words(fc["g_corrections"]),
                reps=words(fc["reps"]),
                vertex_groups=tuple(words(vg) for vg in fc["vertex_groups"]),
                f_basis=words(fc["f_basis"]),
                h_lambda_gens=words(fc["h_lambda_gens"]),
            )
            for fc in data["factors"]
        )
        return ConjectureCertificate(
            system_hash=data["system_hash"],
            h_generators=words(data["h_generators"]),
            factors=factors,
            tree_transversal=words(data["tree_transversal"]),
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
    system, gens, bounds = load_system(_read_json(args.system))
    bounds = _merge_bounds(bounds, args)
    cert, report, graph = decompose_and_check(system, gens, bounds)
    _write(args.output, _dump(certificate_to_json(cert)))
    if args.dot:
        _write(args.dot, to_dot(graph))
    if args.report:
        _write(args.report, _dump(report_to_json(report)))
    print(report.summary())
    return EXIT_OK


def cmd_kurosh(args) -> int:
    system, gens, bounds = load_system(_read_json(args.system))
    bounds = _merge_bounds(bounds, args)
    graph = canonicalize(complete_graph(system, build_core(system, gens), bounds.max_cosets))
    decomp = kurosh_decompose(system, graph)
    _write(args.output, _dump(kurosh_to_json(decomp)))
    return EXIT_OK


def cmd_verify(args) -> int:
    system, gens, bounds = load_system(_read_json(args.system))
    bounds = _merge_bounds(bounds, args)
    cert = certificate_from_json(system, _read_json(args.certificate))
    report = verify_certificate(system, gens, cert, max_cosets=bounds.max_cosets)
    if args.output:
        _write(args.output, _dump(report_to_json(report)))
    print(report.summary())
    return EXIT_OK if report.verdict else EXIT_VERIFY_FAILED


def cmd_graph(args) -> int:
    system, gens, bounds = load_system(_read_json(args.system))
    bounds = _merge_bounds(bounds, args)
    graph = build_core(system, gens)
    if args.complete:
        graph = complete_graph(system, graph, bounds.max_cosets)
    _write(args.dot, to_dot(canonicalize(graph)))
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


def _merge_bounds(bounds: Bounds, args) -> Bounds:
    return Bounds(
        max_cosets=args.max_cosets if args.max_cosets is not None else bounds.max_cosets,
        tree_word_bound=args.tree_word_bound if args.tree_word_bound is not None else bounds.tree_word_bound,
        tree_retries=args.tree_retries if args.tree_retries is not None else bounds.tree_retries,
    )


def _add_bound_flags(p: argparse.ArgumentParser) -> None:
    p.add_argument("--max-cosets", type=int, default=None, help="coset bound for completions (default 10000)")
    p.add_argument("--tree-word-bound", type=int, default=None, help="image length bound in transversal search")
    p.add_argument("--tree-retries", type=int, default=None, help="transversal retry budget (default 8)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="freedecomp", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("decompose", help="decompose a subgroup factor-wise and verify the certificate")
    p.add_argument("system")
    p.add_argument("-o", "--output", default="certificate.json")
    p.add_argument("--report", default=None, help="also write the report as JSON")
    p.add_argument("--dot", default=None, help="write the coset graph as DOT")
    _add_bound_flags(p)
    p.set_defaults(fn=cmd_decompose)

    p = sub.add_parser("kurosh", help="free-product decomposition of a subgroup")
    p.add_argument("system")
    p.add_argument("-o", "--output", default="-")
    _add_bound_flags(p)
    p.set_defaults(fn=cmd_kurosh)

    p = sub.add_parser("verify", help="re-verify a certificate")
    p.add_argument("system")
    p.add_argument("certificate")
    p.add_argument("-o", "--output", default=None)
    _add_bound_flags(p)
    p.set_defaults(fn=cmd_verify)

    p = sub.add_parser("graph", help="emit the subgroup graph as DOT")
    p.add_argument("system")
    p.add_argument("--complete", action="store_true", help="complete to the full coset graph first")
    p.add_argument("--dot", default="-", help="output path (default stdout)")
    _add_bound_flags(p)
    p.set_defaults(fn=cmd_graph)

    p = sub.add_parser("normalform", help="normal form of a word")
    p.add_argument("system")
    p.add_argument("word")
    p.add_argument("--side", choices=("G", "B"), default="G")
    _add_bound_flags(p)
    p.set_defaults(fn=cmd_normalform)

    p = sub.add_parser("member", help="test membership of a word in the subgroup")
    p.add_argument("system")
    p.add_argument("word")
    _add_bound_flags(p)
    p.set_defaults(fn=cmd_member)

    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.fn(args)
    except (IndexBoundExceeded, TreeBoundExceeded) as exc:
        print(f"bound exceeded: {exc}", file=_sys.stderr)
        return EXIT_BOUND
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
    except (CrossFactorPieceNontrivial, BetaImageNotInFactor, CertificateRejected) as exc:
        print(f"decomposition failed: {exc}", file=_sys.stderr)
        return EXIT_VERIFY_FAILED


if __name__ == "__main__":
    raise SystemExit(main())
