"""Command-line interface: JSON in, certificates/reports/DOT out.

Exit codes: 0 success, 1 verification or decomposition failure, 3 invalid
input (including command-line usage errors and output paths that cannot be
written), 4 internal error (an uncaught exception, reported as ``internal
error: <type>: <msg>``).  Every command that reads H works on H's core,
which is never completed, so no command has a bound and H may have
infinite index.  Each file moves through one OS descriptor, without Python's
buffered text stack: an input's bytes are read whole, decoded as UTF-8
(a file that is not UTF-8 is invalid input naming its path), given text
mode's newline translation and parsed; an output's UTF-8 bytes are written
over any existing file, whose old tail is cut off after that.  Each command
writes one output: ``decompose`` the certificate, ``verify -o`` the report,
``kurosh`` the decomposition and ``graph`` the core as DOT.  An output path
``-`` is stdout, and ``decompose`` and ``verify`` then print their summary
on stderr, so that stdout holds only the JSON.

Implementation notes (not shown by ``--help``).  Each command is declared
once, in ``_COMMANDS``.  ``main`` reads a well-formed command line straight
off that table and builds the argparse parser from it only for help, usage
errors and the spellings only argparse reads (``--out``, ``--output=x``,
``--``, ``-``): right after a garbage collection, argparse's walk over
seven cold parsers costs a small command more than its group theory.
``_dump`` writes indented JSON with a short recursive writer and C string
escaping, not ``json.dumps(obj, indent=2)``: CPython's C encoder does not
indent, so that call runs the generator-based pure-Python encoder, which
is slower for the same bytes.
"""

from __future__ import annotations

import argparse
import functools
import json
import os
import stat
import sys as _sys
from collections.abc import Callable
from typing import NamedTuple

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

_NOTES = "\n\nImplementation notes"  # where --help's description ends

EXIT_OK = 0
EXIT_VERIFY_FAILED = 1
EXIT_INVALID = 3
EXIT_INTERNAL = 4

_READ_SIZE = 1 << 16  # bytes per os.read; a system file of the corpus takes one


class InputError(ValueError):
    pass


def _load_group(entry, default_name: str):
    if isinstance(entry, str):
        parts = entry.split()
        if len(parts) == 2 and parts[0] in ("cyclic", "sym"):
            # n is ASCII decimal: int() alone also reads "1_0", "+3" and "٣"
            try:
                n = int(parts[1]) if parts[1].isascii() and parts[1].isdecimal() else None
            except ValueError:  # more digits than int() converts
                n = None
            if n is None:
                raise InputError(f"bad group shorthand {entry!r}")
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
        fd = os.open(path, os.O_RDONLY)
        try:
            chunks = []
            while chunk := os.read(fd, _READ_SIZE):
                chunks.append(chunk)
        except IsADirectoryError as exc:  # open() named the file, read() does not
            exc.filename = path
            raise
        finally:
            os.close(fd)
        text = b"".join(chunks).decode("utf-8")
        if "\r" in text:  # the newline translation of text mode
            text = text.replace("\r\n", "\n").replace("\r", "\n")
        return json.loads(text)
    except (OSError, ValueError, RecursionError) as exc:  # ValueError covers decoding and JSON
        raise InputError(f"cannot read {path}: {exc}") from exc


def _dump(obj) -> str:
    """``json.dumps(obj, indent=2) + "\\n"``, byte for byte, for dicts with
    str keys, lists, tuples, str, int, float, bool and None."""
    return _json(obj, "\n") + "\n"


_json_str = json.encoder.encode_basestring_ascii  # C; raises TypeError on a non-str


def _json(obj, newline: str) -> str:
    """``obj`` as indented JSON whose lines start with ``newline``."""
    if isinstance(obj, str):
        return _json_str(obj)
    if isinstance(obj, dict):
        if not obj:
            return "{}"
        inner = newline + "  "
        items = [_json_str(key) + ": " + _json(value, inner) for key, value in obj.items()]
        return "{" + inner + ("," + inner).join(items) + newline + "}"
    if isinstance(obj, (list, tuple)):
        if not obj:
            return "[]"
        inner = newline + "  "
        return "[" + inner + ("," + inner).join([_json(value, inner) for value in obj]) + newline + "]"
    if obj is None or isinstance(obj, (bool, float)):
        return json.dumps(obj)
    if isinstance(obj, int):
        return int.__repr__(obj)
    raise TypeError(f"Object of type {type(obj).__name__} is not JSON serializable")


def _write(path: str | None, text: str) -> None:
    if path is None or path == "-":
        _sys.stdout.write(text)
        return
    data = text.encode("utf-8")
    try:
        # no O_TRUNC: freeing the old blocks costs more than overwriting them
        fd = os.open(path, os.O_WRONLY | os.O_CREAT, 0o666)
        try:
            view = memoryview(data)
            while view:
                view = view[os.write(fd, view):]
            if stat.S_ISREG(os.fstat(fd).st_mode):  # /dev/null cannot be truncated
                os.ftruncate(fd, len(data))
        finally:
            os.close(fd)
    except OSError as exc:
        raise InputError(f"cannot write {path}: {exc}") from exc


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


def _print_summary(report: VerificationReport, output: str | None) -> None:
    """The report's summary on stdout, or on stderr when the JSON output
    goes to stdout, so that stdout parses as JSON."""
    print(report.summary(), file=_sys.stderr if output == "-" else _sys.stdout)


def cmd_decompose(args) -> int:
    system, gens, _ = load_system(_read_json(args.system))
    cert, report, _ = decompose_and_check(system, gens)
    _write(args.output, _dump(certificate_to_json(cert)))
    _print_summary(report, args.output)
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
    _print_summary(report, args.output)
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


class _Option(NamedTuple):
    flags: tuple[str, ...]
    dest: str
    default: str | None = None
    choices: tuple[str, ...] | None = None
    help: str | None = None


class _Command(NamedTuple):
    fn: Callable[[argparse.Namespace], int]
    help: str
    positionals: tuple[str, ...]
    options: tuple[_Option, ...] = ()


# Each command once: build_parser and _direct_args both read this table.
_COMMANDS = {
    "decompose": _Command(
        cmd_decompose,
        "decompose a subgroup factor-wise and verify the certificate",
        ("system",),
        (_Option(("-o", "--output"), "output", "certificate.json"),),
    ),
    "kurosh": _Command(
        cmd_kurosh,
        "free-product decomposition of a subgroup",
        ("system",),
        (_Option(("-o", "--output"), "output", "-"),),
    ),
    "verify": _Command(
        cmd_verify, "re-verify a certificate", ("system", "certificate"), (_Option(("-o", "--output"), "output"),)
    ),
    "graph": _Command(
        cmd_graph,
        "emit the core of the subgroup as DOT",
        ("system",),
        (_Option(("--dot",), "dot", "-", help="output path (default stdout)"),),
    ),
    "normalform": _Command(
        cmd_normalform, "normal form of a word", ("system", "word"), (_Option(("--side",), "side", "G", ("G", "B")),)
    ),
    "member": _Command(cmd_member, "test membership of a word in the subgroup", ("system", "word")),
}


@functools.cache
def build_parser() -> argparse.ArgumentParser:
    """The argparse parser of the command table, built on the first call
    and shared by every later one (``parse_args`` only reads it).  ``main``
    calls it only for a command line ``_direct_args`` leaves to it: help,
    usage errors and the spellings only argparse reads.  Its description is
    the module docstring up to the implementation notes."""
    parser = argparse.ArgumentParser(prog="freedecomp", description=__doc__ and __doc__.partition(_NOTES)[0])
    sub = parser.add_subparsers(dest="command", required=True)
    for name, command in _COMMANDS.items():
        p = sub.add_parser(name, help=command.help)
        for positional in command.positionals:
            p.add_argument(positional)
        for opt in command.options:
            p.add_argument(*opt.flags, dest=opt.dest, default=opt.default, choices=opt.choices, help=opt.help)
        p.set_defaults(fn=command.fn)
    return parser


def _direct_args(argv) -> argparse.Namespace | None:
    """The namespace ``build_parser().parse_args(argv)`` returns, read off
    the command table; ``None`` unless ``argv`` names a command, spells
    each option exactly, follows each with a value not starting with
    ``-`` (and one of its choices) and gives the command's number of
    positionals.  Everything else, ``-h``, ``--out``, ``--output=x``,
    ``--`` and ``-`` among it, is left to argparse."""
    command = _COMMANDS.get(argv[0]) if argv else None
    if command is None:
        return None
    values = {opt.dest: opt.default for opt in command.options}
    positionals = []
    tokens = iter(argv[1:])
    for token in tokens:
        if not token.startswith("-"):
            positionals.append(token)
            continue
        opt = next((opt for opt in command.options if token in opt.flags), None)
        value = next(tokens, "-")
        if opt is None or value.startswith("-") or (opt.choices and value not in opt.choices):
            return None
        values[opt.dest] = value
    if len(positionals) != len(command.positionals):
        return None
    return argparse.Namespace(command=argv[0], **dict(zip(command.positionals, positionals)), **values, fn=command.fn)


def main(argv=None) -> int:
    argv = _sys.argv[1:] if argv is None else argv
    args = _direct_args(argv)
    if args is None:
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
