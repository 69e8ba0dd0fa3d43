"""Spans around calls into the package's public functions.

The traced pass performs each command with the same public calls the CLI
makes, inside spans kept in memory.  Calls the package makes internally
are replayed with the same arguments after the command has finished, as
child spans of the call that made them: ``cli.load_system`` (table
validation, system assembly, word parsing) and ``conjecture_decompose``
(graph construction, the image check, each transversal attempt, the
Higgins split and the per-factor Kurosh step).  A span's self time is its
duration minus its children's.  The checks of every
``verify_certificate`` call become child spans timed by their
``CheckResult.elapsed_ms``; the time before them is the rebuild.
"""

from __future__ import annotations

import json
import re
import time
from collections import defaultdict
from contextlib import contextmanager

from freedecomp import cli
from freedecomp.conjecture import canonical_generators, check_h_theta_surjective, conjecture_decompose
from freedecomp.covgraph import build_core, canonicalize, complete_graph
from freedecomp.fingroup import cyclic, sym, validate_group
from freedecomp.freeprod import make_system, parse_word
from freedecomp.higgins import TreeBoundExceeded, build_theta_tree, higgins_decompose
from freedecomp.kurosh import kurosh_decompose
from freedecomp.verify import verify_certificate

_STATES = re.compile(r"(\d+) states")


class Tracer:
    """Spans and counts of one traced pass, kept in memory."""

    def __init__(self, enabled: bool = True) -> None:
        self.enabled = enabled
        self.spans: list[dict] = []
        self.counts: dict[str, float] = defaultdict(float)
        self._stack: list[int] = []
        self._deferred: list = []
        self.request = ""

    def defer(self, fn, *args) -> None:
        """Queue a replay; ``replay`` runs the queue outside the timed command."""
        if self.enabled:
            self._deferred.append((fn, args))

    def replay(self) -> None:
        queue, self._deferred = self._deferred, []
        for fn, args in queue:
            fn(self, *args)

    @contextmanager
    def span(self, name: str, parent: int | None = None):
        if not self.enabled:
            yield None
            return
        sid = len(self.spans)
        if parent is None and self._stack:
            parent = self._stack[-1]
        rec = {"id": sid, "name": name, "parent": parent, "request": self.request, "start": time.perf_counter()}
        self.spans.append(rec)
        self._stack.append(sid)
        try:
            yield sid
        finally:
            self._stack.pop()
            rec["end"] = time.perf_counter()

    def derived(self, name: str, parent: int, start: float, end: float) -> None:
        """A span known only by its duration, placed where it ran."""
        if not self.enabled:
            return
        self.spans.append(
            {"id": len(self.spans), "name": name, "parent": parent, "request": self.request, "start": start, "end": end}
        )

    def totals(self) -> dict[str, float]:
        """Per span name: summed duration in seconds."""
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"]
        return out

    def self_times(self) -> dict[str, float]:
        """Per span name: duration minus the duration of its child spans."""
        child = defaultdict(float)
        for s in self.spans:
            if s["parent"] is not None:
                child[s["parent"]] += s["end"] - s["start"]
        out: dict[str, float] = defaultdict(float)
        for s in self.spans:
            out[s["name"]] += s["end"] - s["start"] - child[s["id"]]
        return out


def load(tr: Tracer, path) -> tuple:
    """``cli.load_system`` on a file; its children are replayed later."""
    with open(path, encoding="utf-8") as fh:
        data = json.load(fh)
    with tr.span("cli.load_system") as sid:
        loaded = cli.load_system(data)
    tr.defer(_replay_load, sid, data)
    return loaded


def _replay_load(tr: Tracer, sid: int, data: dict) -> None:
    groups = {}
    with tr.span("fingroup.validate_group", parent=sid):
        for side in ("factors_G", "factors_B"):
            built = []
            for entry in data[side]:
                if isinstance(entry, str):
                    kind, n = entry.split()
                    built.append(cyclic(int(n)) if kind == "cyclic" else sym(int(n)))
                else:
                    built.append(validate_group(entry))
            groups[side] = built
    with tr.span("freeprod.make_system", parent=sid):
        system = make_system(groups["factors_G"], groups["factors_B"], data["theta"])
    with tr.span("freeprod.parse_word", parent=sid):
        for w in data["subgroup"]:
            parse_word(system, "G", w)


def _verify(tr: Tracer, system, gens, cert, bounds) -> object:
    """``verify_certificate``; its checks, which run last, become child
    spans, and the time before them is the rebuild."""
    with tr.span("verify.certificate") as sid:
        begin = time.perf_counter()
        report = verify_certificate(
            system, gens, cert, max_cosets=bounds.max_cosets, free_test_len=bounds.free_test_len, seed=bounds.seed
        )
        end = time.perf_counter()
    for check in reversed(report.checks):
        start = end - check.elapsed_ms / 1000.0
        tr.derived(f"verify.c{check.name[1]}", sid, start, end)
        end = start
    tr.derived("verify.rebuild", sid, begin, end)
    return report


def traced_kurosh(tr: Tracer, path, out_path) -> dict:
    system, gens, bounds = load(tr, path)
    with tr.span("covgraph.build_core"):
        core = build_core(system, gens)
    with tr.span("covgraph.complete_graph"):
        full = complete_graph(system, core, bounds.max_cosets)
    with tr.span("covgraph.canonicalize"):
        graph = canonicalize(full)
    with tr.span("kurosh.decompose"):
        decomp = kurosh_decompose(system, graph)
    tr.counts["covgraph.wedge_vertices"] += 1 + sum(len(w) - 1 for w in gens if w)
    tr.counts["covgraph.core_vertices"] += core.vertex_count
    tr.counts["covgraph.index"] += graph.vertex_count
    with tr.span("cli.serialize"):
        out = cli.kurosh_to_json(decomp)
        with open(out_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(out, indent=2) + "\n")
    return out


def traced_decompose(tr: Tracer, path, cert_path) -> tuple[dict, object]:
    """The certificate JSON and the verification report."""
    system, gens, bounds = load(tr, path)
    with tr.span("conjecture.decompose") as sid:
        cert = conjecture_decompose(system, gens, bounds)
    tr.defer(_replay_decompose, sid, system, gens, bounds, cert)
    with tr.span("cli.serialize"):
        out = cli.certificate_to_json(cert)
        with open(cert_path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps(out, indent=2) + "\n")
    return out, _verify(tr, system, gens, cert, bounds)


def _replay_decompose(tr: Tracer, sid: int, system, gens, bounds, cert) -> None:
    """The public calls ``conjecture_decompose`` makes, as children of its span."""
    canon = canonical_generators(gens)
    with tr.span("covgraph.build_core", parent=sid):
        core = build_core(system, canon)
    with tr.span("covgraph.complete_graph", parent=sid):
        full = complete_graph(system, core, bounds.max_cosets)
    with tr.span("covgraph.canonicalize", parent=sid):
        graph = canonicalize(full)
    with tr.span("conjecture.surjectivity", parent=sid):
        check_h_theta_surjective(system, canon, bounds.max_cosets)
    attempts = 0
    for order_seed in range(bounds.tree_retries):
        attempts += 1
        with tr.span("higgins.theta_tree", parent=sid):
            try:
                tree = build_theta_tree(
                    system,
                    graph,
                    word_bound=bounds.tree_word_bound,
                    extension_bound=bounds.tree_extension_bound,
                    order_seed=order_seed,
                )
            except TreeBoundExceeded:
                continue
        with tr.span("higgins.decompose", parent=sid):
            hd = higgins_decompose(system, graph, tree)
        for fd in hd.factors:
            if fd.gens:
                with tr.span("covgraph.build_core", parent=sid):
                    core_l = build_core(system, fd.gens)
                with tr.span("covgraph.canonicalize", parent=sid):
                    core_l = canonicalize(core_l)
                with tr.span("kurosh.decompose", parent=sid):
                    kurosh_decompose(system, core_l)
        if tree.transversal == cert.tree_transversal:
            break
    tr.counts["higgins.tree_attempts"] += attempts
    tr.counts["kurosh.pieces"] += sum(len(fc.vertex_groups) for fc in cert.factors)
    tr.counts["kurosh.free_rank"] += sum(len(fc.f_basis) for fc in cert.factors)


def traced_verify(tr: Tracer, path, cert_path) -> object:
    system, gens, bounds = load(tr, path)
    with tr.span("cli.serialize"):
        with open(cert_path, encoding="utf-8") as fh:
            cert = cli.certificate_from_json(system, json.load(fh))
    return _verify(tr, system, gens, cert, bounds)


def c7_outcome(report) -> tuple[int, bool]:
    """(states explored, exhaustive?) from the C7 details."""
    details = report.checks[-1].details
    match = _STATES.search(details)
    return (int(match.group(1)) if match else 0), "exhaustive" in details
