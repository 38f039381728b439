"""Command-line front end.

Exit codes: 0 the property holds / a witness was found / informational
success; 1 the property fails / nothing found (a certificate still
describes why); 2 usage or input error; 3 resource limit exceeded.

Machine output (--json) is the certificate document itself, so reports
double as replayable regression fixtures; human output summarizes the
same data.  No timestamps anywhere: a fixed invocation produces
byte-identical reports.
"""

from __future__ import annotations

import argparse
import sys
import time

from arrowbench import __version__, cache, certificates
from arrowbench.ages import AgeSpec, amalgamation_probe, enumerate_structures, load_age
from arrowbench.arrows import (
    ArrowCertificate,
    Coloring,
    arrow_search,
    classical_arrow,
    coloring_digest,
    convex_arrow,
    definable_arrow,
    proximal_arrow,
    proximal_check,
    roelcke_witness,
    stable_arrow,
)
from arrowbench.errors import (
    ArrowbenchError,
    CertificateError,
    InputError,
    ParseError,
    PreconditionFailure,
    ResourceLimitExceeded,
)
from arrowbench.groups import (
    automorphisms,
    coherent_partitions,
    invariant_partitions,
    orbits_on_embeddings,
)
from arrowbench.patterns import joint_embeddings, pattern_count, pattern_of
from arrowbench.stability import stable_up_to
from arrowbench.structures import (
    Structure,
    canonical_form,
    code_digest,
    embedding_maps,
    parse_structure,
    serialize_structure,
)
from arrowbench.unions import Budget

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _read_text(path: str) -> str:
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def _load_structure(path: str) -> Structure:
    return parse_structure(_read_text(path))


def _load_coloring(path: str, universe: Structure, source: Structure) -> Coloring:
    """Coloring file: header `colors: k` or `range: real`, then one line
    `(v,...) -> value` per embedding of the source into the universe."""
    kind = None
    colors = None
    pairs = {}
    for lineno, raw in enumerate(_read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if line.startswith("colors:"):
            kind = "indexed"
            colors = int(line.partition(":")[2].strip())
            continue
        if line.startswith("range:"):
            if line.partition(":")[2].strip() != "real":
                raise ParseError("range must be `real`", line=lineno)
            kind = "real"
            continue
        if "->" not in line:
            raise ParseError(f"expected `(v,...) -> value`, got {line!r}", line=lineno)
        left, _, right = line.partition("->")
        left = left.strip()
        if not (left.startswith("(") and left.endswith(")")):
            raise ParseError(f"bad embedding tuple {left!r}", line=lineno)
        entries = tuple(int(x) for x in left[1:-1].split(",") if x.strip() != "")
        value = right.strip()
        if kind is None:
            raise ParseError("coloring needs a `colors: k` or `range: real` header first",
                             line=lineno)
        pairs[entries] = int(value) if kind == "indexed" else float(value)
    if kind is None:
        raise ParseError("empty coloring file")
    return Coloring.from_pairs(universe, source, pairs, kind=kind, colors=colors)


def _age_of(args) -> AgeSpec | None:
    if getattr(args, "age", None):
        return load_age(args.age)
    return None


def _require_age(args) -> AgeSpec:
    spec = _age_of(args)
    if spec is None:
        raise InputError("this subcommand requires --age")
    return spec


def _budget(args, what: str) -> Budget:
    """The run's one budget: --node-budget nodes, labelled `what`, and a
    deadline --time-budget seconds from now."""
    budget = Budget(args.node_budget, what)
    if args.time_budget is not None:
        budget.deadline = time.monotonic() + args.time_budget
    return budget


def _emit(args, doc: dict, exit_code: int, human_lines) -> int:
    text = certificates.dumps(doc)
    if getattr(args, "certificate", None):
        certificates.write_certificate(doc, args.certificate)
    if args.json:
        sys.stdout.write(text)
    else:
        for line in human_lines:
            print(line)
    return exit_code


def _age_key(args) -> bytes:
    """The --age text (which the report records) plus the canonical age:
    signature, axiom flags per symbol and the sorted codes of the
    forbidden structures."""
    spec = _age_of(args)
    if spec is None:
        return b""
    axioms = ";".join(f"{name}:{','.join(sorted(flags))}"
                      for (name, _), flags in zip(spec.signature.symbols, spec.axiom_flags()))
    forbidden = sorted(canonical_form(s) for s in spec.forbidden)
    return b"\x00".join([args.age.encode(), spec.signature.key().encode(),
                          axioms.encode(), *forbidden])


def _cached_run(args, operation: str, inputs: dict, params: dict, compute):
    """compute() -> (ArrowCertificate, exit_code, human_lines); replays
    from the cache when enabled and hit."""
    directory = None if getattr(args, "no_cache", False) else cache.cache_dir(
        getattr(args, "cache_dir", None))
    if directory:
        key = cache.cache_key(operation,
                              [canonical_form(s) for _, s in sorted(inputs.items())],
                              params, _age_key(args))
        hit = cache.lookup(directory, key)
        if hit is not None:
            import json

            doc = json.loads(hit)
            code = EXIT_HOLDS if doc["verdict"] == "holds" else EXIT_FAILS
            return _emit(args, doc, code, _summary_lines(doc))
    cert, exit_code, human_lines = compute()
    doc = certificates.envelope(cert, inputs, getattr(args, "age", None), params)
    if directory:
        cache.store(directory, key, certificates.dumps(doc))
    return _emit(args, doc, exit_code, human_lines)


def _summary_lines(doc: dict):
    lines = [f"{doc['operation']}: {doc['verdict']}"]
    if doc.get("reason"):
        lines.append(f"reason: {doc['reason']}")
    for k, v in doc.get("payload", {}).items():
        if isinstance(v, str) and "\n" in v:
            continue
        if isinstance(v, (str, int, float, bool)):
            lines.append(f"{k}: {v}")
    return lines


def _verdict_exit(cert: ArrowCertificate) -> int:
    return EXIT_HOLDS if cert.holds else EXIT_FAILS


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_parse(args):
    s = _load_structure(args.infile)
    payload = {"normalized": serialize_structure(s),
               "canonical_digest": code_digest(canonical_form(s))}
    cert = ArrowCertificate("parse", "holds", payload=payload)
    doc = certificates.envelope(cert, {"structure": s}, None, {})
    return _emit(args, doc, EXIT_HOLDS, [payload["normalized"].rstrip("\n")])


def _cmd_enumerate(args):
    spec = _require_age(args)
    reps = enumerate_structures(spec, args.n, _budget(args, "enumerate_structures"))
    payload = {"n": args.n, "count": len(reps),
               "structures": [serialize_structure(s) for s in reps]}
    cert = ArrowCertificate("enumerate", "holds", payload=payload)
    doc = certificates.envelope(cert, {}, args.age, {"n": args.n})
    lines = [f"{len(reps)} structure(s) of size {args.n}"]
    for s in reps:
        lines.append(code_digest(canonical_form(s)) + "  " +
                     serialize_structure(s).rstrip("\n").replace("\n", "; "))
    return _emit(args, doc, EXIT_HOLDS, lines)


def _cmd_embeddings(args):
    a = _load_structure(args.a)
    b = _load_structure(args.b)
    maps = embedding_maps(a, b)
    payload = {"count": len(maps), "maps": [list(m) for m in maps]}
    cert = ArrowCertificate("embeddings", "holds", payload=payload)
    doc = certificates.envelope(cert, {"a": a, "b": b}, None, {})
    lines = [f"{len(maps)} embedding(s)"] + [str(list(m)) for m in maps]
    return _emit(args, doc, EXIT_HOLDS, lines)


def _cmd_patterns(args):
    spec = _require_age(args)
    a = _load_structure(args.a)
    zs = [_load_structure(p) for p in args.z or []]
    jes = joint_embeddings(spec, a, zs, budget=_budget(args, "joint_embeddings"))
    entries = []
    for je in jes:
        code = pattern_of(je)
        entries.append({"code": code.hex(), "digest": code_digest(code),
                        "u": serialize_structure(je.target),
                        "maps": [list(m) for m in je.maps]})
    cert = ArrowCertificate("patterns", "holds",
                            payload={"count": len(entries), "patterns": entries})
    inputs = {"a": a, **{f"z{i}": z for i, z in enumerate(zs)}}
    doc = certificates.envelope(cert, inputs, args.age, {})
    lines = []
    for e in entries:
        inline = e["u"].rstrip("\n").replace("\n", "; ")
        maps = " ".join(str(m) for m in e["maps"])
        lines.append(f"{e['digest']} {maps} {inline}")
    lines.append(f"{len(entries)} pattern(s)")
    return _emit(args, doc, EXIT_HOLDS, lines)


def _cmd_pattern_count(args):
    spec = _require_age(args)
    a = _load_structure(args.a)
    z = _load_structure(args.z[0] if isinstance(args.z, list) else args.z)
    count = pattern_count(spec, a, z, _budget(args, "joint_embeddings"))
    cert = ArrowCertificate("pattern-count", "holds", payload={"count": count})
    doc = certificates.envelope(cert, {"a": a, "z": z}, args.age, {})
    return _emit(args, doc, EXIT_HOLDS, [str(count)])


def _cmd_arrow(args):
    a, b, c = map(_load_structure, (args.a, args.b, args.c))
    spec = _age_of(args)
    if spec is not None:
        for name, s in (("a", a), ("b", b), ("c", c)):
            if not spec.member(s):
                raise InputError(f"--{name} is not a member of the age")
    inputs = {"a": a, "b": b, "c": c}
    params = {"colors": args.colors}

    def compute():
        cert = classical_arrow(c, a, b, args.colors, _budget(args, "classical_arrow"))
        lines = _summary_lines({"operation": cert.operation, "verdict": cert.verdict,
                                "reason": cert.reason, "payload": cert.payload})
        return cert, _verdict_exit(cert), lines

    return _cached_run(args, "arrow", inputs, params, compute)


def _cmd_arrow_search(args):
    spec = _require_age(args)
    a, b = map(_load_structure, (args.a, args.b))
    inputs = {"a": a, "b": b}
    params = {"colors": args.colors, "max_n": args.max_n}

    def compute():
        cert = arrow_search(spec, a, b, args.colors, args.max_n,
                            _budget(args, "classical_arrow"))
        lines = _summary_lines({"operation": cert.operation, "verdict": cert.verdict,
                                "reason": cert.reason, "payload": cert.payload})
        if cert.holds:
            lines.append(cert.payload["c"].rstrip("\n"))
        return cert, _verdict_exit(cert), lines

    return _cached_run(args, "arrow-search", inputs, params, compute)


def _cmd_definable_arrow(args):
    spec = _require_age(args)
    a, b, c, z = map(_load_structure, (args.a, args.b, args.c, args.z[0]))
    inputs = {"a": a, "b": b, "c": c, "z": z}

    def compute():
        cert = definable_arrow(c, a, b, z, spec, _budget(args, "joint_embeddings"))
        return cert, _verdict_exit(cert), _summary_lines(
            {"operation": cert.operation, "verdict": cert.verdict,
             "reason": cert.reason, "payload": cert.payload})

    return _cached_run(args, "definable-arrow", inputs, {}, compute)


def _cmd_stable_arrow(args):
    spec = _require_age(args)
    a, b, c = map(_load_structure, (args.a, args.b, args.c))
    zs = [_load_structure(p) for p in args.z or []]
    inputs = {"a": a, "b": b, "c": c, **{f"z{i}": z for i, z in enumerate(zs)}}
    params = {"depth": args.depth, "max_host": args.max_host}

    def compute():
        cert = stable_arrow(c, a, b, zs, spec, args.depth, args.max_host,
                            _budget(args, "stability search"))
        return cert, _verdict_exit(cert), _summary_lines(
            {"operation": cert.operation, "verdict": cert.verdict,
             "reason": cert.reason, "payload": cert.payload})

    return _cached_run(args, "stable-arrow", inputs, params, compute)


def _cmd_roelcke(args):
    spec = _require_age(args)
    a, b, z = map(_load_structure, (args.a, args.b, args.z[0]))
    inputs = {"a": a, "b": b, "z": z}
    params = {"max_n": args.max_n}

    def compute():
        cert = roelcke_witness(spec, a, b, z, args.max_n, _budget(args, "roelcke_witness"))
        lines = _summary_lines({"operation": cert.operation, "verdict": cert.verdict,
                                "reason": cert.reason, "payload": cert.payload})
        if cert.holds:
            lines.append(cert.payload["u"].rstrip("\n"))
        return cert, _verdict_exit(cert), lines

    return _cached_run(args, "roelcke-witness", inputs, params, compute)


def _cmd_stability(args):
    spec = _require_age(args)
    a, z = map(_load_structure, (args.a, args.z[0]))
    inputs = {"a": a, "z": z}
    params = {"depth": args.depth, "max_host": args.max_host}

    def compute():
        report = stable_up_to(spec, a, z, args.depth, args.max_host,
                              _budget(args, "stability search"))
        w = report.witness
        if w is not None:
            payload = {"depth": w.depth, "host": serialize_structure(w.host),
                       "a_maps": [list(e.map) for e in w.a_parts],
                       "z_maps": [list(e.map) for e in w.z_parts],
                       "tau_lt": w.tau_lt.hex(), "tau_gt": w.tau_gt.hex()}
            cert = ArrowCertificate("stability", "holds", payload=payload)
            lines = [f"unstable witness at depth {w.depth}",
                     serialize_structure(w.host).rstrip("\n"),
                     f"a parts: {[list(e.map) for e in w.a_parts]}",
                     f"z parts: {[list(e.map) for e in w.z_parts]}"]
            return cert, EXIT_HOLDS, lines
        payload = {"stable_up_to": True, "depth": report.depth,
                   "max_host": report.max_host, "nodes": report.nodes_used,
                   "pattern_pairs_checked": report.pattern_pairs_checked}
        cert = ArrowCertificate("stability", "fails",
                                reason="no unstable witness within the bounds",
                                payload=payload)
        return cert, EXIT_FAILS, _summary_lines(
            {"operation": "stability", "verdict": "fails",
             "reason": cert.reason, "payload": payload})

    return _cached_run(args, "stability", inputs, params, compute)


def _cmd_proximal_check(args):
    spec = _require_age(args)
    u = _load_structure(args.universe)
    a = _load_structure(args.a)
    chi = _load_coloring(args.coloring, u, a)
    report = proximal_check(u, chi, spec, args.d_max, _budget(args, "proximal_check"))
    payload = {"d_max": report.d_max,
               "entries": [[d, p, w] for d, p, w in report.entries],
               "passed_all": report.passed_all}
    cert = ArrowCertificate("proximal-check", "holds" if report.passed_all else "fails",
                            payload=payload)
    doc = certificates.envelope(cert, {"u": u, "a": a}, args.age,
                                {"d_max": args.d_max})
    doc["inputs"]["_coloring"] = coloring_digest(chi)
    lines = [f"proximal-check: {'pass' if report.passed_all else 'fail'}"]
    for d, p, w in report.entries:
        lines.append(f"D {d.rstrip(chr(10)).replace(chr(10), '; ')} -> "
                     f"{'pass' if p else 'fail'}"
                     + (f" (E vertices {w})" if w is not None else ""))
    return _emit(args, doc, EXIT_HOLDS if report.passed_all else EXIT_FAILS, lines)


def _cmd_proximal_arrow(args):
    spec = _require_age(args)
    u = _load_structure(args.universe)
    a = _load_structure(args.a)
    b = _load_structure(args.b)
    chi = _load_coloring(args.coloring, u, a)
    check_doc = certificates.load_certificate(args.check)
    if check_doc.get("operation") != "proximal-check":
        raise InputError("--check must point at a proximal-check certificate")
    from arrowbench.arrows import ProximalReport

    report = ProximalReport(
        universe_digest=check_doc["inputs"]["u"],
        coloring_digest=check_doc["inputs"]["_coloring"],
        d_max=check_doc["payload"]["d_max"],
        entries=tuple((d, p, tuple(w) if w is not None else None)
                      for d, p, w in check_doc["payload"]["entries"]))
    cert = proximal_arrow(u, chi, a, b, report)
    doc = certificates.envelope(cert, {"a": a, "b": b, "u": u}, args.age, {})
    doc["inputs"]["_coloring"] = coloring_digest(chi)
    return _emit(args, doc, _verdict_exit(cert), _summary_lines(doc))


def _cmd_convex_arrow(args):
    a, b, c = map(_load_structure, (args.a, args.b, args.c))
    inputs = {"a": a, "b": b, "c": c}
    params = {"epsilon": args.epsilon}

    def compute():
        cert = convex_arrow(c, a, b, args.epsilon, _budget(args, "convex LP"))
        lines = [f"convex-arrow: {cert.verdict}",
                 f"value: {cert.payload['value']:.9f}",
                 f"gap: {cert.payload['gap']:.2e}"]
        return cert, _verdict_exit(cert), lines

    return _cached_run(args, "convex-arrow", inputs, params, compute)


def _cmd_orbits(args):
    host = _load_structure(args.host)
    a = _load_structure(args.a)
    part = orbits_on_embeddings(host, a)
    payload = {"base": [list(m) for m in part.base],
               "blocks": [list(b) for b in part.blocks],
               "aut_order": len(automorphisms(host))}
    cert = ArrowCertificate("orbits", "holds", payload=payload)
    doc = certificates.envelope(cert, {"host": host, "a": a}, None, {})
    lines = [f"aut order {payload['aut_order']}, {len(part.blocks)} orbit(s)"]
    for blk in part.blocks:
        lines.append(" ".join(str(list(part.base[i])) for i in blk))
    return _emit(args, doc, EXIT_HOLDS, lines)


def _cmd_invariant_partitions(args):
    host = _load_structure(args.host)
    a = _load_structure(args.a)
    parts = invariant_partitions(host, a, args.max_blocks)
    payload = {"count": len(parts),
               "partitions": [[list(b) for b in p.blocks] for p in parts]}
    cert = ArrowCertificate("invariant-partitions", "holds", payload=payload)
    doc = certificates.envelope(cert, {"host": host, "a": a}, None,
                                {"max_blocks": args.max_blocks})
    lines = [f"{len(parts)} invariant partition(s)"]
    for p in parts:
        lines.append(str([list(b) for b in p.blocks]))
    return _emit(args, doc, EXIT_HOLDS, lines)


def _cmd_coherent_partitions(args):
    chain = [_load_structure(p) for p in args.chain.split(",")]
    a = _load_structure(args.a)
    report = coherent_partitions(chain, a, args.max_blocks)
    payload = {
        "families": [[[list(b) for b in p.blocks] for p in fam]
                     for fam in report.families],
        "family_count": len(report.families),
        "only_trivial": report.only_trivial,
        "inconclusive": report.inconclusive,
    }
    cert = ArrowCertificate("coherent-partitions",
                            "holds" if report.families else "fails",
                            payload=payload)
    inputs = {f"f{i}": s for i, s in enumerate(chain)}
    inputs["a"] = a
    doc = certificates.envelope(cert, inputs, None, {"max_blocks": args.max_blocks})
    lines = [f"{len(report.families)} coherent familie(s); "
             f"only_trivial={report.only_trivial}; inconclusive={report.inconclusive}"]
    return _emit(args, doc, EXIT_HOLDS, lines)


def _cmd_amalgamation(args):
    spec = _require_age(args)
    report = amalgamation_probe(spec, args.property, args.bound,
                                _budget(args, "amalgamation_probe"))
    if report.counterexample is None:
        payload = {"holds_up_to": report.holds_up_to,
                   "instances_checked": report.instances_checked,
                   "search_cap": report.search_cap}
        cert = ArrowCertificate("amalgamation", "holds", payload=payload)
        exit_code = EXIT_HOLDS
    else:
        cex = report.counterexample
        payload = {"counterexample": {
            "a": serialize_structure(cex.a) if cex.a is not None else None,
            "b": serialize_structure(cex.b), "c": serialize_structure(cex.c),
            "f": list(cex.f), "g": list(cex.g)},
            "instances_checked": report.instances_checked,
            "search_cap": report.search_cap}
        cert = ArrowCertificate("amalgamation", "fails", payload=payload)
        exit_code = EXIT_FAILS
    doc = certificates.envelope(cert, {}, args.age,
                                {"property": args.property, "bound": args.bound})
    return _emit(args, doc, exit_code, _summary_lines(doc))


def _cmd_verify(args):
    doc = certificates.load_certificate(args.cert)
    spec = _age_of(args)
    inputs: dict[str, Structure] = {}
    for name, flag in (("a", args.a), ("b", args.b), ("c", args.c),
                       ("host", getattr(args, "host", None)),
                       ("u", getattr(args, "universe", None))):
        if flag:
            inputs[name] = _load_structure(flag)
    for i, zpath in enumerate(args.z or []):
        z = _load_structure(zpath)
        if len(args.z) == 1 and "z" in doc.get("inputs", {}):
            inputs["z"] = z
        else:
            inputs[f"z{i}"] = z
    coloring = None
    if getattr(args, "coloring", None):
        if "u" not in inputs or "a" not in inputs:
            raise InputError("--coloring verification needs --universe and --a")
        coloring = _load_coloring(args.coloring, inputs["u"], inputs["a"])
    ok = certificates.verify_certificate(doc, inputs, spec, coloring, _budget(args, "verify"))
    print("verified: " + ("true" if ok else "false"))
    return EXIT_HOLDS if ok else EXIT_FAILS


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    ap = argparse.ArgumentParser(
        prog="arrowbench",
        description="Partition-property workbench for finite relational structures")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)

    def add_common(p, age=False, cert=True, age_required=False):
        p.add_argument("--json", action="store_true", help="machine-readable report")
        if cert:
            p.add_argument("--certificate", metavar="PATH",
                           help="write the certificate document here")
        p.add_argument("--no-cache", action="store_true", dest="no_cache")
        p.add_argument("--cache-dir", dest="cache_dir", default=None)
        p.add_argument("--node-budget", type=int, default=5_000_000)
        p.add_argument("--time-budget", type=float, default=None, dest="time_budget",
                       help="wall-clock cap in seconds (exit 3 when exceeded)")
        p.add_argument("--parallel", type=int, default=0,
                       help="accepted and unused: every search runs serially")
        if age:
            p.add_argument("--age", required=age_required,
                           help="catalog name or age file")

    p = sub.add_parser("parse", help="parse and normalize a structure file")
    p.add_argument("infile")
    add_common(p)
    p.set_defaults(func=_cmd_parse)

    p = sub.add_parser("enumerate", help="age members of size n, up to isomorphism")
    p.add_argument("--n", type=int, required=True)
    add_common(p, age=True)
    p.set_defaults(func=_cmd_enumerate)

    p = sub.add_parser("embeddings", help="all embeddings of A into B")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_embeddings)

    p = sub.add_parser("patterns", help="joint-embedding patterns of A and Z(s)")
    p.add_argument("--a", required=True)
    p.add_argument("--z", action="append", required=True)
    add_common(p, age=True)
    p.set_defaults(func=_cmd_patterns)

    p = sub.add_parser("pattern-count", help="number of joint-embedding patterns")
    p.add_argument("--a", required=True)
    p.add_argument("--z", action="append", required=True)
    add_common(p, age=True)
    p.set_defaults(func=_cmd_pattern_count)

    p = sub.add_parser("arrow", help="classical embedding-Ramsey arrow")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--colors", type=int, required=True)
    add_common(p, age=True, age_required=True)
    p.set_defaults(func=_cmd_arrow)

    p = sub.add_parser("arrow-search", help="smallest C in the age with the arrow")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--colors", type=int, required=True)
    p.add_argument("--max-n", type=int, required=True, dest="max_n")
    add_common(p, age=True)
    p.set_defaults(func=_cmd_arrow_search)

    p = sub.add_parser("definable-arrow", help="pattern-constant arrow")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--z", action="append", required=True)
    add_common(p, age=True)
    p.set_defaults(func=_cmd_definable_arrow)

    p = sub.add_parser("stable-arrow", help="stability-restricted arrow")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--z", action="append", default=[])
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-host", type=int, default=None, dest="max_host")
    add_common(p, age=True)
    p.set_defaults(func=_cmd_stable_arrow)

    p = sub.add_parser("roelcke-witness", help="pattern-constant joint embedding")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--z", action="append", required=True)
    p.add_argument("--max-n", type=int, default=None, dest="max_n")
    add_common(p, age=True)
    p.set_defaults(func=_cmd_roelcke)

    p = sub.add_parser("stability", help="depth-bounded unstable-sequence search")
    p.add_argument("--a", required=True)
    p.add_argument("--z", action="append", required=True)
    p.add_argument("--depth", type=int, required=True)
    p.add_argument("--max-host", type=int, default=None, dest="max_host")
    add_common(p, age=True)
    p.set_defaults(func=_cmd_stability)

    p = sub.add_parser("proximal-check", help="proximality probe for a coloring")
    p.add_argument("--universe", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--d-max", type=int, required=True, dest="d_max")
    add_common(p, age=True)
    p.set_defaults(func=_cmd_proximal_check)

    p = sub.add_parser("proximal-arrow", help="constant copy for a verified coloring")
    p.add_argument("--universe", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--coloring", required=True)
    p.add_argument("--check", required=True, help="proximal-check certificate")
    add_common(p, age=True)
    p.set_defaults(func=_cmd_proximal_arrow)

    p = sub.add_parser("convex-arrow", help="zero-sum-game convex arrow")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.add_argument("--c", required=True)
    p.add_argument("--epsilon", type=float, required=True)
    add_common(p, age=True)
    p.set_defaults(func=_cmd_convex_arrow)

    p = sub.add_parser("orbits", help="Aut(host)-orbits on embeddings of A")
    p.add_argument("--host", required=True)
    p.add_argument("--a", required=True)
    add_common(p)
    p.set_defaults(func=_cmd_orbits)

    p = sub.add_parser("invariant-partitions", help="partitions fixed by Aut(host)")
    p.add_argument("--host", required=True)
    p.add_argument("--a", required=True)
    p.add_argument("--max-blocks", type=int, required=True, dest="max_blocks")
    add_common(p)
    p.set_defaults(func=_cmd_invariant_partitions)

    p = sub.add_parser("coherent-partitions", help="partition families along a chain")
    p.add_argument("--chain", required=True, help="comma-separated structure files")
    p.add_argument("--a", required=True)
    p.add_argument("--max-blocks", type=int, required=True, dest="max_blocks")
    add_common(p)
    p.set_defaults(func=_cmd_coherent_partitions)

    p = sub.add_parser("amalgamation", help="bounded amalgamation probe")
    p.add_argument("--property", required=True,
                   choices=["joint-embedding", "amalgamation", "free-amalgamation"])
    p.add_argument("--bound", type=int, required=True)
    add_common(p, age=True)
    p.set_defaults(func=_cmd_amalgamation)

    p = sub.add_parser("verify", help="independently re-check a certificate")
    p.add_argument("cert")
    p.add_argument("--a")
    p.add_argument("--b")
    p.add_argument("--c")
    p.add_argument("--z", action="append", default=[])
    p.add_argument("--host")
    p.add_argument("--universe")
    p.add_argument("--coloring")
    add_common(p, age=True, cert=False)
    p.set_defaults(func=_cmd_verify)

    return ap


def main(argv=None) -> int:
    ap = _build_parser()
    args = ap.parse_args(argv)
    if getattr(args, "node_budget", None) is not None and args.node_budget <= 0:
        print("error: --node-budget must be positive", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "time_budget", None) is not None and args.time_budget <= 0:
        print("error: --time-budget must be positive", file=sys.stderr)
        return EXIT_USAGE
    if getattr(args, "epsilon", None) is not None:
        if not 0 < args.epsilon <= 1:
            print("error: --epsilon must lie in (0, 1]", file=sys.stderr)
            return EXIT_USAGE
    try:
        return args.func(args)
    except ResourceLimitExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except (InputError, ParseError, PreconditionFailure, CertificateError) as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE
    except ArrowbenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
