"""Command-line front end.

Exit codes: 0 the property holds / a witness was found / informational
success; 1 the property fails / nothing found (a certificate still
describes why); 2 usage or input error; 3 resource limit exceeded.
Every subcommand but `verify` exits by its report's verdict.

Machine output (--json) is the certificate document itself, so reports
double as replayable regression fixtures; human output is built from
that document alone, so a result-cache hit prints what a fresh run
prints.  No timestamps anywhere: a fixed invocation produces
byte-identical reports.

A report's `inputs` and `params` come from its subcommand's row in
_COMMANDS.  --a, --b, --c and --host are inputs of those names,
--universe is `u` and the positional structure file `structure`; --z is
`z` where the row takes it once and z0, z1, ... where it repeats; --chain
is f0, f1, ...; a --coloring, read against u and a, enters as its digest
`_coloring`.  Every other flag of the row is a param.  An --age that
names a file is recorded as its absolute path.  A subcommand whose
certificates `verify` can re-run decides on these inputs and params
through its row of certificates.DECIDERS, as that re-run does.  `verify` names its inputs
by the row of the certificate's operation; a certificate without the
shape that `certificates` declares for its operation, such as a missing
field, a field of another JSON type or a verdict other than `holds` or
`fails`, is an input error (exit 2).
"""

from __future__ import annotations

import argparse
import json
import sys
import time

from arrowbench import __version__, cache, certificates
from arrowbench.ages import enumerate_structures, load_age, resolve_age
from arrowbench.arrows import ArrowCertificate, Coloring, coloring_digest, proximal_arrow
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
from arrowbench.structures import (
    Structure,
    canonical_form,
    code_digest,
    embedding_maps,
    parse_structure,
    read_text,
    serialize_structure,
)
from arrowbench.unions import Budget

EXIT_HOLDS = 0
EXIT_FAILS = 1
EXIT_USAGE = 2
EXIT_RESOURCE = 3


def _load_coloring(path: str, universe: Structure, source: Structure) -> Coloring:
    """Coloring file: header `colors: k` or `range: real`, then one line
    `(v,...) -> value` per embedding of the source into the universe."""
    kind = None
    colors = None
    pairs = {}
    for lineno, raw in enumerate(read_text(path).splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        try:
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
        except ValueError:
            raise ParseError(f"not a number in {line!r}", line=lineno) from None
    if kind is None:
        raise ParseError("empty coloring file")
    return Coloring.from_pairs(universe, source, pairs, kind=kind, colors=colors)


def _budget(args, what: str) -> Budget:
    """The run's one budget: --node-budget nodes, labelled `what`, and a
    deadline --time-budget seconds from now when that is given."""
    budget = Budget(args.node_budget, what)
    if args.time_budget:  # main() has refused a value <= 0
        budget.deadline = time.monotonic() + args.time_budget
    return budget


def _age_key(args) -> bytes:
    """The --age text (which the report records) plus the canonical age:
    signature, axiom flags per symbol and the sorted codes of the
    forbidden structures."""
    spec = args.spec
    if spec is None:
        return b""
    axioms = ";".join(f"{name}:{','.join(sorted(flags))}"
                      for (name, _), flags in zip(spec.signature.symbols, spec.axiom_flags()))
    forbidden = sorted(canonical_form(s) for s in spec.forbidden)
    return b"\x00".join([args.age.encode(), spec.signature.key().encode(),
                          axioms.encode(), *forbidden])


# structure flag -> its name among a certificate's inputs
_INPUT_NAMES = {"infile": "structure", "--a": "a", "--b": "b", "--c": "c", "--host": "host",
                "--universe": "u"}

# the flags that name files; every other flag of a row is a param
_FILE_FLAGS = frozenset({*_INPUT_NAMES, "--z", "--chain", "--coloring", "--check", "cert"})


def _load(args, own: str, z_from: str | None = None):
    """Read the files that the usage line `own` names: a copy of `args` in
    which each given file flag holds what it names, `inputs` the inputs
    and `params` the params, named as the module docstring says, with --z
    named by the usage line `z_from` (`own` by default)."""
    one_z = any(t.strip("[]") == "--z" for t in (own if z_from is None else z_from).split())
    loaded, inputs, params = argparse.Namespace(**vars(args)), {}, {}
    for token in own.split():
        flag = token.strip("[].")
        dest = flag.lstrip("-").replace("-", "_")
        value = getattr(args, dest)
        if flag not in _FILE_FLAGS:
            params[dest] = value
            continue
        if value in (None, []) or flag == "cert":  # not given; verify reads its cert itself
            continue
        if flag in _INPUT_NAMES:
            value = inputs[_INPUT_NAMES[flag]] = parse_structure(read_text(value))
        elif flag == "--z" and one_z:
            if len(value) > 1:
                raise InputError(f"--z given {len(value)} times; this subcommand takes one")
            value = inputs["z"] = parse_structure(read_text(value[0]))
        elif flag in ("--z", "--chain"):
            value = [parse_structure(read_text(path))
                     for path in (value if flag == "--z" else value.split(","))]
            inputs.update((f"{'z' if flag == '--z' else 'f'}{i}", s) for i, s in enumerate(value))
        elif flag == "--coloring":
            if "u" not in inputs or "a" not in inputs:
                raise InputError("--coloring verification needs --universe and --a")
            value = _load_coloring(value, inputs["u"], inputs["a"])
            inputs["_coloring"] = coloring_digest(value)
        else:
            value = certificates.load_certificate(value)  # --check
        setattr(loaded, dest, value)
    loaded.inputs, loaded.params = inputs, params
    return loaded


def _report(args) -> int:
    """Report the certificate document of the subcommand's handler on
    `args`, as _load gives them: replayed from the result cache when the
    subcommand is in _CACHED, caching is on and the key hits, else
    enveloped and stored.  The exit code follows the verdict."""
    operation, inputs, params = args.command, args.inputs, args.params
    directory = None if args.no_cache or operation not in _CACHED else cache.cache_dir(
        args.cache_dir)
    key = cache.cache_key(operation, [s if name.startswith("_") else serialize_structure(s)
                                      for name, s in sorted(inputs.items())],
                          params, _age_key(args)) if directory else None
    hit = cache.lookup(directory, key)
    if hit is not None:
        doc = json.loads(hit)
    else:
        doc = certificates.envelope(_COMMANDS[operation][0](args), inputs,
                                    getattr(args, "age", None), params)
        cache.store(directory, key, certificates.dumps(doc))
    if args.certificate:
        certificates.write_certificate(doc, args.certificate)
    if args.json:
        sys.stdout.write(certificates.dumps(doc))
    else:
        for line in _HUMAN_LINES.get(operation, _summary_lines)(doc, doc["payload"]):
            print(line)
    return EXIT_HOLDS if doc["verdict"] == "holds" else EXIT_FAILS


# ---------------------------------------------------------------------------
# human output: lines built from the certificate document alone, so that a
# cache hit prints what a fresh run prints


def _summary_lines(doc, p):
    lines = [f"{doc['operation']}: {doc['verdict']}"]
    if doc["reason"]:
        lines.append(f"reason: {doc['reason']}")
    return lines + [f"{k}: {v}" for k, v in p.items()
                    if isinstance(v, (str, int, float, bool)) and "\n" not in str(v)]


def _inline(text: str) -> str:
    return text.rstrip("\n").replace("\n", "; ")


def _with_witness(key: str):
    """The summary, then the payload's `key` structure when the verdict holds."""
    return lambda doc, p: _summary_lines(doc, p) + (
        [p[key].rstrip("\n")] if doc["verdict"] == "holds" else [])


def _stability_lines(doc, p):
    if doc["verdict"] == "fails":
        return _summary_lines(doc, p)
    return [f"unstable witness at depth {p['depth']}", p["host"].rstrip("\n"),
            f"a parts: {p['a_maps']}", f"z parts: {p['z_maps']}"]


def _proximal_check_lines(doc, p):
    return [f"proximal-check: {'pass' if p['passed_all'] else 'fail'}"] + [
        f"D {_inline(d)} -> {'pass' if passed else 'fail'}"
        + (f" (E vertices {w})" if w is not None else "") for d, passed, w in p["entries"]]


# operation -> lines(doc, payload); the rest print _summary_lines
_HUMAN_LINES = {
    "parse": lambda doc, p: [p["normalized"].rstrip("\n")],
    "enumerate": lambda doc, p: [f"{p['count']} structure(s) of size {p['n']}"] + [
        code_digest(canonical_form(parse_structure(text))) + "  " + _inline(text)
        for text in p["structures"]],
    "embeddings": lambda doc, p: [f"{p['count']} embedding(s)", *map(str, p["maps"])],
    "patterns": lambda doc, p: [
        f"{e['digest']} {' '.join(map(str, e['maps']))} {_inline(e['u'])}"
        for e in p["patterns"]] + [f"{p['count']} pattern(s)"],
    "pattern-count": lambda doc, p: [str(p["count"])],
    "arrow-search": _with_witness("c"),
    "roelcke-witness": _with_witness("u"),
    "stability": _stability_lines,
    "proximal-check": _proximal_check_lines,
    "convex-arrow": lambda doc, p: [f"convex-arrow: {doc['verdict']}",
                                    f"value: {p['value']:.9f}", f"gap: {p['gap']:.2e}"],
    "orbits": lambda doc, p: [f"aut order {p['aut_order']}, {len(p['blocks'])} orbit(s)"] + [
        " ".join(str(p["base"][i]) for i in block) for block in p["blocks"]],
    "invariant-partitions": lambda doc, p: [f"{p['count']} invariant partition(s)",
                                            *map(str, p["partitions"])],
    "coherent-partitions": lambda doc, p: [
        f"{p['family_count']} coherent familie(s); only_trivial={p['only_trivial']}; "
        f"inconclusive={p['inconclusive']}"],
}


# ---------------------------------------------------------------------------
# subcommand handlers: each but verify's decides on the loaded flags of its
# subcommand (see _load) and returns the certificate


def _decide(args):
    """Decide through the subcommand's row of certificates.DECIDERS."""
    label, call = certificates.DECIDERS[args.command]
    return call(args.inputs, args.params, args.spec, getattr(args, "coloring", None),
                _budget(args, label))


def _cmd_parse(args):
    s = args.infile
    return ArrowCertificate("parse", "holds", payload={
        "normalized": serialize_structure(s),
        "canonical_digest": code_digest(canonical_form(s))})


def _cmd_enumerate(args):
    reps = enumerate_structures(args.spec, args.n, _budget(args, "enumerate_structures"))
    return ArrowCertificate("enumerate", "holds", payload={
        "n": args.n, "count": len(reps),
        "structures": [serialize_structure(s) for s in reps]})


def _cmd_embeddings(args):
    maps = embedding_maps(args.a, args.b)
    return ArrowCertificate("embeddings", "holds",
                            payload={"count": len(maps), "maps": [list(m) for m in maps]})


def _cmd_patterns(args):
    entries = []
    budget = _budget(args, "joint_embeddings")
    for je in joint_embeddings(args.spec, args.a, args.z, budget=budget):
        code = pattern_of(je)
        entries.append({"code": code.hex(), "digest": code_digest(code),
                        "u": serialize_structure(je.target),
                        "maps": [list(m) for m in je.maps]})
    return ArrowCertificate("patterns", "holds",
                            payload={"count": len(entries), "patterns": entries})


def _cmd_pattern_count(args):
    return ArrowCertificate("pattern-count", "holds", payload={
        "count": pattern_count(args.spec, args.a, args.z, _budget(args, "joint_embeddings"))})


def _cmd_arrow(args):
    # verify of an arrow reads no age, so only its subcommand checks it
    for name in ("a", "b", "c"):
        if not args.spec.member(getattr(args, name)):
            raise InputError(f"--{name} is not a member of the age")
    return _decide(args)


def _cmd_proximal_arrow(args):
    u, check = args.universe, args.check
    cert = proximal_arrow(u, args.coloring, args.a, args.b, check)  # its refusals come first
    age = check["age"]
    if age is None:
        raise CertificateError("proximal-check certificate records no age")
    if not certificates.verify_certificate(check, {"u": u, "a": args.a}, load_age(age),
                                           args.coloring, budget=_budget(args, "proximal_check")):
        raise PreconditionFailure("proximal-check certificate does not verify")
    return cert


def _cmd_orbits(args):
    budget = _budget(args, "automorphisms")
    group = automorphisms(args.host, budget)
    part = orbits_on_embeddings(args.host, args.a, group, budget)
    return ArrowCertificate("orbits", "holds", payload={
        "base": [list(m) for m in part.base],
        "blocks": [list(b) for b in part.blocks],
        "aut_order": len(group)})


def _cmd_invariant_partitions(args):
    parts = invariant_partitions(args.host, args.a, args.max_blocks,
                                 _budget(args, "invariant_partitions"))
    return ArrowCertificate("invariant-partitions", "holds", payload={
        "count": len(parts), "partitions": [[list(b) for b in p.blocks] for p in parts]})


def _cmd_coherent_partitions(args):
    report = coherent_partitions(args.chain, args.a, args.max_blocks,
                                 _budget(args, "coherent_partitions"))
    return ArrowCertificate(
        "coherent-partitions", "holds" if report.families else "fails", payload={
            "families": [[[list(b) for b in p.blocks] for p in fam]
                         for fam in report.families],
            "family_count": len(report.families),
            "only_trivial": report.only_trivial,
            "inconclusive": report.inconclusive,
        })


def _cmd_verify(args):
    doc = certificates.load_certificate(args.cert)
    # the inputs are named as the certificate's operation names them
    row = _COMMANDS.get(doc["operation"], (None, None, ""))
    loaded = _load(args, _COMMANDS["verify"][2], row[2])
    ok = certificates.verify_certificate(doc, loaded.inputs, args.spec, loaded.coloring,
                                         budget=_budget(args, "verify"))
    print("verified: " + ("true" if ok else "false"))
    return EXIT_HOLDS if ok else EXIT_FAILS


# ---------------------------------------------------------------------------
# interface: one flag vocabulary and one table of subcommands


# argparse keywords of each flag, whichever subcommand takes it; argparse
# derives the dests (--max-n -> max_n)
_FLAGS = {
    **dict.fromkeys(("infile", "cert", "--a", "--b", "--c", "--host", "--universe",
                     "--coloring", "--cache-dir"), {}),
    **dict.fromkeys(("--n", "--colors", "--max-n", "--depth", "--max-host", "--d-max",
                     "--max-blocks", "--bound"), {"type": int}),
    "--z": {"action": "append", "default": []},
    "--epsilon": {"type": float},
    "--check": {"help": "proximal-check certificate"},
    "--chain": {"help": "comma-separated structure files"},
    "--property": {"choices": ["joint-embedding", "amalgamation", "free-amalgamation"]},
    "--age": {"help": "catalog name or age file"},
    "--json": {"action": "store_true", "help": "machine-readable report"},
    "--certificate": {"metavar": "PATH", "help": "write the certificate document here"},
    "--no-cache": {"action": "store_true"},
    "--node-budget": {"type": int, "default": 5_000_000},
    "--time-budget": {"type": float,
                      "help": "wall-clock cap in seconds (exit 3 when exceeded)"},
    "--parallel": {"type": int, "default": 0,
                   "help": "accepted and unused: every search runs serially"},
}

# the flags every subcommand takes after its own; `verify` writes no
# certificate and takes all but --certificate
_SHARED = ("[--json] [--certificate] [--no-cache] [--cache-dir] [--node-budget] "
           "[--time-budget] [--parallel]")

# subcommand -> (handler, help line, its own flags, --age), flags written
# as in a usage line: `--x` required, `[--x]` optional, a bare word
# positional, `--z...` repeatable (`--z` alone: one coordinate).  The
# --age entry is "--age" (required), "[--age]" (accepted) or "" (refused).
_COMMANDS = {
    "parse": (_cmd_parse, "parse and normalize a structure file", "infile", ""),
    "enumerate": (_cmd_enumerate, "age members of size n, up to isomorphism", "--n", "--age"),
    "embeddings": (_cmd_embeddings, "all embeddings of A into B", "--a --b", ""),
    "patterns": (_cmd_patterns, "joint-embedding patterns of A and Z(s)", "--a --z...", "--age"),
    "pattern-count": (_cmd_pattern_count, "number of joint-embedding patterns",
                      "--a --z", "--age"),
    "arrow": (_cmd_arrow, "classical embedding-Ramsey arrow", "--a --b --c --colors",
              "--age"),
    "arrow-search": (_decide, "smallest C in the age with the arrow",
                     "--a --b --colors --max-n", "--age"),
    "definable-arrow": (_decide, "pattern-constant arrow", "--a --b --c --z",
                        "--age"),
    "stable-arrow": (_decide, "stability-restricted arrow",
                     "--a --b --c [--z...] --depth [--max-host]", "--age"),
    "roelcke-witness": (_decide, "pattern-constant joint embedding",
                        "--a --b --z [--max-n]", "--age"),
    "stability": (_decide, "depth-bounded unstable-sequence search",
                  "--a --z --depth [--max-host]", "--age"),
    "proximal-check": (_decide, "proximality probe for a coloring",
                       "--universe --a --coloring --d-max", "--age"),
    "proximal-arrow": (_cmd_proximal_arrow, "constant copy for a verified coloring",
                       "--universe --a --b --coloring --check", ""),
    "convex-arrow": (_decide, "zero-sum-game convex arrow",
                     "--a --b --c --epsilon", ""),
    "orbits": (_cmd_orbits, "Aut(host)-orbits on embeddings of A", "--host --a", ""),
    "invariant-partitions": (_cmd_invariant_partitions, "partitions fixed by Aut(host)",
                             "--host --a --max-blocks", ""),
    "coherent-partitions": (_cmd_coherent_partitions, "partition families along a chain",
                            "--chain --a --max-blocks", ""),
    "amalgamation": (_decide, "bounded amalgamation probe", "--property --bound",
                     "--age"),
    "verify": (_cmd_verify, "independently re-check a certificate",
               "cert [--a] [--b] [--c] [--z...] [--host] [--universe] [--coloring]", "[--age]"),
}

# the subcommands whose reports the result cache keeps
_CACHED = frozenset({"arrow", "arrow-search", "definable-arrow", "stable-arrow",
                     "roelcke-witness", "stability", "convex-arrow"})


def _parser(argv: list[str]) -> argparse.ArgumentParser:
    """The top-level parser, with arguments only for the subcommand that
    `argv` invokes.  That is its first word, as the top level's only flags
    (--help, --version) exit; without one, every subcommand is added bare,
    so that --help and usage errors list them all."""
    invoked = argv[0] if argv and argv[0] in _COMMANDS else None
    ap = argparse.ArgumentParser(
        prog="arrowbench",
        description="Partition-property workbench for finite relational structures")
    ap.add_argument("--version", action="version", version=__version__)
    sub = ap.add_subparsers(dest="command", required=True)
    if invoked is None:
        for name, (_, help_line, _, _) in _COMMANDS.items():
            sub.add_parser(name, help=help_line, add_help=False)
        return ap
    sub.metavar = "{" + ",".join(_COMMANDS) + "}"  # the usage line of top-level errors
    _, help_line, own, age = _COMMANDS[invoked]
    p = sub.add_parser(invoked, help=help_line)
    for token in (*own.split(), *_SHARED.split(), *age.split()):
        flag = token.strip("[].")
        if flag == "--certificate" and invoked == "verify":
            continue
        kwargs = dict(_FLAGS[flag])
        if not token.startswith("[") and flag.startswith("--"):
            kwargs.pop("default", None)
            kwargs["required"] = True
        p.add_argument(flag, **kwargs)
    return ap


def main(argv=None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    args = _parser(argv).parse_args(argv)
    for flag, value in (("--node-budget", args.node_budget),
                        ("--time-budget", args.time_budget)):
        if value is not None and value <= 0:
            print(f"error: {flag} must be positive", file=sys.stderr)
            return EXIT_USAGE
    if getattr(args, "epsilon", None) is not None:
        if not 0 < args.epsilon <= 1:
            print("error: --epsilon must lie in (0, 1]", file=sys.stderr)
            return EXIT_USAGE
    try:
        # a report records, and its cache key holds, the --age text that
        # names the age from any working directory
        age = getattr(args, "age", None)
        args.age, args.spec = resolve_age(age) if age is not None else (None, None)
        if args.command == "verify":
            return _cmd_verify(args)
        return _report(_load(args, _COMMANDS[args.command][2]))
    except ResourceLimitExceeded as e:
        print(f"resource limit: {e}", file=sys.stderr)
        return EXIT_RESOURCE
    except ArrowbenchError as e:
        print(f"error: {e}", file=sys.stderr)
        return EXIT_USAGE


if __name__ == "__main__":
    sys.exit(main())
