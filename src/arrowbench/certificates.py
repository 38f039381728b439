"""Self-contained certificate files and their verifier.

A certificate is a JSON text document: envelope (operation, verdict,
input digests, parameters) plus the operation payload.  verify() never
consults the result cache.  Before any re-check, a document is checked
against the JSON shapes that _VERIFIERS declares for its operation's
params and payload.  Then each claim is re-checked by one of two routes,
which the operation's row of _VERIFIERS chooses by the certificate's
verdict and degenerate flag:

- independent: the check that the row names for them re-scores the
  witness with embedding enumeration and pattern codes alone;
- re-run: for every verdict that the row names no check for, the
  operation's decider runs again through its row of DECIDERS, the row
  that the command line decides through, on the certificate's inputs
  and params.  The claim passes only when the re-run's operation,
  verdict, degenerate flag, reason and payload equal the document's,
  compared as JSON values (_reproduces).
"""

from __future__ import annotations

import dataclasses
import functools
import itertools
import json
import re

from arrowbench import __version__
from arrowbench.ages import AgeSpec
from arrowbench.arrows import (
    ArrowCertificate,
    Coloring,
    amalgamation_search,
    arrow_search,
    check_coloring_is_counterexample,
    classical_arrow,
    coloring_digest,
    constant_copy,
    convex_arrow,
    definable_arrow,
    exhaustive_classical_check,
    proximal_check,
    roelcke_witness,
    stability_precondition,
    stability_search,
    stable_arrow,
    REAL_TOL,
    _constant_on,
    _copy_position_sets,
    _pattern_constant_b,
)
from arrowbench.errors import CertificateError, InputError, PreconditionFailure
from arrowbench.patterns import pair_pattern_code
from arrowbench.stability import UnstableWitness
from arrowbench.structures import (
    Structure,
    canonical_form,
    code_digest,
    embedding_maps,
    is_embedding,
    parse_structure,
)
from arrowbench.unions import Budget

FORMAT = "arrowbench-certificate/1"


def input_digest(s: Structure) -> str:
    return code_digest(canonical_form(s))


def envelope(cert: ArrowCertificate, inputs: dict, age: str | None, params: dict) -> dict:
    """The certificate document of `cert`; `inputs` maps names to structures,
    recorded by digest, and `_`-names to digests, recorded after them."""
    doc = {
        "format": FORMAT,
        "tool_version": __version__,
        "operation": cert.operation,
        "verdict": cert.verdict,
        "degenerate": cert.degenerate,
        "reason": cert.reason,
        "age": age,
        "inputs": {name: s if name.startswith("_") else input_digest(s) for name, s in
                   sorted(inputs.items(), key=lambda item: (item[0].startswith("_"), item[0]))},
        "params": dict(sorted(params.items())),
        "payload": cert.payload,
    }
    return doc


def dumps(doc: dict) -> str:
    return json.dumps(doc, indent=2) + "\n"


def write_certificate(doc: dict, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(dumps(doc))


def load_certificate(path: str) -> dict:
    """The certificate document at `path`; one that does not have its
    declared shape (see _check_shape) raises CertificateError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CertificateError(f"cannot read certificate: {e}") from None
    _check_shape(doc)
    return doc


class _Inputs(dict):
    """The provided inputs by name; asking for a missing one raises."""

    def __missing__(self, name):
        raise CertificateError(f"verification needs input {name!r}: not provided")


def _check_digests(doc: dict, inputs: _Inputs) -> None:
    for name, digest in doc["inputs"].items():
        if name.startswith("_"):
            continue
        got = input_digest(inputs[name])
        if got != digest:
            raise CertificateError(
                f"digest mismatch on input {name!r}: certificate has {digest}, "
                f"provided file has {got}")


def _structure(text: str, field: str, spec: AgeSpec) -> Structure:
    """The structure that the text of certificate field `field` holds; text
    that is not a structure of the age's signature raises CertificateError
    naming the field."""
    try:
        s = parse_structure(text)
    except InputError as e:
        raise CertificateError(f"certificate field {field} is not a structure: {e}") from None
    if s.signature != spec.signature:
        raise CertificateError(f"certificate field {field} is not in the age's signature")
    return s


def _joint_embedding_ok(spec: AgeSpec, u: Structure, parts, maps) -> bool:
    """maps embed the parts into a member u, and their images cover u."""
    return (spec.member(u) and len(maps) == len(parts)
            and all(is_embedding(m, p, u) for p, m in zip(parts, maps))
            and set().union(*maps) == set(range(u.size)))


def _reproduces(recorded, rerun) -> bool:
    """`rerun()`, a re-run of a decider, gives `recorded`, compared as JSON
    values; a certificate is compared by all that its decider decides:
    its operation, verdict, degenerate flag, reason and payload.  A re-run
    that the decider refuses (params or inputs it never accepts, or a
    failed precondition) gives nothing."""
    try:
        again = rerun()
    except (InputError, PreconditionFailure):
        return False
    if isinstance(again, ArrowCertificate):
        again = dataclasses.asdict(again)
        recorded = {key: recorded[key] for key in again}
    return json.dumps(again, sort_keys=True) == json.dumps(recorded, sort_keys=True)


def _zs(inputs) -> list[Structure]:
    """The coordinates among `inputs` in order: z, or z0, z1, ..., z9, z10, ..."""
    return [inputs[n] for n in sorted((n for n in inputs if n.startswith("z")),
                                      key=lambda n: (len(n), n))]


# operation -> (the label of the budget that its subcommand spends, its
# decider called on the inputs by the names that a certificate gives
# them, the params, the age, the coloring and a budget).  The subcommand
# decides and verify re-runs through the same call, which looks its
# decider up by name as it runs, so that a name rebound in this module
# (a tracer's wrapper, say) is what both call.
DECIDERS = {
    "arrow": ("classical_arrow", lambda i, p, spec, chi, budget: classical_arrow(
        i["c"], i["a"], i["b"], p["colors"], budget)),
    "arrow-search": ("classical_arrow", lambda i, p, spec, chi, budget: arrow_search(
        spec, i["a"], i["b"], p["colors"], p["max_n"], budget)),
    "definable-arrow": ("joint_embeddings", lambda i, p, spec, chi, budget: definable_arrow(
        i["c"], i["a"], i["b"], i["z"], spec, budget)),
    "stable-arrow": ("stability search", lambda i, p, spec, chi, budget: stable_arrow(
        i["c"], i["a"], i["b"], _zs(i), spec, p["depth"], p.get("max_host"), budget=budget)),
    "roelcke-witness": ("roelcke_witness", lambda i, p, spec, chi, budget: roelcke_witness(
        spec, i["a"], i["b"], i["z"], p.get("max_n"), budget=budget)),
    "stability": ("stability search", lambda i, p, spec, chi, budget: stability_search(
        spec, i["a"], i["z"], p["depth"], p.get("max_host"), budget=budget)),
    "proximal-check": ("proximal_check", lambda i, p, spec, chi, budget: proximal_check(
        i["u"], chi, spec, p["d_max"], budget)),
    "convex-arrow": ("convex LP", lambda i, p, spec, chi, budget: convex_arrow(
        i["c"], i["a"], i["b"], p["epsilon"], budget)),
    "amalgamation": ("amalgamation_probe", lambda i, p, spec, chi, budget: amalgamation_search(
        spec, p["property"], p["bound"], budget)),
}


def _rerun(doc, inputs, spec, coloring, budget) -> bool:
    """The certificate is what its decider decides again (see _reproduces);
    one of an operation without a decider does not verify."""
    op = doc["operation"]
    return op in DECIDERS and _reproduces(
        doc, lambda: DECIDERS[op][1](inputs, doc["params"], spec, coloring, budget))


def _exhaustive(c, a, b, k, payload, budget) -> bool:
    """`payload`, a holding arrow payload, records k and the numbers of
    copies of A in C and of position sets of copies of B, and every
    k-coloring of the copies of A is constant on some copy of B."""
    domain = embedding_maps(a, c)
    copies = _copy_position_sets(domain, embedding_maps(a, b), embedding_maps(b, c))
    return ((payload["k"], payload["domain_size"], payload["copy_count"])
            == (k, len(domain), len(copies)) and exhaustive_classical_check(c, a, b, k, budget))


def _arrow_holds(doc, inputs, spec, coloring, budget):
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    return _exhaustive(c, a, b, doc["params"]["colors"], doc["payload"], budget)


def _arrow_fails(doc, inputs, spec, coloring, budget):
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    k = doc["params"]["colors"]
    return doc["payload"]["k"] == k and check_coloring_is_counterexample(
        c, a, b, k, doc["payload"]["coloring"])


def _arrow_search_holds(doc, inputs, spec, coloring, budget):
    payload, k = doc["payload"], doc["params"]["colors"]
    c = parse_structure(payload["c"])
    return (payload["k"] == k and payload["n"] == c.size and spec.member(c)
            and _exhaustive(c, inputs["a"], inputs["b"], k, payload["inner"], budget))


def _offending_rescored(doc, inputs, spec, coloring, budget):
    """The offending joint embedding of a pattern arrow re-scored."""
    off = doc["payload"]["offending"]
    a, b, c, zs = inputs["a"], inputs["b"], inputs["c"], _zs(inputs)
    u = parse_structure(off["u"])
    c_map = tuple(off["c_map"])
    z_maps = [tuple(m) for m in off["z_maps"]]
    return (_joint_embedding_ok(spec, u, [c, *zs], [c_map, *z_maps])
            and _pattern_constant_b(u, c_map, z_maps, embedding_maps(b, c),
                                    embedding_maps(a, b)) is None)


def _stable_arrow_fails(doc, inputs, spec, coloring, budget):
    params = doc["params"]
    return _reproduces(doc["payload"]["stability_precondition"], lambda: stability_precondition(
        spec, inputs["a"], _zs(inputs), params["depth"], params.get("max_host"),
        budget=budget)) and _offending_rescored(doc, inputs, spec, coloring, budget)


def _roelcke_holds(doc, inputs, spec, coloring, budget):
    a, b, z = inputs["a"], inputs["b"], inputs["z"]
    u = parse_structure(doc["payload"]["u"])
    b_map = tuple(doc["payload"]["b_map"])
    z_map = tuple(doc["payload"]["z_map"])
    return (_joint_embedding_ok(spec, u, [b, z], [b_map, z_map])
            and _constant_on(functools.partial(pair_pattern_code, u), b_map, (z_map,),
                             embedding_maps(a, b)))


def _proximal_copy(doc, inputs, spec, coloring, budget):
    bm = tuple(doc["payload"]["b_map"])
    return (is_embedding(bm, inputs["b"], coloring.universe)
            and coloring.constant_on(bm, embedding_maps(coloring.source, inputs["b"])))


def _no_constant_copy(doc, inputs, spec, coloring, budget):
    return constant_copy(coloring, inputs["b"]) is None


def _convex(doc, inputs, spec, coloring, budget):
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    payload = doc["payload"]
    eps = doc["params"]["epsilon"]
    if payload["epsilon"] != eps:
        return False
    value = payload["value"]
    domain = embedding_maps(a, c)
    copies = embedding_maps(b, c)
    emb_ab = embedding_maps(a, b)
    index = {m: i for i, m in enumerate(domain)}
    weights = {}
    for m, w in payload["combination"]:
        mt = tuple(m)
        if mt not in copies:
            return False
        weights[mt] = weights.get(mt, 0.0) + w
    if abs(sum(weights.values()) - 1.0) > 1e-6 or any(w < -REAL_TOL for w in weights.values()):
        return False
    lam = [weights.get(m, 0.0) for m in copies]
    slots = [tuple(index[tuple(bm[x] for x in am)] for am in emb_ab) for bm in copies]
    # exact worst oscillation of the certified combination over all
    # [0,1]-colorings: for each ordered pair, sum positive marginal gaps
    worst = 0.0
    for j1 in range(len(emb_ab)):
        for j2 in range(len(emb_ab)):
            if j1 == j2:
                continue
            margin = [0.0] * len(domain)
            for l, slot in zip(lam, slots):
                margin[slot[j1]] += l
                margin[slot[j2]] -= l
            worst = max(worst, sum(x for x in margin if x > 0))
    if worst > value + 1e-6:
        return False
    # adversary mixture re-scored as a lower bound: a positive value
    # needs one, and each row must be a weighted [0,1]-coloring of the
    # whole domain on an ordered pair of A-copies in B
    adv = payload["adversary"]
    if value > 1e-6 and not adv:
        return False
    if adv:
        pos_of = {m: j for j, m in enumerate(emb_ab)}
        rows = []
        for row in adv:
            bits, pair = row["coloring"], [tuple(m) for m in row["pair"]]
            if (row["weight"] < 0 or len(bits) != len(domain)
                    or any(not -REAL_TOL <= x <= 1 + REAL_TOL for x in bits)
                    or any(m not in pos_of for m in pair)):
                return False
            rows.append((row["weight"], bits, pos_of[pair[0]], pos_of[pair[1]]))
        if abs(sum(w for w, _, _, _ in rows) - 1.0) > 1e-6:
            return False
        per_copy = [sum(w * (bits[slot[j1]] - bits[slot[j2]]) for w, bits, j1, j2 in rows)
                    for slot in slots]
        if min(per_copy) < value - 1e-6:
            return False
    holds = value <= eps + REAL_TOL
    return (doc["verdict"] == "holds") == holds


def _stability_holds(doc, inputs, spec, coloring, budget):
    a, z = inputs["a"], inputs["z"]
    payload = doc["payload"]
    depth, max_host = doc["params"]["depth"], doc["params"].get("max_host")
    # a witness of instability at the depth the params ask for, which the
    # decider refuses below 2, on a host within their host bound
    if not payload["depth"] == depth >= 2:
        return False
    host = parse_structure(payload["host"])
    if not spec.member(host) or (max_host is not None and host.size > max_host):
        return False
    a_maps = tuple(tuple(m) for m in payload["a_maps"])
    z_maps = tuple(tuple(m) for m in payload["z_maps"])
    if not (all(is_embedding(m, a, host) for m in a_maps)
            and all(is_embedding(m, z, host) for m in z_maps)):
        return False
    return UnstableWitness(depth, host, a_maps, z_maps, bytes.fromhex(payload["tau_lt"]),
                           bytes.fromhex(payload["tau_gt"])).verify()


# JSON shapes.  A type stands for a JSON value of it: str a string, bytes
# a string of hex digits, int an integer, float a number, bool a boolean,
# dict any object, None null, and Structure a string that holds the text
# of a structure in the age's signature; a string stands for itself.  A
# tuple is any one of its shapes, [s, ...] a list of items of shape s, a
# list of shapes without the ellipsis a list of as many items of those
# shapes, and {field: s} an object with at least those fields, where a
# field named with a trailing "?" may be absent.
_MAP = [int, ...]  # an embedding, as the list of its images

# the fields of every certificate document besides its format
_DOCUMENT = {"tool_version": str, "operation": str, "verdict": ("holds", "fails"),
             "degenerate": bool, "reason": (str, None), "age": (str, None),
             "inputs": dict, "params": dict, "payload": dict}

_ARROW_HOLDS = {"k": int, "domain_size": int, "copy_count": int, "aut_perms": int,
                "nodes": int, "method": str}
_PATTERN_ARROW = {"holds": {"joint_patterns_checked": int},
                  "fails": {"offending": {"u": Structure, "c_map": _MAP,
                                          "z_maps": [_MAP, ...]}}}
_ROELCKE_WITNESS = {"u": Structure, "b_map": _MAP, "z_map": _MAP}

# operation -> (its independent check by the certificate's kind, "holds"
# or "fails", prefixed "degenerate " when the certificate is: a kind not
# named here is re-run (see _rerun); what it reads besides the inputs:
# the age, the coloring; its params; its payload fields by kind, where
# "" stands for every kind)
_VERIFIERS = {
    "arrow": ({"holds": _arrow_holds, "fails": _arrow_fails}, (), {"colors": int}, {
        "": {"k": int}, "holds": _ARROW_HOLDS, "fails": {"coloring": [[_MAP, int], ...]},
        "degenerate holds": {"domain_size": int},
        "degenerate fails": {"copy_count": int}}),
    "arrow-search": ({"holds": _arrow_search_holds}, ("age",), {"colors": int, "max_n": int}, {
        "": {"k": int}, "holds": {"n": int, "c": Structure, "inner": _ARROW_HOLDS},
        "fails": {"max_n": int}}),
    "definable-arrow": ({"fails": _offending_rescored}, ("age",), {}, _PATTERN_ARROW),
    "stable-arrow": ({"fails": _stable_arrow_fails}, ("age",),
                     {"depth": int, "max_host?": (int, None)}, {
        **_PATTERN_ARROW, "": {"stability_precondition": [
            {"z_index": int, "stable": bool, "depth": int, "max_host": int}, ...]}}),
    "roelcke-witness": ({"holds": _roelcke_holds, "degenerate holds": _roelcke_holds},
                        ("age",), {"max_n?": (int, None)}, {
        "": {"candidates_checked": int},
        "holds": _ROELCKE_WITNESS, "degenerate holds": _ROELCKE_WITNESS}),
    "convex-arrow": ({"holds": _convex, "fails": _convex}, (), {"epsilon": float}, {"": {
        "epsilon": float, "value": float, "gap": float, "combination": [[_MAP, float], ...],
        "adversary": [{"coloring": [float, ...], "pair": [_MAP, _MAP], "weight": float},
                      ...]}}),
    "stability": ({"holds": _stability_holds}, ("age",),
                  {"depth": int, "max_host?": (int, None)}, {
        "": {"depth": int},
        "holds": {"host": Structure, "a_maps": [_MAP, ...], "z_maps": [_MAP, ...],
                  "tau_lt": bytes, "tau_gt": bytes},
        "fails": {"stable_up_to": bool, "max_host": int, "nodes": int,
                  "pattern_pairs_checked": int}}),
    "amalgamation": ({}, ("age",), {"bound": int, "property": str}, {
        "": {"instances_checked": int, "search_cap": str},
        "holds": {"holds_up_to": int},
        "fails": {"counterexample": {"a": (Structure, None), "b": Structure, "c": Structure,
                                     "f": _MAP, "g": _MAP}}}),
    "proximal-check": ({}, ("age", "coloring"), {"d_max": int}, {"": {
        "d_max": int, "entries": [[str, bool, (_MAP, None)], ...], "passed_all": bool}}),
    "proximal-arrow": ({"holds": _proximal_copy, "degenerate holds": _proximal_copy,
                        "fails": _no_constant_copy}, ("coloring",), {}, {
        "": {"checked_depth": int},
        "holds": {"b_map": _MAP}, "degenerate holds": {"b_map": _MAP}}),
}

_HEX = re.compile("(?:[0-9a-f]{2})*")
_NAMES = {str: "string", bytes: "string of hex digits", Structure: "string", int: "integer",
          float: "number", bool: "boolean", dict: "object", None: "null"}


def _name(shape) -> str:
    """What an error message calls a JSON value of `shape`."""
    if isinstance(shape, tuple):
        return " or ".join(map(_name, shape))
    if isinstance(shape, str):
        return json.dumps(shape)
    if isinstance(shape, list):
        if shape[-1] is not ...:
            return f"list of {len(shape)} items"
        return f"list of {_NAMES[shape[0]]}s" if isinstance(shape[0], type) else "list"
    return "object" if isinstance(shape, dict) else _NAMES[shape]


class _Mistyped(CertificateError):
    """A field that is missing or of another JSON type, which the next
    alternative of a tuple shape may fit."""


def _check(value, shape, path: str, spec: AgeSpec | None) -> None:
    """Raise CertificateError naming `path`, the field that holds `value`,
    or a field inside it, unless `value` has `shape`; the text of a
    Structure is read in the signature of `spec` when it is given."""
    if isinstance(shape, tuple):
        for alternative in shape:
            try:
                return _check(value, alternative, path, spec)
            except _Mistyped:
                pass
    elif isinstance(shape, dict):
        if type(value) is dict:
            for key, item in shape.items():
                field = key.rstrip("?")
                where = f"{path}.{field}" if path else field
                if field in value:
                    if type(value[field]) is not item:  # else a plain JSON type fits
                        _check(value[field], item, where, spec)
                elif field == key:
                    raise _Mistyped(f"certificate lacks field {where}")
            return
    elif isinstance(shape, list):
        items = itertools.repeat(shape[0]) if shape[-1] is ... else shape
        if type(value) is list and (shape[-1] is ... or len(value) == len(shape)):
            for i, (item, item_shape) in enumerate(zip(value, items)):
                if type(item) is not item_shape:
                    _check(item, item_shape, f"{path}[{i}]", spec)
            return
    elif shape is float:
        if type(value) in (int, float):
            return
    elif shape is bytes:
        if type(value) is str and _HEX.fullmatch(value):
            return
    elif shape is Structure:
        if type(value) is str:
            if spec is not None:
                _structure(value, path, spec)
            return
    elif shape is None or isinstance(shape, str):
        if value == shape:
            return
    elif type(value) is shape:
        return
    raise _Mistyped(f"certificate field {path} is not a JSON {_name(shape)}")


def _kind(doc) -> str:
    return ("degenerate " if doc["degenerate"] else "") + doc["verdict"]


def _check_shape(doc, spec: AgeSpec | None = None) -> None:
    """Raise CertificateError, naming the first field that is missing or
    of another shape, unless `doc` is a certificate document of this
    format with the fields of _DOCUMENT and the params and payload that
    its operation's row of _VERIFIERS declares for its kind; the
    structures in it are read in the signature of `spec` when given."""
    if type(doc) is not dict:
        raise CertificateError("certificate is not a JSON object")
    if doc.get("format") != FORMAT:
        raise CertificateError(f"unsupported certificate format {doc.get('format')!r}")
    _check(doc, _DOCUMENT, "", spec)
    if doc["operation"] in _VERIFIERS:
        _, _, params, payload = _VERIFIERS[doc["operation"]]
        _check(doc["params"], params, "params", spec)
        for key in (_kind(doc), ""):
            _check(doc["payload"], payload.get(key, {}), "payload", spec)


def verify_certificate(doc: dict, inputs: dict[str, Structure], spec: AgeSpec | None,
                       coloring: Coloring | None = None, *, budget: Budget) -> bool:
    """Re-check of a certificate against the given inputs, by the route
    that its operation's row of _VERIFIERS declares for its kind; every
    search spends `budget`.  A document without its declared shape (see
    _check_shape) raises CertificateError, as do digest mismatches; a
    sound certificate with a wrong claim returns False."""
    _check_shape(doc, spec)
    inputs = _Inputs(inputs)
    _check_digests(doc, inputs)
    op = doc["operation"]
    if op not in _VERIFIERS:
        raise CertificateError(f"operation {op!r} has no verifier")
    checks, reads, _, _ = _VERIFIERS[op]
    if spec is None and "age" in reads:
        raise CertificateError(f"{op} verification needs --age")
    if "coloring" in reads:
        if coloring is None:
            raise CertificateError(f"{op} verification needs the coloring")
        if doc["inputs"].get("_coloring") != coloring_digest(coloring):
            raise CertificateError("coloring digest mismatch")
    return checks.get(_kind(doc), _rerun)(doc, inputs, spec, coloring, budget)
