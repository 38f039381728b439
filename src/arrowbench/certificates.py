"""Self-contained certificate files and their verifier.

A certificate is a JSON text document: envelope (operation, verdict,
input digests, parameters) plus the operation payload.  verify() never
consults the result cache.  Before any re-check, a document is checked
against the JSON shapes that _VERIFIERS declares for its operation's
params and payload.  Then each claim is re-checked by one of two routes:

- independent: the witness is re-scored with embedding enumeration and
  pattern codes alone;
- re-run: the decider runs again on the certificate's inputs and params,
  and the claim passes only when the re-run's operation, verdict,
  degenerate flag, reason and payload equal the document's, compared as
  JSON values (_reproduces).

By operation and verdict:

- arrow: holds, independent (every k-coloring enumerated); fails,
  independent (the coloring re-scored: total, colors in 0..k-1, no copy
  of B monochromatic); payload k must be params colors;
- arrow-search: holds, independent (C a member, then as arrow); fails,
  re-run;
- definable-arrow and stable-arrow: holds, re-run; fails, independent
  (the offending joint embedding re-scored), after a stable-arrow's
  stability precondition entries are compared with a re-run of it;
- roelcke-witness: holds, independent (the witness replayed); fails,
  re-run;
- stability: holds, independent (the witness replayed at the params'
  depth and host bound); fails, re-run;
- amalgamation and proximal-check: re-run;
- proximal-arrow: independent (the copies of B re-scored);
- convex-arrow: independent (the combination and the adversary
  re-scored);
- and every degenerate arrow, pattern-arrow and convex-arrow
  certificate: re-run.
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


class _Checked(dict):
    """A certificate document that load_certificate found to have its
    declared shape, which verify_certificate does not check again."""


def load_certificate(path: str) -> dict:
    """The certificate document at `path`; one that does not have its
    declared shape (see _check_shape) raises CertificateError."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CertificateError(f"cannot read certificate: {e}") from None
    _check_shape(doc)
    return _Checked(doc)


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


def _verify_arrow(doc, inputs, spec, coloring, budget):
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    k = doc["params"]["colors"]
    if doc["degenerate"]:
        return _reproduces(doc, lambda: classical_arrow(c, a, b, k, budget))
    if doc["payload"]["k"] != k:
        return False
    if doc["verdict"] == "fails":
        return check_coloring_is_counterexample(c, a, b, k, doc["payload"]["coloring"])
    return exhaustive_classical_check(c, a, b, k, budget)


def _verify_arrow_search(doc, inputs, spec, coloring, budget):
    a, b = inputs["a"], inputs["b"]
    k = doc["params"]["colors"]
    if doc["verdict"] == "fails":
        return _reproduces(doc, lambda: arrow_search(spec, a, b, k, doc["params"]["max_n"],
                                                     budget))
    c = _structure(doc["payload"]["c"], "payload.c", spec)
    if doc["payload"]["k"] != k or not spec.member(c):
        return False
    return exhaustive_classical_check(c, a, b, k, budget)


def _verify_pattern_arrow(doc, inputs, spec, coloring, budget):
    """definable-arrow and stable-arrow, whose coordinates are the z*
    inputs in order.  A fail is re-scored on its offending joint
    embedding, after a stable-arrow's stability precondition is re-run.
    A holds, and a degenerate certificate, is a re-run of the decider."""
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    # the coordinates in the order given: z, or z0, z1, ..., z9, z10, ...
    names = sorted((n for n in doc["inputs"] if n.startswith("z")), key=lambda n: (len(n), n))
    zs = [inputs[name] for name in names]
    params, payload = doc["params"], doc["payload"]
    if doc["verdict"] == "holds" or doc["degenerate"]:
        if doc["operation"] == "definable-arrow":
            return _reproduces(doc, lambda: definable_arrow(c, a, b, inputs["z"], spec, budget))
        return _reproduces(doc, lambda: stable_arrow(c, a, b, zs, spec, params["depth"],
                                                     params.get("max_host"), budget=budget))
    if doc["operation"] == "stable-arrow" and not _reproduces(
            payload["stability_precondition"],
            lambda: stability_precondition(spec, a, zs, params["depth"],
                                           params.get("max_host"), budget=budget)):
        return False
    off = payload["offending"]
    u = _structure(off["u"], "payload.offending.u", spec)
    c_map = tuple(off["c_map"])
    z_maps = [tuple(m) for m in off["z_maps"]]
    return (_joint_embedding_ok(spec, u, [c, *zs], [c_map, *z_maps])
            and _pattern_constant_b(u, c_map, z_maps, embedding_maps(b, c),
                                    embedding_maps(a, b)) is None)


def _verify_roelcke(doc, inputs, spec, coloring, budget):
    a, b, z = inputs["a"], inputs["b"], inputs["z"]
    if doc["verdict"] == "fails":
        return _reproduces(doc, lambda: roelcke_witness(
            spec, a, b, z, doc["params"].get("max_n"), budget=budget))
    u = _structure(doc["payload"]["u"], "payload.u", spec)
    b_map = tuple(doc["payload"]["b_map"])
    z_map = tuple(doc["payload"]["z_map"])
    return (_joint_embedding_ok(spec, u, [b, z], [b_map, z_map])
            and _constant_on(functools.partial(pair_pattern_code, u), b_map, (z_map,),
                             embedding_maps(a, b)))


def _verify_proximal_check(doc, inputs, spec, coloring, budget):
    return _reproduces(doc, lambda: proximal_check(inputs["u"], coloring, spec,
                                                   doc["params"]["d_max"], budget))


def _verify_proximal_arrow(doc, inputs, spec, coloring, budget):
    b = inputs["b"]
    if doc["verdict"] == "fails":
        return constant_copy(coloring, b) is None
    bm = tuple(doc["payload"]["b_map"])
    return (is_embedding(bm, b, coloring.universe)
            and coloring.constant_on(bm, embedding_maps(coloring.source, b)))


def _verify_convex(doc, inputs, spec, coloring, budget):
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    payload = doc["payload"]
    eps = doc["params"]["epsilon"]
    if doc["degenerate"]:
        return _reproduces(doc, lambda: convex_arrow(c, a, b, eps, budget))
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


def _verify_stability(doc, inputs, spec, coloring, budget):
    a, z = inputs["a"], inputs["z"]
    payload = doc["payload"]
    depth, max_host = doc["params"]["depth"], doc["params"].get("max_host")
    if doc["verdict"] == "fails":
        return _reproduces(doc, lambda: stability_search(spec, a, z, depth, max_host,
                                                         budget=budget))
    # a witness of instability at the depth the params ask for, which the
    # decider refuses below 2, on a host within their host bound
    if not payload["depth"] == depth >= 2:
        return False
    host = _structure(payload["host"], "payload.host", spec)
    if not spec.member(host) or (max_host is not None and host.size > max_host):
        return False
    a_maps = tuple(tuple(m) for m in payload["a_maps"])
    z_maps = tuple(tuple(m) for m in payload["z_maps"])
    if not (all(is_embedding(m, a, host) for m in a_maps)
            and all(is_embedding(m, z, host) for m in z_maps)):
        return False
    return UnstableWitness(depth, host, a_maps, z_maps, bytes.fromhex(payload["tau_lt"]),
                           bytes.fromhex(payload["tau_gt"])).verify()


def _verify_amalgamation(doc, inputs, spec, coloring, budget):
    params = doc["params"]
    if doc["verdict"] == "fails":
        # a counterexample structure that does not parse is malformed
        cex = doc["payload"]["counterexample"]
        for x in "abc":
            if cex[x] is not None:
                _structure(cex[x], f"payload.counterexample.{x}", spec)
    return _reproduces(doc, lambda: amalgamation_search(spec, params["property"],
                                                        params["bound"], budget))


# JSON shapes.  A type stands for a JSON value of it: str a string, bytes
# a string of hex digits, int an integer, float a number, bool a boolean,
# dict any object, None null; a string stands for itself.  A tuple is any
# one of its shapes, [s, ...] a list of items of shape s, a list of shapes
# without the ellipsis a list of as many items of those shapes, and
# {field: s} an object with at least those fields, where a field named
# with a trailing "?" may be absent.
_MAP = [int, ...]  # an embedding, as the list of its images

# the fields of every certificate document besides its format
_DOCUMENT = {"tool_version": str, "operation": str, "verdict": ("holds", "fails"),
             "degenerate": bool, "reason": (str, None), "age": (str, None),
             "inputs": dict, "params": dict, "payload": dict}

_PATTERN_ARROW = {"holds": {"joint_patterns_checked": int},
                  "fails": {"offending": {"u": str, "c_map": _MAP, "z_maps": [_MAP, ...]}}}
_ROELCKE_WITNESS = {"u": str, "b_map": _MAP, "z_map": _MAP}

# operation -> (verifier, what it reads besides the inputs: the age, the
# coloring; its params; its payload fields by the certificate's kind: ""
# for every kind, then "holds" or "fails", each prefixed "degenerate "
# when the certificate is)
_VERIFIERS = {
    "arrow": (_verify_arrow, (), {"colors": int}, {
        "": {"k": int},
        "holds": {"domain_size": int, "copy_count": int, "aut_perms": int, "nodes": int,
                  "method": str},
        "fails": {"coloring": [[_MAP, int], ...]},
        "degenerate holds": {"domain_size": int},
        "degenerate fails": {"copy_count": int}}),
    "arrow-search": (_verify_arrow_search, ("age",), {"colors": int, "max_n": int}, {
        "": {"k": int}, "holds": {"n": int, "c": str, "inner": dict}, "fails": {"max_n": int}}),
    "definable-arrow": (_verify_pattern_arrow, ("age",), {}, _PATTERN_ARROW),
    "stable-arrow": (_verify_pattern_arrow, ("age",), {"depth": int, "max_host?": (int, None)}, {
        **_PATTERN_ARROW, "": {"stability_precondition": [
            {"z_index": int, "stable": bool, "depth": int, "max_host": int}, ...]}}),
    "roelcke-witness": (_verify_roelcke, ("age",), {"max_n?": (int, None)}, {
        "": {"candidates_checked": int},
        "holds": _ROELCKE_WITNESS, "degenerate holds": _ROELCKE_WITNESS}),
    "convex-arrow": (_verify_convex, (), {"epsilon": float}, {"": {
        "epsilon": float, "value": float, "gap": float, "combination": [[_MAP, float], ...],
        "adversary": [{"coloring": [float, ...], "pair": [_MAP, _MAP], "weight": float},
                      ...]}}),
    "stability": (_verify_stability, ("age",), {"depth": int, "max_host?": (int, None)}, {
        "": {"depth": int},
        "holds": {"host": str, "a_maps": [_MAP, ...], "z_maps": [_MAP, ...], "tau_lt": bytes,
                  "tau_gt": bytes},
        "fails": {"stable_up_to": bool, "max_host": int, "nodes": int,
                  "pattern_pairs_checked": int}}),
    "amalgamation": (_verify_amalgamation, ("age",), {"bound": int, "property": str}, {
        "": {"instances_checked": int, "search_cap": str},
        "holds": {"holds_up_to": int},
        "fails": {"counterexample": {"a": (str, None), "b": str, "c": str, "f": _MAP,
                                     "g": _MAP}}}),
    "proximal-check": (_verify_proximal_check, ("age", "coloring"), {"d_max": int}, {"": {
        "d_max": int, "entries": [[str, bool, (_MAP, None)], ...], "passed_all": bool}}),
    "proximal-arrow": (_verify_proximal_arrow, ("coloring",), {}, {
        "": {"checked_depth": int},
        "holds": {"b_map": _MAP}, "degenerate holds": {"b_map": _MAP}}),
}

_HEX = re.compile("(?:[0-9a-f]{2})*")
_NAMES = {str: "string", bytes: "string of hex digits", int: "integer", float: "number",
          bool: "boolean", dict: "object", None: "null"}


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


def _check(value, shape, path: str) -> None:
    """Raise CertificateError naming `path`, the field that holds `value`,
    or a field inside it, unless `value` has `shape`."""
    if isinstance(shape, tuple):
        for alternative in shape:
            try:
                return _check(value, alternative, path)
            except CertificateError:
                pass
    elif isinstance(shape, dict):
        if type(value) is dict:
            for key, item in shape.items():
                field = key.rstrip("?")
                where = f"{path}.{field}" if path else field
                if field in value:
                    if type(value[field]) is not item:  # else a plain JSON type fits
                        _check(value[field], item, where)
                elif field == key:
                    raise CertificateError(f"certificate lacks field {where}")
            return
    elif isinstance(shape, list):
        items = itertools.repeat(shape[0]) if shape[-1] is ... else shape
        if type(value) is list and (shape[-1] is ... or len(value) == len(shape)):
            for i, (item, item_shape) in enumerate(zip(value, items)):
                if type(item) is not item_shape:
                    _check(item, item_shape, f"{path}[{i}]")
            return
    elif shape is float:
        if type(value) in (int, float):
            return
    elif shape is bytes:
        if type(value) is str and _HEX.fullmatch(value):
            return
    elif shape is None or isinstance(shape, str):
        if value == shape:
            return
    elif type(value) is shape:
        return
    raise CertificateError(f"certificate field {path} is not a JSON {_name(shape)}")


def _check_shape(doc) -> None:
    """Raise CertificateError, naming the first field that is missing or
    of another shape, unless `doc` is a certificate document of this
    format with the fields of _DOCUMENT and the params and payload that
    its operation's row of _VERIFIERS declares for its kind."""
    if type(doc) is not dict:
        raise CertificateError("certificate is not a JSON object")
    if doc.get("format") != FORMAT:
        raise CertificateError(f"unsupported certificate format {doc.get('format')!r}")
    _check(doc, _DOCUMENT, "")
    if doc["operation"] in _VERIFIERS:
        _, _, params, payload = _VERIFIERS[doc["operation"]]
        _check(doc["params"], params, "params")
        kind = ("degenerate " if doc["degenerate"] else "") + doc["verdict"]
        for key in (kind, ""):
            _check(doc["payload"], payload.get(key, {}), "payload")


def verify_certificate(doc: dict, inputs: dict[str, Structure], spec: AgeSpec | None,
                       coloring: Coloring | None = None, *, budget: Budget) -> bool:
    """Re-check of a certificate against the given inputs, by the route
    that the module docstring gives for it; every search spends `budget`.
    A document without its declared shape (see _check_shape; one from
    load_certificate has been checked there) raises CertificateError, as
    do digest mismatches; a sound certificate with a wrong claim returns
    False."""
    if not isinstance(doc, _Checked):
        _check_shape(doc)
    inputs = _Inputs(inputs)
    _check_digests(doc, inputs)
    op = doc["operation"]
    if op not in _VERIFIERS:
        raise CertificateError(f"operation {op!r} has no verifier")
    verifier, reads, _, _ = _VERIFIERS[op]
    if spec is None and "age" in reads:
        raise CertificateError(f"{op} verification needs --age")
    if "coloring" in reads:
        if coloring is None:
            raise CertificateError(f"{op} verification needs the coloring")
        if doc["inputs"].get("_coloring") != coloring_digest(coloring):
            raise CertificateError("coloring digest mismatch")
    return verifier(doc, inputs, spec, coloring, budget)
