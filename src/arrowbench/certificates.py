"""Self-contained certificate files and their independent verifier.

A certificate is a JSON text document: envelope (operation, verdict,
input digests, parameters) plus the operation payload.  verify() never
consults the result cache and re-checks the claim from scratch using
only embedding enumeration and pattern codes: fail certificates are
re-scored directly; a holding classical arrow is re-decided by an
independent route (exhaustive coloring enumeration), and a holding
pattern arrow by a re-run of the decider's walk over the placements.
Before any re-check, a document is checked against the JSON shapes that
_VERIFIERS declares for its operation's params and payload.
"""

from __future__ import annotations

import functools
import itertools
import json
import re

from arrowbench import __version__
from arrowbench.ages import (
    AgeSpec,
    AmalgamationInstance,
    amalgamation_probe,
    verify_amalgamation_counterexample,
)
from arrowbench.arrows import (
    ArrowCertificate,
    Coloring,
    arrow_search,
    check_coloring_is_counterexample,
    coloring_digest,
    constant_copy,
    exhaustive_classical_check,
    proximal_check,
    roelcke_witness,
    REAL_TOL,
    _constant_on,
    _pattern_constant_b,
)
from arrowbench.errors import CertificateError, InputError
from arrowbench.patterns import iter_joint_embeddings, pair_pattern_code
from arrowbench.stability import UnstableWitness, stable_up_to
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


def _verify_arrow(doc, inputs, spec, coloring, budget):
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    k = doc["params"]["colors"]
    if doc["verdict"] == "fails":
        if doc["degenerate"]:
            return not embedding_maps(b, c)
        return check_coloring_is_counterexample(c, a, b, doc["payload"]["coloring"])
    if doc["degenerate"]:
        return bool(embedding_maps(b, c)) and not embedding_maps(a, b)
    return exhaustive_classical_check(c, a, b, k, budget)


def _verify_arrow_search(doc, inputs, spec, coloring, budget):
    a, b = inputs["a"], inputs["b"]
    k = doc["params"]["colors"]
    if doc["verdict"] == "fails":
        # negative exhaustion over the age scan is re-checked by re-running
        again = arrow_search(spec, a, b, k, doc["params"]["max_n"], budget)
        return again.verdict == "fails"
    c = _structure(doc["payload"]["c"], "payload.c", spec)
    if not spec.member(c):
        return False
    return exhaustive_classical_check(c, a, b, k, budget)


def _stability_precondition_ok(doc, a, zs, spec, budget) -> bool:
    """One stable entry per coordinate, in order, at the certificate's
    depth, each re-derived by stable_up_to at that depth and host bound."""
    depth = doc["params"]["depth"]
    entries = doc["payload"]["stability_precondition"]
    if len(entries) != len(zs):
        return False
    for i, (z, entry) in enumerate(zip(zs, entries)):
        if (entry["z_index"], entry["stable"], entry["depth"]) != (i, True, depth):
            return False
        report = stable_up_to(spec, a, z, depth, doc["params"].get("max_host"), budget=budget)
        if not report.stable or report.max_host != entry["max_host"]:
            return False
    return True


def _verify_pattern_arrow(doc, inputs, spec, coloring, budget):
    """definable-arrow and stable-arrow, whose coordinates are the z*
    inputs in order.  A stable-arrow's stability precondition is re-run
    first.  A fail is re-scored on its offending joint embedding.  A
    holds is a re-run, not an independent route: it walks the same
    placements as the decider, one per pattern, with the same check,
    stopping at the first that fails."""
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    # the coordinates in the order given: z, or z0, z1, ..., z9, z10, ...
    names = sorted((n for n in doc["inputs"] if n.startswith("z")), key=lambda n: (len(n), n))
    zs = [inputs[name] for name in names]
    if (doc["operation"] == "stable-arrow"
            and not _stability_precondition_ok(doc, a, zs, spec, budget)):
        return False
    emb_bc = embedding_maps(b, c)
    emb_ab = embedding_maps(a, b)
    if doc["degenerate"]:
        if doc["verdict"] == "fails":
            return not emb_bc
        return bool(emb_bc) and not emb_ab
    if doc["verdict"] == "fails":
        off = doc["payload"]["offending"]
        u = _structure(off["u"], "payload.offending.u", spec)
        c_map = tuple(off["c_map"])
        z_maps = [tuple(m) for m in off["z_maps"]]
        return (_joint_embedding_ok(spec, u, [c, *zs], [c_map, *z_maps])
                and _pattern_constant_b(u, c_map, z_maps, emb_bc, emb_ab) is None)
    return all(_pattern_constant_b(u, c_map, z_maps, emb_bc, emb_ab) is not None
               for u, (c_map, *z_maps) in iter_joint_embeddings(spec, c, zs, budget=budget))


def _verify_roelcke(doc, inputs, spec, coloring, budget):
    a, b, z = inputs["a"], inputs["b"], inputs["z"]
    if doc["verdict"] == "fails":
        again = roelcke_witness(spec, a, b, z, doc["params"].get("max_n"), budget=budget)
        return again.verdict == "fails"
    u = _structure(doc["payload"]["u"], "payload.u", spec)
    b_map = tuple(doc["payload"]["b_map"])
    z_map = tuple(doc["payload"]["z_map"])
    return (_joint_embedding_ok(spec, u, [b, z], [b_map, z_map])
            and _constant_on(functools.partial(pair_pattern_code, u), b_map, (z_map,),
                             embedding_maps(a, b)))


def _verify_proximal_check(doc, inputs, spec, coloring, budget):
    again = proximal_check(inputs["u"], coloring, spec, doc["params"]["d_max"], budget)
    return again.verdict == doc["verdict"] and again.payload == doc["payload"]


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
    value = payload["value"]
    domain = embedding_maps(a, c)
    copies = embedding_maps(b, c)
    emb_ab = embedding_maps(a, b)
    if doc["degenerate"]:
        return not emb_ab or not domain
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
                    or len(pair) != 2 or any(m not in pos_of for m in pair)):
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
    # the depth the params ask for, which the decider refuses below 2; a
    # witness's host also keeps to their host bound
    depth, max_host = doc["params"]["depth"], doc["params"].get("max_host")
    if not payload["depth"] == depth >= 2:
        return False
    if doc["verdict"] == "holds":
        # a witness of instability
        host = _structure(payload["host"], "payload.host", spec)
        if not spec.member(host) or (max_host is not None and host.size > max_host):
            return False
        a_maps = tuple(tuple(m) for m in payload["a_maps"])
        z_maps = tuple(tuple(m) for m in payload["z_maps"])
        if not (all(is_embedding(m, a, host) for m in a_maps)
                and all(is_embedding(m, z, host) for m in z_maps)):
            return False
        return UnstableWitness(depth, host, a_maps, z_maps,
                               bytes.fromhex(payload["tau_lt"]),
                               bytes.fromhex(payload["tau_gt"])).verify()
    # the search that the params ask for, whose report the payload must
    # be; a payload at another host bound is refused without it
    if max_host not in (None, payload["max_host"]):
        return False
    report = stable_up_to(spec, a, z, depth, max_host, budget=budget)
    return report.stable and (True, report.max_host, report.pattern_pairs_checked) == (
        payload["stable_up_to"], payload["max_host"], payload["pattern_pairs_checked"])


def _verify_amalgamation(doc, inputs, spec, coloring, budget):
    payload, params = doc["payload"], doc["params"]
    fails = doc["verdict"] == "fails"
    if fails:
        cex = payload["counterexample"]
        a, b, c = (None if cex[x] is None else
                   _structure(cex[x], f"payload.counterexample.{x}", spec) for x in "abc")
        inst = AmalgamationInstance(a, b, c, tuple(cex["f"]), tuple(cex["g"]))
        # a counterexample outside the age or past the bound proves
        # nothing (and every completion of a non-member fails)
        if any(s is not None and (s.size > params["bound"] or not spec.member(s))
               for s in (inst.a, inst.b, inst.c)):
            return False
        if inst.a is not None and not (is_embedding(inst.f, inst.a, inst.b)
                                       and is_embedding(inst.g, inst.a, inst.c)):
            return False
        if not verify_amalgamation_counterexample(spec, inst, params["property"], budget):
            return False
    # the re-run probe's report must be the one the certificate records
    report = amalgamation_probe(spec, params["property"], params["bound"], budget)
    return ((report.counterexample is not None) == fails
            and (payload["instances_checked"], payload["search_cap"])
            == (report.instances_checked, report.search_cap)
            and (fails or payload["holds_up_to"] == report.holds_up_to))


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
    """Independent re-check of a certificate against the given inputs;
    every search it re-runs spends `budget`.  A document without its
    declared shape (see _check_shape; one from load_certificate has been
    checked there) raises CertificateError, as do digest mismatches; a
    sound certificate with a wrong claim returns False."""
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
