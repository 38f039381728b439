"""Self-contained certificate files and their independent verifier.

A certificate is a JSON text document: envelope (operation, verdict,
input digests, parameters) plus the operation payload.  verify() never
consults the result cache and re-checks the claim from scratch using
only embedding enumeration and pattern codes: fail certificates are
re-scored directly; a holding classical arrow is re-decided by an
independent route (exhaustive coloring enumeration), and a holding
pattern arrow by a re-run of the decider's walk over the placements.
"""

from __future__ import annotations

import functools
import json

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
from arrowbench.errors import CertificateError
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


# envelope field -> its JSON types, and their name
_ENVELOPE = {"operation": (str, "string"), "age": ((str, type(None)), "string or null"),
             "inputs": (dict, "object"), "params": (dict, "object"), "payload": (dict, "object")}


def load_certificate(path: str) -> dict:
    """The certificate document at `path`, with every JSON object in it a
    _Fields; an envelope field of the wrong JSON type raises, naming it."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            doc = json.load(fh)
    except (OSError, json.JSONDecodeError) as e:
        raise CertificateError(f"cannot read certificate: {e}") from None
    if not isinstance(doc, dict):
        raise CertificateError("certificate is not a JSON object")
    if doc.get("format") != FORMAT:
        raise CertificateError(f"unsupported certificate format {doc.get('format')!r}")
    for field, (types, name) in _ENVELOPE.items():
        if field in doc and not isinstance(doc[field], types):
            raise CertificateError(f"certificate field {field} is not a JSON {name}")
    return _fields(doc)


class _Inputs(dict):
    """The provided inputs by name; asking for a missing one raises."""

    def __missing__(self, name):
        raise CertificateError(f"verification needs input {name!r}: not provided")


class _Fields(dict):
    """A JSON object of the certificate at `path`; reading a field it
    lacks raises CertificateError naming the field."""

    def __init__(self, obj: dict, path: str):
        super().__init__((k, _fields(v, f"{path}{k}.")) for k, v in obj.items())
        self.path = path

    def __missing__(self, name):
        raise CertificateError(f"certificate lacks field {self.path}{name}")


def _fields(value, path: str = ""):
    """The document with every JSON object in it a _Fields."""
    if isinstance(value, dict):
        return _Fields(value, path)
    if isinstance(value, list):
        return [_fields(v, f"{path[:-1]}[{i}].") for i, v in enumerate(value)]
    return value


def _check_digests(doc: dict, inputs: _Inputs) -> None:
    recorded = doc.get("inputs", {})
    for name, digest in recorded.items():
        if name.startswith("_"):
            continue
        got = input_digest(inputs[name])
        if got != digest:
            raise CertificateError(
                f"digest mismatch on input {name!r}: certificate has {digest}, "
                f"provided file has {got}")


def _joint_embedding_ok(spec: AgeSpec, u: Structure, parts, maps) -> bool:
    """maps embed the parts into a member u, and their images cover u."""
    return (spec.member(u) and len(maps) == len(parts)
            and all(is_embedding(m, p, u) for p, m in zip(parts, maps))
            and set().union(*maps) == set(range(u.size)))


def _verify_arrow(doc, inputs, spec, coloring, budget):
    a, b, c = inputs["a"], inputs["b"], inputs["c"]
    k = doc["params"]["colors"]
    if doc["verdict"] == "fails":
        if doc.get("degenerate"):
            return not embedding_maps(b, c)
        return check_coloring_is_counterexample(c, a, b, doc["payload"]["coloring"])
    if doc.get("degenerate"):
        return bool(embedding_maps(b, c)) and not embedding_maps(a, b)
    return exhaustive_classical_check(c, a, b, k, budget)


def _verify_arrow_search(doc, inputs, spec, coloring, budget):
    a, b = inputs["a"], inputs["b"]
    k = doc["params"]["colors"]
    if doc["verdict"] == "fails":
        # negative exhaustion over the age scan is re-checked by re-running
        again = arrow_search(spec, a, b, k, doc["params"]["max_n"], budget)
        return again.verdict == "fails"
    c = parse_structure(doc["payload"]["c"])
    if not spec.member(c):
        return False
    return exhaustive_classical_check(c, a, b, k, budget)


def _stability_precondition_ok(doc, a, zs, spec, budget) -> bool:
    """One stable entry per coordinate, in order, at the certificate's
    depth, each re-derived by stable_up_to at that depth and host bound."""
    depth = doc["params"]["depth"]
    entries = doc["payload"].get("stability_precondition")
    if not isinstance(entries, list) or len(entries) != len(zs):
        return False
    for i, (z, entry) in enumerate(zip(zs, entries)):
        if (entry.get("z_index"), entry.get("stable"), entry.get("depth")) != (i, True, depth):
            return False
        report = stable_up_to(spec, a, z, depth, doc["params"].get("max_host"), budget=budget)
        if not report.stable or report.max_host != entry.get("max_host"):
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
    if doc.get("degenerate"):
        if doc["verdict"] == "fails":
            return not emb_bc
        return bool(emb_bc) and not emb_ab
    if doc["verdict"] == "fails":
        off = doc["payload"]["offending"]
        u = parse_structure(off["u"])
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
    u = parse_structure(doc["payload"]["u"])
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
    if doc.get("degenerate"):
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
    adv = payload.get("adversary", [])
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
    if doc["verdict"] == "holds":
        # a witness of instability
        host = parse_structure(payload["host"])
        if not spec.member(host):
            return False
        a_maps = tuple(tuple(m) for m in payload["a_maps"])
        z_maps = tuple(tuple(m) for m in payload["z_maps"])
        if not (all(is_embedding(m, a, host) for m in a_maps)
                and all(is_embedding(m, z, host) for m in z_maps)):
            return False
        return UnstableWitness(payload["depth"], host, a_maps, z_maps,
                               bytes.fromhex(payload["tau_lt"]),
                               bytes.fromhex(payload["tau_gt"])).verify()
    report = stable_up_to(spec, a, z, payload["depth"], payload["max_host"], budget=budget)
    return report.stable


# counterexample field -> its JSON types, and their name; a list holds integers
_COUNTEREXAMPLE = {"a": ((str, type(None)), "string or null"), "b": (str, "string"),
                   "c": (str, "string"), "f": (list, "list of integers"),
                   "g": (list, "list of integers")}


def _amalgamation_instance(payload) -> AmalgamationInstance:
    """The instance a failing amalgamation certificate names; a field of
    the wrong JSON type raises, naming it."""
    cex = payload["counterexample"]
    if not isinstance(cex, dict):
        raise CertificateError("certificate field payload.counterexample is not a JSON object")
    for field, (types, name) in _COUNTEREXAMPLE.items():
        value = cex.get(field) if field == "a" else cex[field]
        if not isinstance(value, types) or (
                types is list and any(type(v) is not int for v in value)):
            raise CertificateError(
                f"certificate field payload.counterexample.{field} is not a JSON {name}")
    a = parse_structure(cex["a"]) if cex.get("a") else None
    return AmalgamationInstance(a, parse_structure(cex["b"]), parse_structure(cex["c"]),
                                tuple(cex["f"]), tuple(cex["g"]))


def _verify_amalgamation(doc, inputs, spec, coloring, budget):
    payload = doc["payload"]
    which = doc["params"]["property"]
    if doc["verdict"] == "holds":
        report = amalgamation_probe(spec, which, doc["params"]["bound"], budget)
        return (report.counterexample is None
                and (payload["holds_up_to"], payload["instances_checked"], payload["search_cap"])
                == (report.holds_up_to, report.instances_checked, report.search_cap))
    inst = _amalgamation_instance(payload)
    # a counterexample outside the age proves nothing (and every
    # completion of a non-member fails)
    if any(s is not None and not spec.member(s) for s in (inst.a, inst.b, inst.c)):
        return False
    if inst.a is not None:
        if not is_embedding(inst.f, inst.a, inst.b) or not is_embedding(inst.g, inst.a, inst.c):
            return False
    return verify_amalgamation_counterexample(spec, inst, which, budget)


# operation -> (verifier, what it reads besides the inputs: the age, the coloring)
_VERIFIERS = {
    "arrow": (_verify_arrow, ()),
    "arrow-search": (_verify_arrow_search, ("age",)),
    "definable-arrow": (_verify_pattern_arrow, ("age",)),
    "stable-arrow": (_verify_pattern_arrow, ("age",)),
    "roelcke-witness": (_verify_roelcke, ("age",)),
    "convex-arrow": (_verify_convex, ()),
    "stability": (_verify_stability, ("age",)),
    "amalgamation": (_verify_amalgamation, ("age",)),
    "proximal-check": (_verify_proximal_check, ("age", "coloring")),
    "proximal-arrow": (_verify_proximal_arrow, ("coloring",)),
}


def verify_certificate(doc: dict, inputs: dict[str, Structure], spec: AgeSpec | None,
                       coloring: Coloring | None = None, *, budget: Budget) -> bool:
    """Independent re-check of a certificate against the given inputs;
    every search it re-runs spends `budget`.  Digest mismatches raise
    CertificateError, as does a field the verifier reads and the document
    lacks; a sound certificate with a wrong claim returns False."""
    doc = doc if isinstance(doc, _Fields) else _fields(doc)  # load_certificate wraps
    inputs = _Inputs(inputs)
    _check_digests(doc, inputs)
    op = doc.get("operation")
    if op not in _VERIFIERS:
        raise CertificateError(f"operation {op!r} has no verifier")
    verifier, reads = _VERIFIERS[op]
    if spec is None and "age" in reads:
        raise CertificateError(f"{op} verification needs --age")
    if "coloring" in reads:
        if coloring is None:
            raise CertificateError(f"{op} verification needs the coloring")
        if doc["inputs"].get("_coloring") != coloring_digest(coloring):
            raise CertificateError("coloring digest mismatch")
    return verifier(doc, inputs, spec, coloring, budget)
