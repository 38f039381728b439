import json

import pytest

from arrowbench import certificates
from arrowbench.ages import amalgamation_probe, catalog_age
from arrowbench.arrows import (
    Coloring,
    classical_arrow,
    coloring_digest,
    convex_arrow,
    definable_arrow,
    proximal_check,
    roelcke_witness,
    stable_arrow,
)
from arrowbench.errors import CertificateError
from arrowbench.stability import stable_up_to, unstable_witness
from arrowbench.structures import Structure, serialize_structure

from util import chain, k_graph, nodes, pure_set

GRAPHS = catalog_age("graph")
ORDERS = catalog_age("linear_order")
SETS = catalog_age("set")


def roundtrip(doc, tmp_path, name="c.cert"):
    p = tmp_path / name
    certificates.write_certificate(doc, str(p))
    return certificates.load_certificate(str(p))


def test_arrow_holds_roundtrip_verifies(tmp_path):
    a, b, c = chain(2), chain(3), chain(6)
    cert = classical_arrow(c, a, b, 2, nodes(20_000_000))
    doc = certificates.envelope(cert, {"a": a, "b": b, "c": c}, "linear_order",
                                {"colors": 2})
    loaded = roundtrip(doc, tmp_path)
    assert certificates.verify_certificate(loaded, {"a": a, "b": b, "c": c}, ORDERS,
                                           budget=nodes())


def test_arrow_fails_roundtrip_verifies(tmp_path):
    a, b, c = chain(2), chain(3), chain(5)
    cert = classical_arrow(c, a, b, 2, nodes(20_000_000))
    doc = certificates.envelope(cert, {"a": a, "b": b, "c": c}, "linear_order",
                                {"colors": 2})
    loaded = roundtrip(doc, tmp_path)
    assert certificates.verify_certificate(loaded, {"a": a, "b": b, "c": c}, ORDERS,
                                           budget=nodes())


def test_flipped_color_detected(tmp_path):
    a, b, c = chain(2), chain(3), chain(5)
    cert = classical_arrow(c, a, b, 2, nodes(20_000_000))
    doc = certificates.envelope(cert, {"a": a, "b": b, "c": c}, "linear_order",
                                {"colors": 2})
    doc["payload"]["coloring"][0][1] ^= 1
    loaded = roundtrip(doc, tmp_path)
    assert not certificates.verify_certificate(loaded, {"a": a, "b": b, "c": c}, ORDERS,
                                               budget=nodes())


def test_digest_mismatch_raises(tmp_path):
    a, b, c = chain(2), chain(3), chain(6)
    cert = classical_arrow(c, a, b, 2, nodes(20_000_000))
    doc = certificates.envelope(cert, {"a": a, "b": b, "c": c}, "linear_order",
                                {"colors": 2})
    loaded = roundtrip(doc, tmp_path)
    with pytest.raises(CertificateError):
        certificates.verify_certificate(loaded, {"a": a, "b": b, "c": chain(5)}, ORDERS,
                                        budget=nodes())


def test_malformed_certificate(tmp_path):
    p = tmp_path / "bad.cert"
    p.write_text("not json")
    with pytest.raises(CertificateError):
        certificates.load_certificate(str(p))
    p.write_text(json.dumps({"format": "something-else"}))
    with pytest.raises(CertificateError):
        certificates.load_certificate(str(p))


def test_definable_certificates(tmp_path):
    a, b, z = pure_set(1), pure_set(2), pure_set(1)
    c = pure_set(3)
    cert = definable_arrow(c, a, b, z, SETS, nodes(2_000_000))
    doc = certificates.envelope(cert, {"a": a, "b": b, "c": c, "z": z}, "set", {})
    loaded = roundtrip(doc, tmp_path)
    assert certificates.verify_certificate(
        loaded, {"a": a, "b": b, "c": c, "z": z}, SETS, budget=nodes())
    # failing instance
    cert2 = definable_arrow(chain(2), chain(1), chain(2), chain(1), ORDERS, nodes(2_000_000))
    assert not cert2.holds
    doc2 = certificates.envelope(
        cert2, {"a": chain(1), "b": chain(2), "c": chain(2), "z": chain(1)},
        "linear_order", {})
    loaded2 = roundtrip(doc2, tmp_path, "d.cert")
    assert certificates.verify_certificate(
        loaded2, {"a": chain(1), "b": chain(2), "c": chain(2), "z": chain(1)}, ORDERS,
        budget=nodes())
    # corrupt the offending witness: z above both C points is NOT offending
    # (the pattern coloring is constant there), so verification must fail
    doc2["payload"]["offending"] = {
        "u": serialize_structure(chain(3)), "c_map": [0, 1], "z_maps": [[2]]}
    assert not certificates.verify_certificate(
        doc2, {"a": chain(1), "b": chain(2), "c": chain(2), "z": chain(1)}, ORDERS, budget=nodes())


def test_verify_rejects_an_offending_host_with_an_uncovered_vertex():
    inputs = {"a": chain(1), "b": chain(2), "c": chain(2), "z": chain(1)}
    cert = definable_arrow(inputs["c"], inputs["a"], inputs["b"], inputs["z"], ORDERS,
                           nodes(2_000_000))
    doc = certificates.envelope(cert, inputs, "linear_order", {})
    off = doc["payload"]["offending"]
    assert off == {"u": serialize_structure(chain(2)), "c_map": [0, 1], "z_maps": [[0]]}
    assert certificates.verify_certificate(doc, inputs, ORDERS, budget=nodes())
    # the same maps into a chain with a spare top vertex: still embeddings
    # into a member, still offending, but the host is not union-supported
    off["u"] = serialize_structure(chain(3))
    assert not certificates.verify_certificate(doc, inputs, ORDERS, budget=nodes())


def test_stable_arrow_certificate(tmp_path):
    a, b, z, c = pure_set(1), pure_set(2), pure_set(1), pure_set(3)
    cert = stable_arrow(c, a, b, (z,), SETS, depth=4, budget=nodes())
    doc = certificates.envelope(cert, {"a": a, "b": b, "c": c, "z0": z}, "set",
                                {"depth": 4})
    loaded = roundtrip(doc, tmp_path)
    assert certificates.verify_certificate(
        loaded, {"a": a, "b": b, "c": c, "z0": z}, SETS, budget=nodes())


def test_roelcke_certificate(tmp_path):
    a, b, z = k_graph(1), k_graph(2), k_graph(2)
    cert = roelcke_witness(GRAPHS, a, b, z, budget=nodes())
    doc = certificates.envelope(cert, {"a": a, "b": b, "z": z}, "graph",
                                {"max_n": None})
    loaded = roundtrip(doc, tmp_path)
    assert certificates.verify_certificate(loaded, {"a": a, "b": b, "z": z}, GRAPHS,
                                           budget=nodes())
    # tamper: drop an edge from the witness so b_map stops being an embedding
    doc["payload"]["u"] = serialize_structure(
        __import__("util").graph(4, [(0, 1)]))
    assert not certificates.verify_certificate(doc, {"a": a, "b": b, "z": z}, GRAPHS,
                                               budget=nodes())


def test_roelcke_certificate_rejects_a_non_constant_joint_embedding():
    a, b, z = k_graph(1), k_graph(2), k_graph(2)
    inputs = {"a": a, "b": b, "z": z}
    doc = certificates.envelope(roelcke_witness(GRAPHS, a, b, z, budget=nodes()), inputs, "graph",
                                {"max_n": None})
    # both maps embed into the member K3 and cover it, but one end of b
    # lies on z and the other does not: the pattern coloring is not constant
    doc["payload"].update(u=serialize_structure(k_graph(3)), b_map=[0, 1], z_map=[1, 2])
    assert not certificates.verify_certificate(doc, inputs, GRAPHS, budget=nodes())


def test_stable_arrow_fail_on_two_coordinates(tmp_path):
    a, b, c, z = pure_set(1), pure_set(2), pure_set(3), pure_set(1)
    inputs = {"a": a, "b": b, "c": c, "z0": z, "z1": z}
    # two points of C sit on the coordinates; the third alone is no copy of B
    cert = stable_arrow(c, a, b, (z, z), SETS, depth=4, budget=nodes())
    assert not cert.holds and len(cert.payload["offending"]["z_maps"]) == 2
    doc = certificates.envelope(cert, inputs, "set", {"depth": 4, "max_host": None})
    assert certificates.verify_certificate(roundtrip(doc, tmp_path), inputs, SETS, budget=nodes())
    # move the second coordinate onto the first: the other two points of C
    # are then a copy of B on which both colorings are constant
    off = doc["payload"]["offending"]
    off["z_maps"][1] = list(off["z_maps"][0])
    assert not certificates.verify_certificate(roundtrip(doc, tmp_path), inputs, SETS,
                                               budget=nodes())


def test_stable_arrow_precondition_is_re_derived(tmp_path):
    a, b, c, z = pure_set(1), pure_set(2), pure_set(4), pure_set(1)
    inputs = {"a": a, "b": b, "c": c, "z0": z, "z1": z}
    cert = stable_arrow(c, a, b, (z, z), SETS, depth=4, budget=nodes())
    doc = certificates.envelope(cert, inputs, "set", {"depth": 4, "max_host": None})
    assert cert.holds
    assert certificates.verify_certificate(roundtrip(doc, tmp_path), inputs, SETS,
                                           budget=nodes())

    def lie(pre):  # one unstable entry at depth 1 for two coordinates
        del pre[1]
        pre[0].update(stable=False, depth=1)

    edits = (lie, lambda pre: pre.pop(), lambda pre: pre[0].update(stable=False),
             lambda pre: pre[1].update(depth=3), lambda pre: pre.reverse(),
             lambda pre: pre[0].update(max_host=2))
    for edit in edits:
        forged = json.loads(json.dumps(doc))
        edit(forged["payload"]["stability_precondition"])
        assert not certificates.verify_certificate(forged, inputs, SETS, budget=nodes())
    # a precondition that the decider could not have met: two points of a
    # linear order have an unstable witness at depth 4
    from arrowbench.arrows import ArrowCertificate

    a, b, c = chain(1), chain(3), chain(2)
    inputs = {"a": a, "b": b, "c": c, "z0": a}
    max_host = stable_up_to(ORDERS, a, a, 4, budget=nodes()).max_host
    degenerate = ArrowCertificate("stable-arrow", "fails", degenerate=True, payload={
        "stability_precondition": [{"z_index": 0, "stable": True, "depth": 4,
                                    "max_host": max_host}]})
    doc = certificates.envelope(degenerate, inputs, "linear_order",
                                {"depth": 4, "max_host": None})
    assert not certificates.verify_certificate(doc, inputs, ORDERS, budget=nodes())


def test_stable_arrow_fail_pairs_coordinates_past_ten_in_order():
    # z0..z9 one point each, z10 two points: z10 sorts after z9, not after z1
    a, b, c = pure_set(1), pure_set(2), pure_set(2)
    inputs = {"a": a, "b": b, "c": c, **{f"z{i}": pure_set(1) for i in range(10)},
              "z10": pure_set(2)}
    offending = {"u": serialize_structure(pure_set(2)), "c_map": [0, 1],
                 "z_maps": [[0]] * 10 + [[0, 1]]}
    from arrowbench.arrows import ArrowCertificate

    # every coordinate is stable at depth 4, as the verifier re-checks
    reports = [stable_up_to(SETS, a, inputs[f"z{i}"], 4, budget=nodes()) for i in range(11)]
    precondition = [{"z_index": i, "stable": r.stable, "depth": 4, "max_host": r.max_host}
                    for i, r in enumerate(reports)]
    cert = ArrowCertificate("stable-arrow", "fails",
                            payload={"offending": offending,
                                     "stability_precondition": precondition})
    doc = certificates.envelope(cert, inputs, "set", {"depth": 4, "max_host": None})
    assert certificates.verify_certificate(doc, inputs, SETS, budget=nodes())


def test_stability_certificate(tmp_path):
    a = z = chain(1)
    w = unstable_witness(ORDERS, a, z, depth=4, budget=nodes())
    payload = {"depth": w.depth, "host": serialize_structure(w.host),
               "a_maps": [list(m) for m in w.a_maps],
               "z_maps": [list(m) for m in w.z_maps],
               "tau_lt": w.tau_lt.hex(), "tau_gt": w.tau_gt.hex()}
    from arrowbench.arrows import ArrowCertificate

    cert = ArrowCertificate("stability", "holds", payload=payload)
    doc = certificates.envelope(cert, {"a": a, "z": z}, "linear_order", {"depth": 4})
    loaded = roundtrip(doc, tmp_path)
    assert certificates.verify_certificate(loaded, {"a": a, "z": z}, ORDERS, budget=nodes())
    # swap two a-parts: the pattern constraints break
    doc["payload"]["a_maps"][0], doc["payload"]["a_maps"][1] = (
        doc["payload"]["a_maps"][1], doc["payload"]["a_maps"][0])
    assert not certificates.verify_certificate(doc, {"a": a, "z": z}, ORDERS, budget=nodes())
    # a payload map that is no embedding into the host is refused
    doc["payload"]["a_maps"][0] = [len(w.host.vertices)]
    assert not certificates.verify_certificate(doc, {"a": a, "z": z}, ORDERS, budget=nodes())


def test_convex_certificate(tmp_path):
    a, b, c = pure_set(1), pure_set(2), pure_set(4)
    cert = convex_arrow(c, a, b, 0.3, nodes())
    doc = certificates.envelope(cert, {"a": a, "b": b, "c": c}, "set",
                                {"epsilon": 0.3})
    loaded = roundtrip(doc, tmp_path)
    assert certificates.verify_certificate(loaded, {"a": a, "b": b, "c": c}, SETS, budget=nodes())
    # understate the value: the direct-oscillation bound must catch it
    bad = convex_arrow(chain(2), chain(1), chain(2), 0.5, nodes())
    doc2 = certificates.envelope(bad, {"a": chain(1), "b": chain(2), "c": chain(2)},
                                 "linear_order", {"epsilon": 0.5})
    doc2["payload"]["value"] = 0.0
    doc2["verdict"] = "holds"
    assert not certificates.verify_certificate(
        doc2, {"a": chain(1), "b": chain(2), "c": chain(2)}, ORDERS, budget=nodes())


def test_convex_certificate_rejects_forged_adversary(tmp_path):
    # a positive value without an adversary mixture proves nothing
    a, b, c = pure_set(1), pure_set(2), pure_set(4)
    doc = certificates.envelope(convex_arrow(c, a, b, 0.3, nodes()), {"a": a, "b": b, "c": c},
                                "set", {"epsilon": 0.3})
    doc["payload"]["value"] = 0.9
    doc["verdict"] = "fails"
    doc["payload"]["adversary"] = []
    assert not certificates.verify_certificate(doc, {"a": a, "b": b, "c": c}, SETS, budget=nodes())

    a, b, c = chain(1), chain(2), chain(8)
    inputs = {"a": a, "b": b, "c": c}
    cert = convex_arrow(c, a, b, 0.1, nodes())
    assert not cert.holds and cert.payload["adversary"]

    def forged(edit):
        doc = json.loads(json.dumps(certificates.envelope(cert, inputs, "linear_order",
                                                          {"epsilon": 0.1})))
        assert certificates.verify_certificate(doc, inputs, ORDERS, budget=nodes())
        edit(doc["payload"]["adversary"])
        return roundtrip(doc, tmp_path)

    def scale(adv):  # colorings leave [0,1]: the lower bound inflates
        for row in adv:
            row["coloring"] = [10 * x for x in row["coloring"]]

    def cancel(adv):  # a negative weight cancelling an extra row
        adv += [dict(adv[0], weight=0.5), dict(adv[0], weight=-0.5)]

    def pad(adv):  # a coloring longer than the domain
        adv[0]["coloring"] = adv[0]["coloring"] + [0.0]

    def foreign(adv):  # a pair that is not two A-copies in B
        adv[0]["pair"] = [[0], [5]]

    for edit in (scale, cancel, pad, foreign):
        assert not certificates.verify_certificate(forged(edit), inputs, ORDERS,
                                                   budget=nodes()), edit


def _proximal_check_doc(tmp_path, u, chi, d_max=1):
    cert = proximal_check(u, chi, ORDERS, d_max=d_max, budget=nodes())
    doc = certificates.envelope(cert, {"u": u, "a": chain(1)}, "linear_order",
                                {"d_max": d_max})
    doc["inputs"]["_coloring"] = coloring_digest(chi)
    return roundtrip(doc, tmp_path)


def test_coloring_certificate_needs_coloring(tmp_path):
    u = chain(4)
    chi = Coloring(u, chain(1), tuple(i / 3 for i in range(4)), kind="real")
    loaded = _proximal_check_doc(tmp_path, u, chi)
    with pytest.raises(CertificateError, match="needs the coloring"):
        certificates.verify_certificate(loaded, {"u": u, "a": chain(1)}, ORDERS,
                                        budget=nodes())
    assert certificates.verify_certificate(loaded, {"u": u, "a": chain(1)}, ORDERS,
                                           coloring=chi, budget=nodes())


def test_proximal_check_certificate(tmp_path):
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    loaded = _proximal_check_doc(tmp_path, u, chi)
    assert loaded["verdict"] == "holds"
    assert certificates.verify_certificate(loaded, {"u": u, "a": chain(1)}, ORDERS,
                                           coloring=chi, budget=nodes())
    for forge in ({"entries": [[*loaded["payload"]["entries"][0][:2], [1, 2]]]},
                  {"passed_all": False}):
        forged = dict(loaded, payload={**loaded["payload"], **forge})
        assert not certificates.verify_certificate(forged, {"u": u, "a": chain(1)}, ORDERS,
                                                   coloring=chi, budget=nodes())
    # a failing check (D = C2 has no copy in U = C1) verifies only as failing
    point = Coloring(chain(1), chain(1), (0,), colors=1)
    failing = _proximal_check_doc(tmp_path, chain(1), point, d_max=2)
    inputs = {"u": chain(1), "a": chain(1)}
    assert failing["verdict"] == "fails"
    assert certificates.verify_certificate(failing, inputs, ORDERS, coloring=point,
                                           budget=nodes())
    assert not certificates.verify_certificate(dict(failing, verdict="holds"), inputs, ORDERS,
                                               coloring=point, budget=nodes())


def _amalgamation_doc(a, b, c, f, g, report):
    """A failing linear_order free-amalgamation certificate at bound 2
    on the given counterexample, recording the counts of `report`."""
    from arrowbench.arrows import ArrowCertificate

    cex = {"a": serialize_structure(a) if a is not None else None,
           "b": serialize_structure(b), "c": serialize_structure(c),
           "f": list(f), "g": list(g)}
    cert = ArrowCertificate("amalgamation", "fails",
                            payload={"counterexample": cex,
                                     "instances_checked": report.instances_checked,
                                     "search_cap": report.search_cap})
    return certificates.envelope(cert, {}, "linear_order",
                                 {"bound": 2, "property": "free-amalgamation"})


def test_amalgamation_counterexample_outside_the_age_is_rejected(tmp_path):
    # linear orders do not freely amalgamate, so the re-run probe finds a
    # counterexample and the recorded counts are its own.  Two unordered
    # points B and a 2-chain C over a common point have no free completion
    # either, so only a membership check stops a forged counterexample on
    # that non-member B
    report = amalgamation_probe(ORDERS, "free-amalgamation", 2, nodes())
    unordered = Structure.make(chain(1).signature, 2, {"lt": []})
    forged = _amalgamation_doc(chain(1), unordered, chain(2), [0], [0], report)
    assert not certificates.verify_certificate(roundtrip(forged, tmp_path), {}, ORDERS,
                                               budget=nodes())
    # a genuine counterexample still verifies
    cex = report.counterexample
    doc = _amalgamation_doc(cex.a, cex.b, cex.c, cex.f, cex.g, report)
    assert certificates.verify_certificate(roundtrip(doc, tmp_path), {}, ORDERS, budget=nodes())
