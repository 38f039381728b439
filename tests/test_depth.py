"""Second-wave checks on richer ages and symmetric universes: proximality
with nontrivial automorphisms, forbidden-substructure classes through the
pattern arrows, symmetry-pinned convex values, and cache keying."""

import itertools
import random

import pytest

from arrowbench.ages import catalog_age
from arrowbench.arrows import (
    Coloring,
    classical_arrow,
    convex_arrow,
    definable_arrow,
    proximal_check,
    roelcke_witness,
)
from arrowbench.errors import ResourceLimitExceeded
from arrowbench.patterns import pair_pattern_code, pattern_count
from arrowbench.structures import embedding_maps
from arrowbench.unions import Budget

from util import chain, cycle, free_join, graph, k_graph, nodes, path, pure_set

GRAPHS = catalog_age("graph")
ORDERS = catalog_age("linear_order")
TRIANGLE_FREE = catalog_age("graph_kfree:3")


# ---------------------------------------------------------------------------
# proximality on universes with automorphisms


def slow_proximal_check(u, chi, spec, d_max):
    """Direct reimplementation of the relativized proximality condition."""
    from arrowbench.ages import enumerate_up_to
    from arrowbench.structures import induced_substructure

    a = chi.source
    value_at = {m: v for m, v in zip(chi.domain, chi.values)}
    results = []
    for d_struct in enumerate_up_to(spec, d_max, nodes(2_000_000)):
        emb_ad = embedding_maps(a, d_struct)
        found = None
        for size in range(1, u.size + 1):
            for verts in itertools.combinations(range(u.size), size):
                e_struct = induced_substructure(u, verts)
                e_embs = embedding_maps(e_struct, u)
                ds_in_e = embedding_maps(d_struct, e_struct)
                if not ds_in_e:
                    continue
                if all(any(all(value_at[tuple(e1[dm[am[i]]] for i in range(len(am)))]
                               == value_at[tuple(e2[dm[am[i]]] for i in range(len(am)))]
                               for am in emb_ad)
                           for dm in ds_in_e)
                       for e1 in e_embs for e2 in e_embs):
                    found = verts
                    break
            if found:
                break
        results.append(found is not None)
    return results


def test_proximal_on_cycle_universe():
    # C5 is vertex-transitive, so copies of E really move.  A one-vertex
    # indicator still passes for D = point: take E = an induced 3-path;
    # each copy marks the special vertex in at most one of its 3 slots,
    # so any two copies have >= 2 zero-slots each and share one by
    # pigeonhole, where the restricted colorings agree
    u = cycle(5)
    chi = Coloring(u, k_graph(1), (1, 0, 0, 0, 0), colors=2)
    entries = proximal_check(u, chi, GRAPHS, d_max=1, budget=nodes()).payload["entries"]
    slow = slow_proximal_check(u, chi, GRAPHS, 1)
    assert [p for _, p, _ in entries] == slow
    assert entries[0][1] is True
    # one-vertex and two-vertex candidates fail, so the witness has size 3
    assert len(entries[0][2]) == 3
    const = Coloring(u, k_graph(1), (1, 1, 1, 1, 1), colors=2)
    assert proximal_check(u, const, GRAPHS, d_max=1, budget=nodes()).holds


def test_proximal_on_path_universe_matches_slow_model():
    u = path(4)
    for values in ((1, 0, 0, 1), (0, 1, 1, 0), (1, 1, 0, 0)):
        chi = Coloring(u, k_graph(1), values, colors=2)
        cert = proximal_check(u, chi, GRAPHS, d_max=2, budget=nodes())
        assert [p for _, p, _ in cert.payload["entries"]] == \
            slow_proximal_check(u, chi, GRAPHS, 2)


# ---------------------------------------------------------------------------
# forbidden-substructure ages through the deciders


def test_triangle_free_roelcke_free_join():
    # K_n-free graph classes have free amalgamation, so the free join is
    # always a witness; sweep the 6 triangle-free types of size <= 3
    from arrowbench.ages import enumerate_up_to

    reps = enumerate_up_to(TRIANGLE_FREE, 3, nodes(2_000_000))
    assert len(reps) == 6
    for a_s in reps:
        for b_s in reps:
            for z_s in reps:
                cert = roelcke_witness(TRIANGLE_FREE, a_s, b_s, z_s, budget=nodes())
                assert cert.holds
    u, (b_map, z_map) = free_join([reps[-1], reps[-1]])
    assert TRIANGLE_FREE.member(u)


def test_triangle_free_pattern_counts_drop():
    # K2 against K2: the all-identified-with-edges completions that need a
    # triangle disappear relative to plain graphs
    plain = pattern_count(GRAPHS, k_graph(2), k_graph(2), nodes(2_000_000))
    free = pattern_count(TRIANGLE_FREE, k_graph(2), k_graph(2), nodes(2_000_000))
    assert free < plain


def test_triangle_free_definable_instance():
    c5 = cycle(5)
    cert = definable_arrow(c5, k_graph(1), k_graph(2), k_graph(1), TRIANGLE_FREE, nodes(2_000_000))
    assert cert.verdict in ("holds", "fails")
    # whatever the verdict, the certificate replays
    from arrowbench import certificates

    doc = certificates.envelope(cert, {"a": k_graph(1), "b": k_graph(2),
                                       "c": c5, "z": k_graph(1)},
                                "graph_kfree:3", {})
    assert certificates.verify_certificate(
        doc, {"a": k_graph(1), "b": k_graph(2), "c": c5, "z": k_graph(1)},
        TRIANGLE_FREE, budget=nodes())


def test_classical_arrow_on_triangle_free_age_inputs():
    # C5 -> (K2)^{K1}_2 fails: a proper 2-coloring of C5's vertices with
    # no monochromatic edge exists? C5 is not 2-colorable edge-free, but
    # the arrow asks for a monochromatic EDGE copy; color vertices to
    # avoid monochromatic adjacent pairs = proper 2-coloring, impossible
    # for an odd cycle, so the arrow holds
    cert = classical_arrow(cycle(5), k_graph(1), k_graph(2), 2, nodes(20_000_000))
    assert cert.holds
    # C4 is bipartite: proper 2-coloring exists, the arrow fails
    cert2 = classical_arrow(cycle(4), k_graph(1), k_graph(2), 2, nodes(20_000_000))
    assert not cert2.holds


# ---------------------------------------------------------------------------
# convex values pinned by symmetry


def test_convex_k4_value_zero():
    # the uniform combination over the 12 ordered edges of K4 has equal
    # endpoint marginals, so its oscillation vanishes on every coloring
    cert = convex_arrow(k_graph(4), k_graph(1), k_graph(2), 0.2, nodes())
    assert cert.holds
    assert abs(cert.payload["value"]) <= 1e-9


def test_convex_edge_copies_always_equalize():
    # for B = K2 the copies come in orientation pairs, so averaging each
    # edge with its reversal equalizes the two endpoint marginals: the
    # value is 0 on any graph with an edge, even an asymmetric one
    cert = convex_arrow(path(3), k_graph(1), k_graph(2), 0.1, nodes())
    assert cert.holds
    assert abs(cert.payload["value"]) <= 1e-9


def test_convex_path_against_path_is_maximal():
    # B = P3 into C = P3: only the identity and the reversal exist, and
    # both pin the middle slot to the middle vertex while the leaf slots
    # spread over the leaves; the indicator of the middle vertex then
    # oscillates by exactly 1
    cert = convex_arrow(path(3), k_graph(1), path(3), 0.5, nodes())
    assert not cert.holds
    assert abs(cert.payload["value"] - 1.0) <= 1e-9
    assert cert.payload["gap"] <= 1e-6


# ---------------------------------------------------------------------------
# cache keying and guards


def test_cache_key_depends_on_version(monkeypatch):
    from arrowbench import cache

    k1 = cache.cache_key("arrow", [b"abc"], {"colors": 2})
    monkeypatch.setattr(cache, "__version__", "9.9.9")
    k2 = cache.cache_key("arrow", [b"abc"], {"colors": 2})
    assert k1 != k2
    k3 = cache.cache_key("arrow", [b"abc"], {"colors": 3})
    assert k1 != k3
    k4 = cache.cache_key("arrow", [b"abd"], {"colors": 2})
    assert k1 != k4


def test_invariant_partition_guard():
    from arrowbench.groups import invariant_partitions

    # each partition built spends one node per embedding of A: 9 here
    with pytest.raises(ResourceLimitExceeded, match="invariant_partitions: node budget 5 "):
        invariant_partitions(chain(9), chain(1), max_blocks=9,
                             budget=Budget(5, "invariant_partitions"))
    budget = Budget(100, "invariant_partitions")
    parts = invariant_partitions(chain(3), chain(1), max_blocks=3, budget=budget)
    assert budget.used == 3 * len(parts) == 15


def test_enumeration_deterministic_across_processes():
    import os
    import subprocess
    import sys

    env = dict(os.environ)
    env.pop("ARROWBENCH_CACHE_DIR", None)
    outs = set()
    for _ in range(2):
        r = subprocess.run(
            [sys.executable, "-m", "arrowbench", "enumerate", "--age", "digraph",
             "--n", "3", "--json"],
            capture_output=True, text=True, env=env,
            cwd=os.path.dirname(os.path.dirname(os.path.abspath(__file__))))
        outs.add(r.stdout)
    assert len(outs) == 1
