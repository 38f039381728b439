import functools
import itertools
import json
import math
import random

import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st

from arrowbench import certificates
from arrowbench.ages import AgeSpec, catalog_age, enumerate_up_to
from arrowbench.arrows import (
    Coloring,
    arrow_search,
    check_coloring_is_counterexample,
    classical_arrow,
    convex_arrow,
    definable_arrow,
    exhaustive_classical_check,
    proximal_arrow,
    proximal_check,
    roelcke_witness,
    stable_arrow,
)
from arrowbench import arrows
from arrowbench.errors import (
    ArrowbenchError,
    InputError,
    PreconditionFailure,
    ResourceLimitExceeded,
)
from arrowbench.patterns import pair_pattern_code
from arrowbench.structures import (
    Signature,
    embedding_maps,
    induced_substructure,
    is_embedding,
)
from arrowbench.unions import Budget

from util import (
    chain,
    convex_minimax_oracle,
    convex_vertex_lp_value,
    copy_position_sets_oracle,
    counterexample_search_oracle,
    free_join,
    graph,
    k_graph,
    nodes,
    path,
    pattern_arrow_oracle,
    pure_set,
)

GRAPHS = catalog_age("graph")
ORDERS = catalog_age("linear_order")
SETS = catalog_age("set")


# ---------------------------------------------------------------------------
# independent oracles


def oracle_classical(c, a, b, k):
    """Brute force, written independently of the package's search: every
    k-coloring of the injection-filtered copies of A, tested against every
    copy of B."""
    from util import brute_embeddings

    domain = brute_embeddings(a, c)
    copies = brute_embeddings(b, c)
    emb_ab = brute_embeddings(a, b)
    if not copies:
        return False
    if not emb_ab:
        return True
    index = {m: i for i, m in enumerate(domain)}
    cover = [{index[tuple(bm[x] for x in am)] for am in emb_ab} for bm in copies]
    for chi in itertools.product(range(k), repeat=len(domain)):
        if not any(len({chi[i] for i in positions}) == 1 for positions in cover):
            return False
    return True


def oracle_least_counterexample(c, a, b, k):
    from util import brute_embeddings

    domain = brute_embeddings(a, c)
    copies = brute_embeddings(b, c)
    emb_ab = brute_embeddings(a, b)
    index = {m: i for i, m in enumerate(domain)}
    cover = [{index[tuple(bm[x] for x in am)] for am in emb_ab} for bm in copies]
    for chi in itertools.product(range(k), repeat=len(domain)):
        if not any(len({chi[i] for i in positions}) == 1 for positions in cover):
            return list(chi)
    return None


# ---------------------------------------------------------------------------
# classical arrow


def test_order_six_chain_holds():
    cert = classical_arrow(chain(6), chain(2), chain(3), 2, nodes(20_000_000))
    assert cert.holds
    assert oracle_classical(chain(6), chain(2), chain(3), 2)


def test_order_five_chain_fails_with_checkable_coloring():
    cert = classical_arrow(chain(5), chain(2), chain(3), 2, nodes(20_000_000))
    assert not cert.holds
    assert check_coloring_is_counterexample(chain(5), chain(2), chain(3), 2,
                                            cert.payload["coloring"])
    assert not oracle_classical(chain(5), chain(2), chain(3), 2)


def test_first_counterexample_is_lex_least():
    cert = classical_arrow(chain(5), chain(2), chain(3), 2, nodes(20_000_000))
    got = [col for _, col in cert.payload["coloring"]]
    assert got == oracle_least_counterexample(chain(5), chain(2), chain(3), 2)


def test_one_color_always_holds():
    assert classical_arrow(chain(4), chain(2), chain(3), 1, nodes(20_000_000)).holds


def test_no_copy_of_b_fails():
    cert = classical_arrow(chain(2), chain(1), chain(3), 2, nodes(20_000_000))
    assert not cert.holds
    assert "no copy" in cert.reason


def test_degenerate_holds_flagged():
    # A does not embed in B
    cert = classical_arrow(chain(4), chain(3), chain(2), 2, nodes(20_000_000))
    assert cert.holds and cert.degenerate


def test_aut_position_perms_match_brute_force():
    # Aut(C) as every self-embedding; the listing keeps one automorphism
    # per distinct non-identity permutation of the positions, and a
    # one-vertex A has scalar positions under itemgetter, the others tuples
    for c, a in ((pure_set(4), pure_set(1)), (k_graph(4), k_graph(1)),
                 (pure_set(4), pure_set(2)), (graph(5, [(i, (i + 1) % 5) for i in range(5)]),
                                              path(2)), (chain(4), chain(2)),
                 (path(4), k_graph(1)), (graph(5, [(0, 1), (2, 3)]), k_graph(2))):
        domain = embedding_maps(a, c)
        index = {m: i for i, m in enumerate(domain)}

        def perm(g):
            return tuple(index[tuple(g[v] for v in m)] for m in domain)

        want = {perm(g) for g in itertools.permutations(range(c.size))
                if is_embedding(g, c, c)}
        want.discard(tuple(range(len(domain))))
        got = [perm(g) for g in arrows._aut_actions(c, domain, nodes())]
        assert len(got) == len(set(got)) and set(got) == want


def test_aut_listing_checks_the_deadline():
    # a passed deadline stops the listing of Aut(C) before any node is
    # spent, and the exit names the budget's search
    import time

    budget = Budget(1_000_000, "classical_arrow")
    budget.deadline = time.monotonic() - 1.0
    with pytest.raises(ResourceLimitExceeded, match="classical_arrow: time budget exceeded"):
        classical_arrow(pure_set(7), pure_set(2), pure_set(3), 2, budget)
    assert budget.used == 0


@st.composite
def _classical_instance(draw):
    """(C, A, B, k) with B induced in C and A induced in B; C is a random
    graph, a chain or a pure set on at most 7 vertices.  B has at most 4
    vertices, so that the arrow holds often enough for the prune to cut
    the search, and A at most as many as keep the injections of A into C
    at 60, so that the oracle, which rescans all of Aut(C) at every
    node, stays quick."""
    family = draw(st.sampled_from(("graph", "linear_order", "set")))
    n = draw(st.integers(1, 7))
    if family == "graph":
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        c = graph(n, [e for e, k in zip(pairs, keep) if k])
    else:
        c = chain(n) if family == "linear_order" else pure_set(n)
    b = induced_substructure(c, draw(st.lists(st.integers(0, n - 1), min_size=1,
                                              max_size=4, unique=True)))
    a_max = max(m for m in range(1, b.size + 1) if math.perm(n, m) <= 60)
    a = induced_substructure(b, draw(st.lists(st.integers(0, b.size - 1), min_size=1,
                                              max_size=a_max, unique=True)))
    return c, a, b, draw(st.sampled_from((2, 3)))


@settings(max_examples=150, deadline=None)
@given(_classical_instance())
@example((k_graph(6), k_graph(1), k_graph(3), 2))  # holds: 7 nodes, 10 unpruned
@example((pure_set(7), pure_set(1), pure_set(3), 3))  # holds: 15 nodes, 47 unpruned
@example((pure_set(7), pure_set(2), pure_set(3), 2))  # the benchmark's failing arrow
def test_classical_arrow_matches_the_full_rescan_oracle(instance):
    # advancing only the automorphisms waiting on the colored position
    # prunes exactly where rescanning every position permutation does:
    # same verdict, same least counterexample, same node count
    c, a, b, k = instance
    domain = embedding_maps(a, c)
    copies = arrows._copy_position_sets(domain, embedding_maps(a, b), embedding_maps(b, c))
    spent = nodes(20_000_000)
    bad, aut_perms = counterexample_search_oracle(c, domain, copies, k, spent)
    budget = nodes(20_000_000)
    cert = classical_arrow(c, a, b, k, budget)
    assert budget.used == spent.used
    if bad is None:
        assert cert.holds
        assert cert.payload["nodes"] == spent.used
        assert cert.payload["aut_perms"] == aut_perms
    else:
        assert not cert.holds
        assert cert.payload["coloring"] == [[list(m), col] for m, col in zip(domain, bad)]


@settings(max_examples=150, deadline=None)
@given(_classical_instance())
@example((pure_set(7), pure_set(2), pure_set(3), 2))  # 210 copies of B, 35 images
@example((chain(6), chain(1), chain(3), 2))  # one copy per image
def test_copy_position_sets_match_the_per_copy_oracle(instance):
    # expanding only the first copy of B with each image keeps every
    # distinct position set, in first-seen order
    c, a, b, _ = instance
    args = (embedding_maps(a, c), embedding_maps(a, b), embedding_maps(b, c))
    assert arrows._copy_position_sets(*args) == copy_position_sets_oracle(*args)


def test_oracle_equivalence_random_instances(seed=41):
    rng = random.Random(seed)
    graph_pool = [k_graph(1), k_graph(2), path(3), k_graph(3), graph(3, []),
                  path(4), graph(4, [(0, 1), (2, 3)])]
    for _ in range(12):
        spec_kind = rng.choice(["order", "set", "graph"])
        k = rng.randint(1, 3)
        if spec_kind == "order":
            a, b, c = chain(rng.randint(1, 2)), chain(rng.randint(1, 3)), chain(rng.randint(1, 5))
        elif spec_kind == "set":
            a, b, c = pure_set(1), pure_set(rng.randint(1, 3)), pure_set(rng.randint(1, 4))
        else:
            a = k_graph(1)
            b = rng.choice(graph_pool[:4])
            c = rng.choice(graph_pool)
        if len(embedding_maps(a, c)) > 10:
            continue
        assert classical_arrow(c, a, b, k, nodes(20_000_000)).holds == oracle_classical(c, a, b, k)


def test_arrow_monotonicity_in_c():
    # C = 3-chain holds for points => 4-chain holds too; checked generally
    a, b = chain(1), chain(2)
    assert classical_arrow(chain(3), a, b, 2, nodes(20_000_000)).holds
    for n in range(3, 7):
        assert classical_arrow(chain(n), a, b, 2, nodes(20_000_000)).holds


def test_color_monotonicity():
    # holds for k implies holds for every smaller k
    c, a, b = chain(6), chain(2), chain(3)
    assert classical_arrow(c, a, b, 2, nodes(20_000_000)).holds
    assert classical_arrow(c, a, b, 1, nodes(20_000_000)).holds
    c5 = chain(5)
    if classical_arrow(c5, a, b, 2, nodes(20_000_000)).holds:
        assert classical_arrow(c5, a, b, 1, nodes(20_000_000)).holds


def test_exhaustive_check_agrees():
    assert exhaustive_classical_check(chain(6), chain(2), chain(3), 2, nodes())
    assert not exhaustive_classical_check(chain(5), chain(2), chain(3), 2, nodes())


# ---------------------------------------------------------------------------
# arrow search


def test_search_orders_pigeonhole():
    cert = arrow_search(ORDERS, chain(1), chain(2), 2, 4, nodes(20_000_000))
    assert cert.holds and cert.payload["n"] == 3


def test_search_sets_pigeonhole():
    cert = arrow_search(SETS, pure_set(1), pure_set(2), 2, 4, nodes(20_000_000))
    assert cert.holds and cert.payload["n"] == 3


def test_search_orders_ramsey_33():
    cert = arrow_search(ORDERS, chain(2), chain(3), 2, 6, nodes(20_000_000))
    assert cert.holds and cert.payload["n"] == 6


def test_search_exhausts_to_none():
    cert = arrow_search(ORDERS, chain(2), chain(3), 2, 5, nodes(20_000_000))
    assert not cert.holds


def test_failing_search_builds_each_level_once():
    # one enumeration up to max_n, plus the classical arrow on every
    # candidate at least as large as B
    a, b = k_graph(1), k_graph(3)
    budget = nodes(20_000_000)
    assert not arrow_search(GRAPHS, a, b, 2, 4, budget).holds
    expected = nodes(20_000_000)
    for cand in enumerate_up_to(GRAPHS, 4, expected):
        if cand.size >= b.size:
            classical_arrow(cand, a, b, 2, expected)
    assert budget.used == expected.used
    # no level is built when A is larger than max_n
    idle = nodes(20_000_000)
    assert not arrow_search(GRAPHS, k_graph(5), b, 2, 4, idle).holds and idle.used == 0


# ---------------------------------------------------------------------------
# definable arrow


def pure_set_pattern_key(a_map, z_map):
    return frozenset((i, j) for i, x in enumerate(a_map)
                     for j, y in enumerate(z_map) if x == y)


def oracle_definable_pure_sets(c_n, a_n, b_n, z_n):
    """Independent decision for pure sets: joint embeddings of (C, Z) are
    exactly the partial injections of Z-coordinates into C-coordinates;
    patterns of (a, z) are coincidence sets."""
    c_verts = list(range(c_n))
    for overlap_size in range(0, min(c_n, z_n) + 1):
        for c_chosen in itertools.permutations(c_verts, overlap_size):
            for z_chosen in itertools.combinations(range(z_n), overlap_size):
                # z coordinates z_chosen[i] identified with c vertex c_chosen[i]
                z_map = [None] * z_n
                fresh = c_n
                for zc, cv in zip(z_chosen, c_chosen):
                    z_map[zc] = cv
                for i in range(z_n):
                    if z_map[i] is None:
                        z_map[i] = fresh
                        fresh += 1
                ok_b = False
                for b_img in itertools.permutations(c_verts, b_n):
                    keys = set()
                    for a_img in itertools.permutations(b_img, a_n):
                        keys.add(pure_set_pattern_key(a_img, z_map))
                    if len(keys) <= 1:
                        ok_b = True
                        break
                if not ok_b:
                    return False
    return True


def test_definable_pure_sets_small_sweep():
    for a_n in range(1, 3):
        for b_n in range(a_n, 4):
            for z_n in range(1, 3):
                c_n = b_n + z_n
                cert = definable_arrow(pure_set(c_n), pure_set(a_n),
                                       pure_set(b_n), pure_set(z_n), SETS, nodes(2_000_000))
                assert cert.holds, (a_n, b_n, z_n)
                assert oracle_definable_pure_sets(c_n, a_n, b_n, z_n)


def test_definable_graphs_k4():
    cert = definable_arrow(k_graph(4), k_graph(1), k_graph(2), k_graph(1), GRAPHS,
                           nodes(2_000_000))
    assert cert.holds


def test_definable_trivial_singleton_domain():
    cert = definable_arrow(k_graph(3), k_graph(1), k_graph(1), k_graph(1), GRAPHS,
                           nodes(2_000_000))
    assert cert.holds


def test_definable_fail_has_offending_witness():
    # orders: z between the two elements of every 2-chain copy cannot be
    # avoided in a 2-chain C with B = 2-chain... use C too small to dodge
    cert = definable_arrow(chain(2), chain(1), chain(2), chain(1), ORDERS, nodes(2_000_000))
    if not cert.holds:
        off = cert.payload["offending"]
        assert "u" in off and "c_map" in off


def test_definable_point_z_empty_signature_degenerates_to_overlap():
    # hand enumeration: Z = 1 point in pure sets; patterns are "z hits
    # a-coordinate i" or "z misses"; constancy over a in b(B) requires a
    # copy of B avoiding z or |A|-invariant overlap
    cert = definable_arrow(pure_set(3), pure_set(1), pure_set(2), pure_set(1), SETS,
                           nodes(2_000_000))
    assert cert.holds
    assert cert.payload["joint_patterns_checked"] == 4


# ---------------------------------------------------------------------------
# stable arrow


def test_stable_arrow_pure_sets():
    cert = stable_arrow(pure_set(3), pure_set(1), pure_set(2), (pure_set(1),),
                        SETS, depth=4, budget=nodes())
    assert cert.holds
    pre = cert.payload["stability_precondition"]
    assert pre and pre[0]["stable"]


def test_stable_arrow_orders_precondition_fails():
    with pytest.raises(PreconditionFailure):
        stable_arrow(chain(3), chain(1), chain(2), (chain(1),), ORDERS, depth=4, budget=nodes())


def test_stable_arrow_empty_zs():
    cert = stable_arrow(pure_set(2), pure_set(1), pure_set(2), (), SETS, depth=4, budget=nodes())
    assert cert.holds


def test_stable_arrow_two_coordinates():
    from arrowbench.ages import AgeSpec
    from arrowbench.structures import Signature, Structure

    sig = Signature((("red", 1), ("blue", 1)))
    spec = AgeSpec(sig, (), (), name="bicolor")
    red = Structure.make(sig, 1, {"red": [(0,)]})
    blue = Structure.make(sig, 1, {"blue": [(0,)]})
    plain = Structure.make(sig, 1, {})
    two_plain = Structure.make(sig, 2, {})
    cert = stable_arrow(two_plain, plain, plain, (red, blue), spec, depth=3, budget=nodes())
    assert cert.verdict in ("holds", "fails")


# ---------------------------------------------------------------------------
# both pattern-constant arrows walk the placements uncoded; the oracle
# deduplicates them by pattern code and checks them in code order


_BICOLOR = AgeSpec(Signature((("red", 1), ("blue", 1))), (), (), name="bicolor")


@functools.cache
def _members_up_to(spec, n):
    return enumerate_up_to(spec, n, nodes(2_000_000))


@st.composite
def _pattern_arrow_case(draw, ages, max_a=2):
    """(age, A, B, C, zs): members with |A| <= |B| <= |C| <= 3 (2 for
    digraphs, whose C3/Z2 placements take half a second), |A| <= max_a
    and one or two coordinates of at most 2 vertices each, in one of
    `ages`."""
    spec = draw(st.sampled_from(ages))
    members = _members_up_to(spec, 2 if spec.name == "digraph" else 3)
    c = draw(st.sampled_from(members))
    b = draw(st.sampled_from([s for s in members if s.size <= c.size]))
    a = draw(st.sampled_from([s for s in members if s.size <= min(b.size, max_a)]))
    small = [s for s in members if s.size <= 2]
    zs = tuple(draw(st.lists(st.sampled_from(small), min_size=1, max_size=2)))
    return spec, a, b, c, zs


@settings(max_examples=60, deadline=None)
@given(_pattern_arrow_case(tuple(catalog_age(name) for name in (
    "set", "graph", "graph_kfree:3", "linear_order", "tournament", "digraph"))))
@example((SETS, pure_set(1), pure_set(2), pure_set(3), (pure_set(1),)))  # holds
@example((ORDERS, chain(1), chain(2), chain(3), (chain(2),)))  # fails
def test_definable_arrow_matches_the_code_order_oracle(case):
    spec, a, b, c, (z, *_) = case
    cert = definable_arrow(c, a, b, z, spec, nodes(2_000_000))
    assert cert == pattern_arrow_oracle("definable-arrow", c, a, b, (z,), spec,
                                        nodes(2_000_000), {})


@settings(max_examples=30, deadline=None)
@given(_pattern_arrow_case((SETS, _BICOLOR), max_a=1))
@example((SETS, pure_set(1), pure_set(2), pure_set(3), (pure_set(1),) * 2))  # fails
@example((SETS, pure_set(1), pure_set(2), pure_set(3), (pure_set(1),)))  # holds
def test_stable_arrow_matches_the_code_order_oracle(case):
    # with one-vertex A, these unary ages pass the precondition at depth 4
    spec, a, b, c, zs = case
    cert = stable_arrow(c, a, b, zs, spec, depth=4, budget=nodes())
    extra = {"stability_precondition": cert.payload["stability_precondition"]}
    assert cert == pattern_arrow_oracle("stable-arrow", c, a, b, zs, spec,
                                        nodes(2_000_000), extra)


# ---------------------------------------------------------------------------
# pattern-constant witness search


def test_roelcke_graphs_free_join_is_witness():
    for a_s, b_s, z_s in [(k_graph(1), k_graph(2), k_graph(2)),
                          (k_graph(2), k_graph(3), path(3)),
                          (k_graph(1), path(3), k_graph(3))]:
        cert = roelcke_witness(GRAPHS, a_s, b_s, z_s, budget=nodes())
        assert cert.holds
        # the engine's first candidate is the free join, so the witness
        # must coincide with it whenever the free join works
        u, (b_map, z_map) = free_join([b_s, z_s])[0], free_join([b_s, z_s])[1]
        codes = set()
        for am in embedding_maps(a_s, b_s):
            full = tuple(b_map[am[i]] for i in range(len(am)))
            codes.add(pair_pattern_code(u, full, z_map))
        assert len(codes) <= 1


def test_roelcke_orders_point_outside():
    cert = roelcke_witness(ORDERS, chain(1), chain(2), chain(1), budget=nodes())
    assert cert.holds
    from arrowbench.structures import parse_structure

    u = parse_structure(cert.payload["u"])
    b_map, z_map = cert.payload["b_map"], cert.payload["z_map"]
    # z must be entirely above or entirely below the image of b
    z = z_map[0]
    lt = set(u.rel("lt"))
    above = all((v, z) in lt for v in b_map)
    below = all((z, v) in lt for v in b_map)
    assert above or below


def test_roelcke_singleton_domain_any_joint_embedding():
    cert = roelcke_witness(ORDERS, chain(2), chain(2), chain(1), budget=nodes())
    assert cert.holds and cert.payload["candidates_checked"] == 1


def test_roelcke_witness_replay():
    cert = roelcke_witness(GRAPHS, k_graph(1), k_graph(2), k_graph(1), budget=nodes())
    from arrowbench.structures import parse_structure

    u = parse_structure(cert.payload["u"])
    assert GRAPHS.member(u)
    b_map = tuple(cert.payload["b_map"])
    z_map = tuple(cert.payload["z_map"])
    assert is_embedding(b_map, k_graph(2), u)
    assert is_embedding(z_map, k_graph(1), u)
    assert set(b_map) | set(z_map) == set(range(u.size))


# ---------------------------------------------------------------------------
# proximal colorings


def test_proximal_constant_passes_every_d():
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 1, 1, 1), colors=2)
    cert = proximal_check(u, chi, ORDERS, d_max=2, budget=nodes())
    assert cert.holds and cert.payload["passed_all"]
    for _, passed, witness in cert.payload["entries"]:
        assert passed and witness is not None


def test_proximal_least_point_indicator():
    # oracle (hand enumeration, frozen): every size-1 E fails for D = 1pt
    # because copies hitting 0 disagree with copies missing it; E = {0,1}
    # works since d = the larger point always agrees
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    cert = proximal_check(u, chi, ORDERS, d_max=1, budget=nodes())
    assert cert.payload["entries"][0][1] is True
    assert cert.payload["entries"][0][2] == [0, 1]


def test_proximal_empty_report_below_one():
    u = chain(3)
    chi = Coloring(u, chain(1), (0, 0, 0), colors=1)
    cert = proximal_check(u, chi, ORDERS, d_max=0, budget=nodes())
    assert cert.payload == {"d_max": 0, "entries": [], "passed_all": True}
    assert cert.holds


def _check_doc(u, chi, d_max):
    """The proximal-check certificate document of chi, as the CLI writes it."""
    cert = proximal_check(u, chi, ORDERS, d_max=d_max, budget=nodes())
    doc = certificates.envelope(cert, {"u": u, "a": chi.source}, "linear_order",
                                {"d_max": d_max})
    doc["inputs"]["_coloring"] = arrows.coloring_digest(chi)
    return doc


def test_proximal_arrow_constant():
    u = chain(5)
    chi = Coloring(u, chain(1), (1, 1, 1, 1, 1), colors=2)
    cert = proximal_arrow(u, chi, chain(1), chain(2), _check_doc(u, chi, 2))
    assert cert.holds and cert.payload == {"b_map": [0, 1], "checked_depth": 2}


def test_proximal_arrow_refuses_unverified():
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    failed = dict(_check_doc(u, chi, 1), verdict="fails")
    with pytest.raises(PreconditionFailure, match="not established at depth 1"):
        proximal_arrow(u, chi, chain(1), chain(2), failed)


def test_proximal_arrow_refuses_mismatched_report():
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    other = Coloring(u, chain(1), (0, 0, 0, 0), colors=2)
    with pytest.raises(PreconditionFailure, match="does not match these inputs"):
        proximal_arrow(u, chi, chain(1), chain(2), _check_doc(u, other, 1))
    with pytest.raises(PreconditionFailure, match="does not match these inputs"):
        proximal_arrow(chain(5), Coloring(chain(5), chain(1), (1, 0, 0, 0, 0), colors=2),
                       chain(1), chain(2), _check_doc(u, chi, 1))


def test_proximal_arrow_refuses_another_operation():
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    with pytest.raises(InputError, match="proximal-check certificate"):
        proximal_arrow(u, chi, chain(1), chain(2),
                       dict(_check_doc(u, chi, 1), operation="arrow"))


@pytest.mark.parametrize("values,want", [
    ((0.5, 0.5 + 1e-10, 0.2, 0.9), [0, 1]),
    ((0.1, 0.2, 0.3, 0.3), [2, 3]),
    ((0.1, 0.2, 0.3, 0.4), None),
    ((0, 1, 1, 0), [0, 3]),
    ((1, 0, 2, 3), None),
])
def test_constant_copy_is_the_first_within_tolerance(values, want):
    # oracle: the pairs i < j of a 4-chain in lexicographic order, by
    # hand; two values agree within 1e-9
    kind = "real" if isinstance(values[0], float) else "indexed"
    chi = Coloring(chain(4), chain(1), values, kind=kind)
    got = arrows.constant_copy(chi, chain(2))
    assert (list(got) if got is not None else None) == want


# ---------------------------------------------------------------------------
# convex arrow


def _convex_certificate_replays(cert, c, a, b, family, epsilon):
    inputs = {"a": a, "b": b, "c": c}
    doc = json.loads(json.dumps(certificates.envelope(cert, inputs, family,
                                                      {"epsilon": epsilon})))
    return certificates.verify_certificate(doc, inputs, catalog_age(family), budget=nodes())


def test_convex_pure_set_value_zero():
    # oracle: the uniform combination over all copies of B has equal
    # first/second marginals, so its oscillation is 0 on every coloring;
    # with value >= 0 that pins the game value to exactly 0, which the
    # homogeneous LP reaches as an unbounded ray with no adversary
    for family, c, a, b in (("set", pure_set(4), pure_set(1), pure_set(2)),
                            ("graph", k_graph(6), k_graph(2), k_graph(3)),
                            ("set", pure_set(6), pure_set(2), pure_set(3))):
        cert = convex_arrow(c, a, b, 0.3, nodes())
        assert cert.holds
        assert abs(cert.payload["value"]) <= 1e-9
        assert cert.payload["gap"] <= 1e-6
        assert cert.payload["adversary"] == []
        assert _convex_certificate_replays(cert, c, a, b, family, 0.3)
    oracle = convex_minimax_oracle(pure_set(4), pure_set(1), pure_set(2))
    assert abs(oracle) <= 1e-6


def test_convex_epsilon_one_always_holds(seed=17):
    instances = [
        (chain(4), chain(1), chain(2)),
        (chain(4), chain(2), chain(3)),
        (pure_set(3), pure_set(1), pure_set(2)),
        (k_graph(3), k_graph(1), k_graph(2)),
        (path(3), k_graph(1), k_graph(2)),
    ]
    for c, a, b in instances:
        if not embedding_maps(b, c):
            continue
        cert = convex_arrow(c, a, b, 1.0, nodes())
        assert cert.holds, (c, a, b)
        assert cert.payload["value"] <= 1.0 + 1e-9


def test_convex_value_antitone_in_copies():
    v3 = convex_arrow(pure_set(3), pure_set(1), pure_set(2), 1.0, nodes()).payload["value"]
    v4 = convex_arrow(pure_set(4), pure_set(1), pure_set(2), 1.0, nodes()).payload["value"]
    assert v4 <= v3 + 1e-9


def test_convex_positive_value_instance():
    # a rigid instance where no combination can equalize: single copy of B
    cert = convex_arrow(chain(2), chain(1), chain(2), 0.5, nodes())
    assert not cert.holds
    assert cert.payload["value"] >= 1.0 - 1e-9
    assert cert.payload["adversary"]
    assert cert.payload["gap"] <= 1e-6


def test_convex_gap_within_tolerance_on_spread():
    for c, a, b in ((chain(4), chain(1), chain(2)),
                    (chain(5), chain(2), chain(3)),
                    (pure_set(4), pure_set(2), pure_set(3))):
        cert = convex_arrow(c, a, b, 1.0, nodes())
        assert cert.payload["gap"] <= 1e-6, (c.size, a.size, b.size)


def test_time_budget_enforced():
    import time
    from arrowbench.errors import ResourceLimitExceeded

    budget = Budget(10_000_000, "test")
    budget.deadline = time.monotonic()
    with pytest.raises(ResourceLimitExceeded):
        for _ in range(5000):
            budget.spend()


def test_time_budget_checked_on_every_spend():
    # one spend past the deadline raises: a convex LP makes few, slow
    # pivots, so a deadline checked only every 1024 nodes never fires
    import time
    from arrowbench.errors import ResourceLimitExceeded

    budget = Budget(10)
    budget.deadline = time.monotonic() + 0.001
    time.sleep(0.01)
    with pytest.raises(ResourceLimitExceeded, match="time budget"):
        budget.spend()


def test_budgets_with_different_deadlines_do_not_interfere():
    import time
    from arrowbench.errors import ResourceLimitExceeded

    expired, open_ended, later = Budget(100, "expired"), Budget(100), Budget(100)
    expired.deadline = time.monotonic() - 1.0
    later.deadline = time.monotonic() + 3600.0
    with pytest.raises(ResourceLimitExceeded, match="expired: time budget"):
        expired.spend()
    for _ in range(50):
        open_ended.spend()
        later.spend()
    assert open_ended.deadline is None and (open_ended.used, later.used) == (50, 50)
    # each search sees only the deadline of the budget it is handed
    with pytest.raises(ResourceLimitExceeded, match="expired: time budget"):
        classical_arrow(chain(6), chain(2), chain(3), 2, expired)
    cert = classical_arrow(chain(6), chain(2), chain(3), 2, Budget(10_000_000))
    assert cert.holds and cert.payload["nodes"] > 0


def test_convex_combination_is_valid_distribution():
    cert = convex_arrow(chain(4), chain(1), chain(2), 1.0, nodes())
    weights = [w for _, w in cert.payload["combination"]]
    assert abs(sum(weights) - 1.0) <= 1e-9
    assert all(w >= 0 for w in weights)
    assert all(is_embedding(m, chain(2), chain(4)) for m, _ in cert.payload["combination"])


def test_convex_epsilon_validation():
    with pytest.raises(InputError):
        convex_arrow(pure_set(3), pure_set(1), pure_set(2), 0.0, nodes())
    with pytest.raises(InputError):
        convex_arrow(pure_set(2), pure_set(1), pure_set(3), 0.5, nodes())


def test_convex_chain_2_3_in_9():
    # 36 A-copies: far past any enumeration of the 2^36 {0,1}-colorings
    cert = convex_arrow(chain(9), chain(2), chain(3), 0.5, nodes())
    assert abs(cert.payload["value"] - 52 / 119) <= 1e-9
    assert cert.holds
    assert cert.payload["gap"] <= 1e-6


def test_convex_refuses_suboptimal_solver_point(monkeypatch):
    # all mass on the first copy of B, with the optimal value and duals:
    # the combination's worst case (1) is far above the adversary's bound
    solve = arrows._simplex

    def suboptimal(cost, a_ub, rhs, budget):
        x, y = solve(cost, a_ub, rhs, budget)
        m_cnt = int(sum(cost))
        return [sum(x[:m_cnt])] + [0.0] * (m_cnt - 1) + x[m_cnt:], y

    monkeypatch.setattr(arrows, "_simplex", suboptimal)
    with pytest.raises(ArrowbenchError, match="convex LP"):
        convex_arrow(chain(11), chain(1), chain(3), 0.25, nodes())


def test_convex_chain_2_3_in_12_does_not_stall():
    # every right-hand side but the pair rows' is 0: unperturbed, the
    # simplex pivots in place here for more than 12,000 pivots
    c, a, b = chain(12), chain(2), chain(3)
    cert = convex_arrow(c, a, b, 0.5, Budget(2000, "convex LP"))
    assert cert.payload["gap"] <= 1e-6
    assert _convex_certificate_replays(cert, c, a, b, "linear_order", 0.5)


@st.composite
def _convex_instance(draw):
    """(family, C, A, B) with B induced in C and A induced in B, so that
    both embed; C is a random graph, a chain or a pure set."""
    family = draw(st.sampled_from(("graph", "linear_order", "set")))
    n = draw(st.integers(1, 8))
    if family == "graph":
        pairs = list(itertools.combinations(range(n), 2))
        keep = draw(st.lists(st.booleans(), min_size=len(pairs), max_size=len(pairs)))
        c = graph(n, [e for e, k in zip(pairs, keep) if k])
    else:
        c = chain(n) if family == "linear_order" else pure_set(n)
    b = induced_substructure(c, draw(st.lists(st.integers(0, n - 1), min_size=1,
                                              max_size=4, unique=True)))
    a = induced_substructure(b, draw(st.lists(st.integers(0, b.size - 1), min_size=1,
                                              max_size=3, unique=True)))
    return family, c, a, b


@settings(max_examples=100, deadline=None)
@given(_convex_instance(), st.sampled_from((0.1, 0.5, 1.0)))
def test_convex_compact_lp_matches_vertex_lp(instance, epsilon):
    family, c, a, b = instance
    assume(len(embedding_maps(a, c)) <= 10 and len(embedding_maps(b, c)) <= 400)
    cert = convex_arrow(c, a, b, epsilon, nodes())
    payload = cert.payload
    assert abs(payload["value"] - convex_vertex_lp_value(c, a, b)) <= 1e-9
    assert payload["gap"] <= 1e-6
    for row in payload["adversary"]:
        assert all(0.0 <= x <= 1.0 for x in row["coloring"])
    inputs = {"a": a, "b": b, "c": c}
    doc = json.loads(json.dumps(certificates.envelope(cert, inputs, family,
                                                      {"epsilon": epsilon})))
    assert certificates.verify_certificate(doc, inputs, catalog_age(family), budget=nodes())
