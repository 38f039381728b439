import itertools
import random

import pytest

from arrowbench.ages import catalog_age
from arrowbench.arrows import (
    Coloring,
    ConvexCombination,
    arrow_search,
    check_coloring_is_counterexample,
    classical_arrow,
    convex_arrow,
    convex_minimax_oracle,
    definable_arrow,
    epsilon_constant_witness,
    exhaustive_classical_check,
    proximal_arrow,
    proximal_check,
    roelcke_witness,
    stable_arrow,
)
from arrowbench.errors import InputError, PreconditionFailure
from arrowbench.patterns import free_join, pair_pattern_code
from arrowbench.structures import embedding_maps, is_embedding

from util import chain, graph, k_graph, path, pure_set

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
    cert = classical_arrow(chain(6), chain(2), chain(3), 2)
    assert cert.holds
    assert oracle_classical(chain(6), chain(2), chain(3), 2)


def test_order_five_chain_fails_with_checkable_coloring():
    cert = classical_arrow(chain(5), chain(2), chain(3), 2)
    assert not cert.holds
    assert check_coloring_is_counterexample(chain(5), chain(2), chain(3),
                                            cert.payload["coloring"])
    assert not oracle_classical(chain(5), chain(2), chain(3), 2)


def test_first_counterexample_is_lex_least():
    cert = classical_arrow(chain(5), chain(2), chain(3), 2)
    got = [col for _, col in cert.payload["coloring"]]
    assert got == oracle_least_counterexample(chain(5), chain(2), chain(3), 2)


def test_one_color_always_holds():
    assert classical_arrow(chain(4), chain(2), chain(3), 1).holds


def test_no_copy_of_b_fails():
    cert = classical_arrow(chain(2), chain(1), chain(3), 2)
    assert not cert.holds
    assert "no copy" in cert.reason


def test_degenerate_holds_flagged():
    # A does not embed in B
    cert = classical_arrow(chain(4), chain(3), chain(2), 2)
    assert cert.holds and cert.degenerate


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
        assert classical_arrow(c, a, b, k).holds == oracle_classical(c, a, b, k)


def test_arrow_monotonicity_in_c():
    # C = 3-chain holds for points => 4-chain holds too; checked generally
    a, b = chain(1), chain(2)
    assert classical_arrow(chain(3), a, b, 2).holds
    for n in range(3, 7):
        assert classical_arrow(chain(n), a, b, 2).holds


def test_color_monotonicity():
    # holds for k implies holds for every smaller k
    c, a, b = chain(6), chain(2), chain(3)
    assert classical_arrow(c, a, b, 2).holds
    assert classical_arrow(c, a, b, 1).holds
    c5 = chain(5)
    if classical_arrow(c5, a, b, 2).holds:
        assert classical_arrow(c5, a, b, 1).holds


def test_exhaustive_check_agrees():
    assert exhaustive_classical_check(chain(6), chain(2), chain(3), 2)
    assert not exhaustive_classical_check(chain(5), chain(2), chain(3), 2)


# ---------------------------------------------------------------------------
# arrow search


def test_search_orders_pigeonhole():
    cert = arrow_search(ORDERS, chain(1), chain(2), 2, 4)
    assert cert.holds and cert.payload["n"] == 3


def test_search_sets_pigeonhole():
    cert = arrow_search(SETS, pure_set(1), pure_set(2), 2, 4)
    assert cert.holds and cert.payload["n"] == 3


def test_search_orders_ramsey_33():
    cert = arrow_search(ORDERS, chain(2), chain(3), 2, 6)
    assert cert.holds and cert.payload["n"] == 6


def test_search_exhausts_to_none():
    cert = arrow_search(ORDERS, chain(2), chain(3), 2, 5)
    assert not cert.holds


# ---------------------------------------------------------------------------
# epsilon-constant witnesses


def test_epsilon_constant_coloring():
    u = chain(4)
    chi = Coloring(u, chain(1), (0.5, 0.5, 0.5, 0.5), kind="real")
    cert = epsilon_constant_witness(u, chi, chain(2), 0.01)
    assert cert.holds and cert.payload["b_map"] == [0, 1]


def test_epsilon_global_oscillation_bound():
    u = chain(3)
    chi = Coloring(u, chain(1), (0.1, 0.4, 0.3), kind="real")
    cert = epsilon_constant_witness(u, chi, chain(2), 0.5)
    assert cert.holds and cert.payload["b_map"] == [0, 1]


def test_epsilon_positional_coloring():
    # oracle: direct scan; only adjacent pairs have oscillation 1/3 < 0.4
    u = chain(4)
    chi = Coloring(u, chain(1), tuple(i / 3 for i in range(4)), kind="real")
    cert = epsilon_constant_witness(u, chi, chain(2), 0.4)
    assert cert.holds
    bm = cert.payload["b_map"]
    assert abs(bm[1] - bm[0]) == 1
    none_cert = epsilon_constant_witness(u, chi, chain(2), 0.3)
    assert not none_cert.holds


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
                                       pure_set(b_n), pure_set(z_n), SETS)
                assert cert.holds, (a_n, b_n, z_n)
                assert oracle_definable_pure_sets(c_n, a_n, b_n, z_n)


def test_definable_graphs_k4():
    cert = definable_arrow(k_graph(4), k_graph(1), k_graph(2), k_graph(1), GRAPHS)
    assert cert.holds


def test_definable_trivial_singleton_domain():
    cert = definable_arrow(k_graph(3), k_graph(1), k_graph(1), k_graph(1), GRAPHS)
    assert cert.holds


def test_definable_fail_has_offending_witness():
    # orders: z between the two elements of every 2-chain copy cannot be
    # avoided in a 2-chain C with B = 2-chain... use C too small to dodge
    cert = definable_arrow(chain(2), chain(1), chain(2), chain(1), ORDERS)
    if not cert.holds:
        off = cert.payload["offending"]
        assert "u" in off and "c_map" in off


def test_definable_point_z_empty_signature_degenerates_to_overlap():
    # hand enumeration: Z = 1 point in pure sets; patterns are "z hits
    # a-coordinate i" or "z misses"; constancy over a in b(B) requires a
    # copy of B avoiding z or |A|-invariant overlap
    cert = definable_arrow(pure_set(3), pure_set(1), pure_set(2), pure_set(1), SETS)
    assert cert.holds
    assert cert.payload["joint_patterns_checked"] == 4


# ---------------------------------------------------------------------------
# stable arrow


def test_stable_arrow_pure_sets():
    cert = stable_arrow(pure_set(3), pure_set(1), pure_set(2), (pure_set(1),),
                        SETS, depth=4)
    assert cert.holds
    pre = cert.payload["stability_precondition"]
    assert pre and pre[0]["stable"]


def test_stable_arrow_orders_precondition_fails():
    with pytest.raises(PreconditionFailure):
        stable_arrow(chain(3), chain(1), chain(2), (chain(1),), ORDERS, depth=4)


def test_stable_arrow_empty_zs():
    cert = stable_arrow(pure_set(2), pure_set(1), pure_set(2), (), SETS, depth=4)
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
    cert = stable_arrow(two_plain, plain, plain, (red, blue), spec, depth=3)
    assert cert.verdict in ("holds", "fails")


# ---------------------------------------------------------------------------
# pattern-constant witness search


def test_roelcke_graphs_free_join_is_witness():
    for a_s, b_s, z_s in [(k_graph(1), k_graph(2), k_graph(2)),
                          (k_graph(2), k_graph(3), path(3)),
                          (k_graph(1), path(3), k_graph(3))]:
        cert = roelcke_witness(GRAPHS, a_s, b_s, z_s)
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
    cert = roelcke_witness(ORDERS, chain(1), chain(2), chain(1))
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
    cert = roelcke_witness(ORDERS, chain(2), chain(2), chain(1))
    assert cert.holds and cert.payload["candidates_checked"] == 1


def test_roelcke_witness_replay():
    cert = roelcke_witness(GRAPHS, k_graph(1), k_graph(2), k_graph(1))
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
    report = proximal_check(u, chi, ORDERS, d_max=2)
    assert report.passed_all
    for _, passed, witness in report.entries:
        assert passed and witness is not None


def test_proximal_least_point_indicator():
    # oracle (hand enumeration, frozen): every size-1 E fails for D = 1pt
    # because copies hitting 0 disagree with copies missing it; E = {0,1}
    # works since d = the larger point always agrees
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    report = proximal_check(u, chi, ORDERS, d_max=1)
    assert report.entries[0][1] is True
    assert report.entries[0][2] == [0, 1]


def test_proximal_empty_report_below_one():
    u = chain(3)
    chi = Coloring(u, chain(1), (0, 0, 0), colors=1)
    report = proximal_check(u, chi, ORDERS, d_max=0)
    assert report.entries == ()
    assert report.passed_all


def test_proximal_arrow_constant():
    u = chain(5)
    chi = Coloring(u, chain(1), (1, 1, 1, 1, 1), colors=2)
    report = proximal_check(u, chi, ORDERS, d_max=2)
    cert = proximal_arrow(u, chi, chain(1), chain(2), report)
    assert cert.holds and cert.payload["b_map"] == [0, 1]


def test_proximal_arrow_refuses_unverified():
    import dataclasses

    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    report = proximal_check(u, chi, ORDERS, d_max=1)
    failed = dataclasses.replace(
        report, entries=tuple((d, False, None) for d, _, _ in report.entries))
    with pytest.raises(PreconditionFailure):
        proximal_arrow(u, chi, chain(1), chain(2), failed)


def test_proximal_arrow_refuses_mismatched_report():
    u = chain(4)
    chi = Coloring(u, chain(1), (1, 0, 0, 0), colors=2)
    other = Coloring(u, chain(1), (0, 0, 0, 0), colors=2)
    report = proximal_check(u, other, ORDERS, d_max=1)
    with pytest.raises(PreconditionFailure):
        proximal_arrow(u, chi, chain(1), chain(2), report)


# ---------------------------------------------------------------------------
# convex arrow


def test_convex_pure_set_value_zero():
    # oracle: the uniform combination over all ordered pairs has equal
    # first/second marginals, so its oscillation is 0 on every coloring;
    # with value >= 0 that pins the game value to exactly 0
    cert = convex_arrow(pure_set(4), pure_set(1), pure_set(2), 0.3)
    assert cert.holds
    assert abs(cert.payload["value"]) <= 1e-9
    assert cert.payload["gap"] <= 1e-6
    oracle = convex_minimax_oracle(pure_set(4), pure_set(1), pure_set(2))
    assert abs(cert.payload["value"] - oracle) <= 1e-6


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
        cert = convex_arrow(c, a, b, 1.0)
        assert cert.holds, (c, a, b)
        assert cert.payload["value"] <= 1.0 + 1e-9


def test_convex_value_antitone_in_copies():
    v3 = convex_arrow(pure_set(3), pure_set(1), pure_set(2), 1.0).payload["value"]
    v4 = convex_arrow(pure_set(4), pure_set(1), pure_set(2), 1.0).payload["value"]
    assert v4 <= v3 + 1e-9


def test_convex_positive_value_instance():
    # a rigid instance where no combination can equalize: single copy of B
    cert = convex_arrow(chain(2), chain(1), chain(2), 0.5)
    assert not cert.holds
    assert cert.payload["value"] >= 1.0 - 1e-9
    assert cert.payload["adversary"]
    assert cert.payload["gap"] <= 1e-6


def test_convex_gap_within_tolerance_on_spread():
    for c, a, b in ((chain(4), chain(1), chain(2)),
                    (chain(5), chain(2), chain(3)),
                    (pure_set(4), pure_set(2), pure_set(3))):
        cert = convex_arrow(c, a, b, 1.0)
        assert cert.payload["gap"] <= 1e-6, (c.size, a.size, b.size)


def test_time_budget_enforced():
    from arrowbench.unions import Budget, set_time_budget
    from arrowbench.errors import ResourceLimitExceeded

    set_time_budget(0.0)
    try:
        budget = Budget(10_000_000, "test")
        with pytest.raises(ResourceLimitExceeded):
            for _ in range(5000):
                budget.spend()
    finally:
        set_time_budget(None)


def test_convex_combination_is_valid_distribution():
    cert = convex_arrow(chain(4), chain(1), chain(2), 1.0)
    weights = [w for _, w in cert.payload["combination"]]
    assert abs(sum(weights) - 1.0) <= 1e-9
    assert all(w >= 0 for w in weights)
    ConvexCombination(tuple(weights), tuple(
        __import__("arrowbench.structures", fromlist=["Embedding"]).Embedding(
            chain(2), chain(4), tuple(m)) for m, _ in cert.payload["combination"]))


def test_convex_epsilon_validation():
    with pytest.raises(InputError):
        convex_arrow(pure_set(3), pure_set(1), pure_set(2), 0.0)
    with pytest.raises(InputError):
        convex_arrow(pure_set(2), pure_set(1), pure_set(3), 0.5)
