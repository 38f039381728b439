import functools
import hashlib
import itertools
import random

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from arrowbench import ages, stability
from arrowbench.ages import (
    AXIOM_FLAGS,
    AgeSpec,
    amalgamation_probe,
    catalog_age,
    enumerate_structures,
    enumerate_up_to,
    load_age,
    member,
)
from arrowbench.errors import InputError, ResourceLimitExceeded, SignatureMismatch
from arrowbench.stability import stable_up_to
from arrowbench.structures import (
    Signature,
    Structure,
    _occurrence_table,
    canonical_form,
    in_last_root_cell,
    induced_substructure,
    relabel,
    serialize_structure,
)
from arrowbench.unions import Budget, Constraint, place_part

from util import (
    amalgamation_probe_oracle,
    brute_isomorphic,
    chain,
    cycle,
    enumerate_structures_oracle,
    graph,
    k_graph,
    nodes,
    occurrence_table_oracle,
    place_part_oracle,
    pure_set,
    _refine_oracle,
)

GRAPHS = catalog_age("graph")
ORDERS = catalog_age("linear_order")
SETS = catalog_age("set")
TRIANGLE_FREE = catalog_age("graph_kfree:3")


# ---------------------------------------------------------------------------
# membership


def test_c5_is_triangle_free():
    # oracle: exhaustive K3-embedding search is what member() must agree with
    c5 = cycle(5)
    k3 = k_graph(3)
    found = any(
        all(frozenset((f[u], f[v])) in {frozenset(e) for e in
                                        [(x, y) for x, y in c5.rel("edge")]}
            for u, v in itertools.combinations(range(3), 2))
        for f in itertools.permutations(range(5), 3))
    assert not found
    assert member(TRIANGLE_FREE, c5)


def test_k4_not_triangle_free():
    assert not member(TRIANGLE_FREE, k_graph(4))


def test_two_points_no_lt_not_linear():
    two = Structure.make(Signature((("lt", 2),)), 2, {})
    assert not member(ORDERS, two)


def test_chain_is_linear():
    assert member(ORDERS, chain(5))


def test_member_signature_mismatch():
    with pytest.raises(SignatureMismatch):
        member(GRAPHS, chain(2))


def test_loops_rejected_by_irreflexivity():
    loop = Structure.make(Signature((("edge", 2),)), 1, {"edge": [(0, 0)]})
    assert not member(GRAPHS, loop)


def test_catalog_unknown():
    with pytest.raises(InputError):
        catalog_age("no_such_age")


def test_inconsistent_axiom_flags_rejected():
    with pytest.raises(InputError):
        AgeSpec(Signature((("r", 2),)),
                (("r", frozenset({"symmetric", "antisymmetric", "total"})),))


# ---------------------------------------------------------------------------
# enumeration


def brute_count_graphs(n):
    """Oracle: all labeled graphs on n vertices, deduplicated by exhaustive
    isomorphism."""
    pairs = list(itertools.combinations(range(n), 2))
    classes = []
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        g = graph(n, [p for p, b in zip(pairs, bits) if b])
        if not any(brute_isomorphic(g, h) for h in classes):
            classes.append(g)
    return len(classes)


def test_graph_counts_against_oracle():
    for n in range(1, 5):
        assert len(enumerate_structures(GRAPHS, n, nodes(2_000_000))) == brute_count_graphs(n)


def test_graph_counts_expected_values():
    # OEIS A000088
    counts = [len(enumerate_structures(GRAPHS, n, nodes(2_000_000))) for n in range(1, 7)]
    assert counts == [1, 2, 4, 11, 34, 156]


def test_tournament_counts_expected_values():
    # OEIS A000568
    tournaments = catalog_age("tournament")
    counts = [len(enumerate_structures(tournaments, n, nodes(2_000_000))) for n in range(1, 7)]
    assert counts == [1, 1, 2, 4, 12, 56]


def test_enumeration_labels_only_candidates_in_the_designated_cell(monkeypatch):
    # 1,306 one-vertex extensions give the 156 graphs on 6 vertices; only
    # those whose fresh vertex lies in the last root cell are labeled
    calls = []
    labeling = ages.canonical_labeling

    def counted(s, budget):
        calls.append(s)
        return labeling(s, budget)

    monkeypatch.setattr(ages, "canonical_labeling", counted)
    assert len(enumerate_structures(GRAPHS, 6, nodes(2_000_000))) == 156
    assert len(calls) <= 420


def test_orders_unique_per_size():
    for n in range(1, 7):
        reps = enumerate_structures(ORDERS, n, nodes(2_000_000))
        assert len(reps) == 1
        assert canonical_form(reps[0]) == canonical_form(chain(n))


def test_triangle_free_n3():
    assert len(enumerate_structures(TRIANGLE_FREE, 3, nodes(2_000_000))) == 3


def test_enumeration_members_and_distinct():
    for n in range(1, 5):
        reps = enumerate_structures(GRAPHS, n, nodes(2_000_000))
        codes = [canonical_form(s) for s in reps]
        assert len(set(codes)) == len(codes)
        assert codes == sorted(codes)
        for s in reps:
            assert member(GRAPHS, s)


def test_hereditarity(seed=13):
    rng = random.Random(seed)
    for spec in (GRAPHS, TRIANGLE_FREE, ORDERS, catalog_age("tournament")):
        for s in enumerate_structures(spec, 4, nodes(2_000_000)):
            for _ in range(4):
                k = rng.randint(1, s.size)
                verts = rng.sample(range(s.size), k)
                assert member(spec, induced_substructure(s, verts))


def test_every_labeled_member_is_represented():
    reps = enumerate_structures(TRIANGLE_FREE, 4, nodes(2_000_000))
    pairs = list(itertools.combinations(range(4), 2))
    for bits in itertools.product((0, 1), repeat=len(pairs)):
        g = graph(4, [p for p, b in zip(pairs, bits) if b])
        if member(TRIANGLE_FREE, g):
            assert any(brute_isomorphic(g, r) for r in reps)


def test_pure_sets_single_type():
    for n in range(1, 6):
        assert len(enumerate_structures(SETS, n, nodes(2_000_000))) == 1


def test_enumeration_resource_limit_distinct_from_emptiness():
    from arrowbench.errors import ResourceLimitExceeded

    # a genuinely empty level reports [] ...
    only_points = AgeSpec(Signature((("edge", 2),)),
                          (("edge", frozenset({"irreflexive", "symmetric"})),),
                          (graph(2, []), k_graph(2)), name="no-two-vertex")
    assert enumerate_structures(only_points, 2, nodes(2_000_000)) == []
    # the level generator stops there
    assert [len(level) for level in ages.levels(only_points, nodes(2_000_000))] == [1]
    # ... while an exhausted budget raises instead of reporting emptiness
    with pytest.raises(ResourceLimitExceeded):
        enumerate_structures(GRAPHS, 4, budget=Budget(3))


@pytest.mark.parametrize("name,n", [("graph", 5), ("graph_kfree:3", 5), ("tournament", 4)])
def test_enumerate_up_to_builds_each_level_once(name, n):
    # all n levels for the nodes of the last one alone
    spec = catalog_age(name)
    up_to, last = nodes(2_000_000), nodes(2_000_000)
    reps = ages.enumerate_up_to(spec, n, up_to)
    assert reps == [s for k in range(1, n + 1)
                    for s in enumerate_structures(spec, k, nodes(2_000_000))]
    enumerate_structures(spec, n, last)
    assert up_to.used == last.used > 0


_REL = Signature((("r", 2),))
_UNARY_TERNARY = Signature((("r", 2), ("u", 1), ("t", 3)))
_TRANSITIVE = AgeSpec(_REL, (("r", frozenset({"irreflexive", "transitive"})),),
                      name="strict partial orders")
_MIXED = AgeSpec(_UNARY_TERNARY, (("r", frozenset({"irreflexive", "symmetric"})),),
                 (Structure.make(_UNARY_TERNARY, 1, {"t": [(0, 0, 0)]}),
                  Structure.make(_UNARY_TERNARY, 2, {"u": [(0,), (1,)], "r": [(0, 1), (1, 0)]})),
                 name="marked graphs with a ternary symbol")
# every pair of vertices is joined: the sparsest pair state makes a pair
# a copy of the forbidden structure
_SEMICOMPLETE = AgeSpec(_REL, (("r", frozenset({"irreflexive"})),),
                        (Structure.make(_REL, 2, {"r": []}),), name="semicomplete digraphs")


@st.composite
def _small_age(draw, more_symbols=True):
    """(age, n): a catalog age, or a custom age over one binary symbol
    with random axiom flags and maybe a random forbidden structure, and,
    with `more_symbols`, maybe a unary and a ternary symbol; n keeps
    either enumeration quick (a ternary symbol comes with an irreflexive
    binary one and a forbidden ternary loop, which keeps its 2-vertex
    completions to about 1,000)."""
    if draw(st.booleans()):
        name = draw(st.sampled_from(("set", "graph", "graph_kfree:3", "linear_order",
                                     "tournament", "digraph")))
        return catalog_age(name), draw(st.integers(1, 3 if name == "digraph" else 4))
    ternary = more_symbols and draw(st.booleans())
    unary = more_symbols and draw(st.booleans())
    symbols = [("r", 2)] + [("u", 1)] * unary + [("t", 3)] * ternary
    sig = Signature(tuple(symbols))
    flags = draw(st.frozensets(st.sampled_from(AXIOM_FLAGS)))
    if {"symmetric", "antisymmetric", "total"} <= flags:
        flags -= {"total"}
    forbidden = []
    if draw(st.booleans()):
        k = draw(st.integers(1, 2))
        pairs = list(itertools.product(range(k), repeat=2))
        forbidden.append(Structure.make(
            sig, k, {"r": draw(st.lists(st.sampled_from(pairs), unique=True))}))
    if ternary:
        flags |= {"irreflexive"}
        forbidden.append(Structure.make(sig, 1, {"t": [(0, 0, 0)]}))
    spec = AgeSpec(sig, (("r", flags),), tuple(forbidden))
    return spec, draw(st.integers(1, 2 if ternary else 3))


@settings(max_examples=60, deadline=None)
@given(_small_age())
@example((_TRANSITIVE, 4))
@example((_MIXED, 2))
def test_enumeration_matches_the_extension_oracle(case):
    # extensions built from fresh placements of the one-vertex members
    # give the same representatives as completing the new vertex's
    # tuples directly
    spec, n = case
    assert enumerate_structures(spec, n, nodes(2_000_000)) == enumerate_structures_oracle(spec, n)


def _designated_cell(s):
    """The vertices `in_last_root_cell` accepts, checked against the last
    cell of the oracle's full root refinement."""
    cell = {v for v in range(s.size) if in_last_root_cell(s, v)}
    colors = _refine_oracle(s.size, occurrence_table_oracle(s), [0] * s.size)
    assert cell == {v for v in range(s.size) if colors[v] == max(colors)}
    return cell


@settings(max_examples=60, deadline=None)
@given(_small_age(), st.randoms(use_true_random=False))
@example((_MIXED, 2), random.Random(0))
@example((GRAPHS, 5), random.Random(0))
def test_designated_cell_is_carried_by_relabeling(case, rng):
    # the last cell of the root refinement is label-free: relabeling a
    # member by p maps its designated cell onto the copy's, and the
    # first-round shortcut agrees with the full refinement (graphs on 5
    # vertices include some whose first-round last cell splits later)
    spec, n = case
    for s in enumerate_structures_oracle(spec, n):
        p = rng.sample(range(s.size), s.size)
        assert _designated_cell(relabel(s, p)) == {p[v] for v in _designated_cell(s)}


@settings(max_examples=60, deadline=None)
@given(_small_age())
@example((_MIXED, 2))
def test_occurrence_table_matches_the_scanning_oracle(case):
    # members of a ternary age repeat entries within a tuple, which the
    # fast path for distinct entries must leave to the scan
    spec, n = case
    for s in enumerate_structures_oracle(spec, n):
        assert _occurrence_table(s) == occurrence_table_oracle(s)


# ---------------------------------------------------------------------------
# age files


def test_load_age_catalog_name():
    assert load_age("graph").name == "graph"


def test_load_age_file(tmp_path):
    k3 = tmp_path / "k3.st"
    k3.write_text(serialize_structure(k_graph(3)))
    age = tmp_path / "trifree.age"
    age.write_text(
        "name: my-triangle-free\n"
        "signature: edge/2\n"
        "axioms: edge irreflexive symmetric\n"
        f"forbidden: {k3.name}\n")
    spec = load_age(str(age))
    assert spec.name == "my-triangle-free"
    assert not member(spec, k_graph(3))
    assert member(spec, cycle(5))


def test_load_age_alias_file(tmp_path):
    f = tmp_path / "o.age"
    f.write_text("age: linear_order\n")
    assert load_age(str(f)).name == "linear_order"


# ---------------------------------------------------------------------------
# amalgamation probes


def test_graphs_free_amalgamation_holds():
    report = amalgamation_probe(GRAPHS, "free-amalgamation", 3, nodes())
    assert report.counterexample is None
    assert report.holds_up_to == 3


def test_orders_free_amalgamation_fails_at_2():
    report = amalgamation_probe(ORDERS, "free-amalgamation", 2, nodes())
    assert report.counterexample is not None
    assert ages._find_completion(ORDERS, report.counterexample, True, nodes()) is None


def test_orders_amalgamation_holds_at_3():
    report = amalgamation_probe(ORDERS, "amalgamation", 3, nodes())
    assert report.counterexample is None
    assert report.holds_up_to == 3


def test_free_positive_implies_plain_positive():
    for spec in (GRAPHS, SETS):
        free = amalgamation_probe(spec, "free-amalgamation", 2, nodes())
        if free.counterexample is None:
            plain = amalgamation_probe(spec, "amalgamation", 2, nodes())
            assert plain.counterexample is None


def test_free_amalgamation_keeps_the_new_parts_apart():
    # members have at most 2 points, so the free amalgam of two 2-point
    # sets over one point is no member; the amalgam that identifies the
    # new points is a member, but not a free amalgam
    spec = AgeSpec(SETS.signature, (), (pure_set(3),))
    report = amalgamation_probe(spec, "free-amalgamation", 2, nodes())
    inst = report.counterexample
    assert (inst.a.size, inst.b.size, inst.c.size) == (1, 2, 2)
    assert ages._find_completion(spec, inst, True, nodes()) is None
    assert amalgamation_probe(spec, "amalgamation", 2, nodes()).holds_up_to == 2


def test_joint_embedding_probe():
    assert amalgamation_probe(GRAPHS, "joint-embedding", 3, nodes()).counterexample is None
    assert amalgamation_probe(ORDERS, "joint-embedding", 3, nodes()).counterexample is None


_PROPERTIES = ("joint-embedding", "amalgamation", "free-amalgamation")


@settings(max_examples=60, deadline=None)
@given(_small_age(more_symbols=False), st.sampled_from(_PROPERTIES), st.integers(2, 3))
@example((catalog_age("digraph"), 3), "free-amalgamation", 3)
@example((ORDERS, 3), "free-amalgamation", 3)
@example((TRIANGLE_FREE, 3), "amalgamation", 3)
@example((_SEMICOMPLETE, 3), "joint-embedding", 3)
def test_amalgamation_probe_matches_the_every_instance_oracle(case, which, bound):
    # one completion search per symmetry orbit gives the report of a
    # search of every instance: the same bound, first failing instance and
    # count; a bound of 3 is kept to ages with at most 20 members up to it
    spec, _ = case
    if len(enumerate_up_to(spec, bound, nodes())) > 20:
        bound = 2
    assert (amalgamation_probe(spec, which, bound, nodes())
            == amalgamation_probe_oracle(spec, which, bound, nodes()))


def test_graph_free_amalgamation_searches_one_instance_per_orbit(monkeypatch):
    # graphs up to 3 vertices: 761 instances in 119 orbits of
    # Aut(A) x Aut(B) x Aut(C)
    calls = []
    find = ages._find_completion
    monkeypatch.setattr(ages, "_find_completion", lambda *a: calls.append(a) or find(*a))
    report = amalgamation_probe(GRAPHS, "free-amalgamation", 3, nodes())
    assert report.holds_up_to == 3 and report.instances_checked == 761
    assert len(calls) == 119


def test_transitive_flag_matches_pairwise_definition(seed=5):
    sig = Signature((("r", 2),))
    spec = AgeSpec(sig, (("r", frozenset({"transitive"})),))
    rng = random.Random(seed)
    for _ in range(400):
        n = rng.randint(1, 5)
        pairs = [(u, v) for u in range(n) for v in range(n) if rng.random() < 0.4]
        rel = set(pairs)
        transitive = all((u, w) in rel for u, v in rel for v2, w in rel if v == v2)
        assert member(spec, Structure.make(sig, n, {"r": pairs})) == transitive


# ---------------------------------------------------------------------------
# placement output against the generate-then-member oracle


_R = Signature((("r", 2),))
_MIXED = Signature((("p", 1), ("e", 2), ("t", 3)))
# ages beyond the catalog: orders without totality, a forbidden structure
# that is not vertex-transitive, and mixed arities
_CUSTOM_AGES = {
    "strict_partial_order": AgeSpec(
        _R, (("r", frozenset({"irreflexive", "antisymmetric", "transitive"})),)),
    "preorder": AgeSpec(_R, (("r", frozenset({"transitive"})),)),
    "path2_free": AgeSpec(_R, (("r", frozenset({"irreflexive"})),),
                          (Structure.make(_R, 3, {"r": [(0, 1), (1, 2)]}),)),
    "mixed": AgeSpec(_MIXED, (("e", frozenset({"irreflexive", "symmetric"})),), (
        Structure.make(_MIXED, 1, {"p": [(0,)], "t": [(0, 0, 0)]}),
        Structure.make(_MIXED, 2, {"p": [(0,)], "e": [(0, 1), (1, 0)]}),
        Structure.make(_MIXED, 2, {"t": [(0, 1, 1)]}),
    )),
}
_PLACEMENT_AGES = ("graph", "graph_kfree:3", "linear_order", "tournament", "digraph",
                   "strict_partial_order", "preorder", "path2_free", "mixed")


def _age(name):
    return _CUSTOM_AGES.get(name) or catalog_age(name)


@functools.lru_cache(maxsize=None)
def _labeled_members(name):
    """Every labeled member of at most 3 vertices (2 for the ternary
    signature), found by filtering all labeled structures with `member`."""
    spec = _age(name)
    sig = spec.signature
    out = []
    for n in range(1, 3 if sig.max_arity > 2 else 4):
        tuples = [(si, t) for si, (_, arity) in enumerate(sig.symbols)
                  for t in itertools.product(range(n), repeat=arity)]
        for bits in itertools.product((False, True), repeat=len(tuples)):
            rels = [[] for _ in sig.symbols]
            for (si, t), on in zip(tuples, bits):
                if on:
                    rels[si].append(t)
            s = Structure(sig, n, tuple(tuple(r) for r in rels))
            if member(spec, s):
                out.append(s)
    return tuple(out)


@st.composite
def _placement(draw):
    """(age name, host or None, part, forced, max_size) over members."""
    name = draw(st.sampled_from(_PLACEMENT_AGES))
    members = _labeled_members(name)
    host = draw(st.sampled_from(members)) if draw(st.booleans()) else None
    part = draw(st.sampled_from(members))
    forced = {}
    if host is not None:
        pinned = draw(st.lists(st.integers(0, part.size - 1), unique=True,
                               max_size=min(part.size, host.size)))
        targets = draw(st.permutations(range(host.size)))
        forced = dict(zip(pinned, targets))
    n0 = host.size if host is not None else 0
    max_size = draw(st.none() | st.integers(max(n0, 1), n0 + part.size))
    return name, host, part, forced, max_size


def _placements(place, case):
    name, host, part, forced, max_size = case
    budget = Budget(2000)
    out = []
    try:
        for h, sigma in place(host, part, _age(name), Constraint(pinned=forced), max_size,
                              budget=budget):
            out.append((h, sigma))
    except ResourceLimitExceeded as exc:
        return out, budget.used, str(exc)
    return out, budget.used, None


_MIXED_POINT = Structure(_MIXED, 1, ((), (), ()))


@settings(max_examples=200, deadline=None)
@given(_placement())
# one fresh point beside a strict partial order: a transitivity violation
# through the fresh vertex in each of the three triple positions
@example(("strict_partial_order", Structure(_R, 2, ((),)), Structure(_R, 1, ((),)), {}, None))
@example(("strict_partial_order", Structure(_R, 3, (((2, 1),),)), Structure(_R, 1, ((),)),
          {}, None))
# a forbidden t(0,1,1) that is not vertex-transitive, met at vertex 1 only
@example(("mixed", _MIXED_POINT, _MIXED_POINT, {}, None))
def test_placement_matches_the_generate_then_member_oracle(case):
    # member hosts and parts: checking only what the fresh vertices can
    # break must keep exactly the completions a full `member` call keeps,
    # in the same order and for the same node spend
    assert _placements(place_part, case) == _placements(place_part_oracle, case)


_DIGRAPH = catalog_age("digraph").signature
# (age, a, z, depth, max host, node cap): pattern-directed placements,
# most under excluded host vertices and, outside the set age, required
# tuples; the ternary age's search is cut by its node cap
_STABILITY_PLACEMENTS = {
    "set": (catalog_age("set"), pure_set(1), pure_set(2), 3, None, 10_000),
    "graph": (GRAPHS, k_graph(1), k_graph(2), 3, None, 10_000),
    "linear_order": (ORDERS, chain(1), chain(2), 3, None, 10_000),
    "digraph": (catalog_age("digraph"), Structure.make(_DIGRAPH, 1, {}),
                Structure.make(_DIGRAPH, 2, {"arc": [(0, 1)]}), 3, None, 100_000),
    "mixed": (_CUSTOM_AGES["mixed"], Structure(_MIXED, 1, (((0,),), (), ())), _MIXED_POINT,
              2, 3, 5_000),
}
# sha256 of every placement's yielded (nodes spent so far, host, sigma)
# and its nodes spent at exhaustion, in search order
_PINNED_PLACEMENTS = {
    "set":
        "679ceec9452c35e946b072406164931ea0b51faf42fe87c658acf6aa3ce9326f",
    "graph":
        "76263163532ec464c0a3286eda3b7de4df3763dba05bfcbf9f344f1abea86c1d",
    "linear_order":
        "c3140e25b80f23dcca5e463ae529d312db72e85049beee6f6409966be6b227a4",
    "digraph":
        "58c898d00adca164b40486a0f51d6c4c488a2ebe67afe79f95885dfa53878344",
    "mixed":
        "afd41ddfc2433bf44d36d71df5032a59ee87798908f9999712122e2d444a926b",
}


@pytest.mark.parametrize("name", sorted(_STABILITY_PLACEMENTS))
def test_constrained_placement_node_spend_is_pinned(name, monkeypatch):
    # a rewrite of the completion search must keep each placement's hosts,
    # their order and the nodes spent between them
    spec, a, z, depth, max_host, cap = _STABILITY_PLACEMENTS[name]
    log = []

    def logged(host, part, spec, constraint, max_size, *, budget):
        for h, sigma in place_part(host, part, spec, constraint, max_size, budget=budget):
            log.append((budget.used, h.size, h.relations, sigma))
            yield h, sigma
        log.append(budget.used)

    monkeypatch.setattr(stability, "place_part", logged)
    try:
        stable_up_to(spec, a, z, depth, max_host, budget=Budget(cap))
    except ResourceLimitExceeded:
        log.append("cut")
    assert hashlib.sha256(repr(log).encode()).hexdigest() == _PINNED_PLACEMENTS[name]
