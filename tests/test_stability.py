import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from arrowbench.ages import catalog_age, enumerate_up_to
from arrowbench.errors import InputError, ResourceLimitExceeded
from arrowbench.patterns import joint_embeddings, pair_pattern_code, pattern_of
from arrowbench.stability import (
    UnstableWitness,
    _build_witness,
    _search_pair,
    stable_up_to,
    unstable_witness,
)
from arrowbench.structures import Structure
from arrowbench.unions import Budget

from test_ages import _small_age
from util import (
    chain,
    graph,
    k_graph,
    nodes,
    pure_set,
    search_pair_oracle,
    truncate_witness,
)

GRAPHS = catalog_age("graph")
ORDERS = catalog_age("linear_order")
SETS = catalog_age("set")


def explicit_order_witness(depth):
    """Oracle construction: interleaved chain z_1 a_1 z_2 a_2 ..., so
    a_m < z_k iff m < k."""
    host = chain(2 * depth)
    pt = chain(1)
    a_maps = tuple((2 * m + 1,) for m in range(depth))
    z_maps = tuple((2 * m,) for m in range(depth))
    tau_lt = pair_pattern_code(host, (1,), (2,))   # a below z
    tau_gt = pair_pattern_code(host, (1,), (0,))   # a above z
    return UnstableWitness(depth, host, a_maps, z_maps, tau_lt, tau_gt)


def explicit_half_graph_witness(depth):
    """Oracle construction: bipartite half-graph, a_m ~ z_k iff m < k."""
    n = 2 * depth
    edges = [(m, depth + k) for m in range(depth) for k in range(depth) if m < k]
    host = graph(n, edges)
    a_maps = tuple((m,) for m in range(depth))
    z_maps = tuple((depth + k,) for k in range(depth))
    tau_lt = pair_pattern_code(host, (0,), (depth + 1,))  # adjacent
    tau_gt = pair_pattern_code(host, (1,), (depth + 0,))  # non-adjacent
    return UnstableWitness(depth, host, a_maps, z_maps, tau_lt, tau_gt)


def test_explicit_constructions_verify():
    assert explicit_order_witness(4).verify()
    assert explicit_half_graph_witness(4).verify()


def test_orders_point_pair_unstable_depth4():
    w = unstable_witness(ORDERS, chain(1), chain(1), depth=4, budget=nodes())
    assert w is not None
    assert w.verify()


def test_graphs_point_pair_unstable_depth4():
    w = unstable_witness(GRAPHS, k_graph(1), k_graph(1), depth=4, budget=nodes())
    assert w is not None
    assert w.verify()


def test_depth_one_rejected():
    with pytest.raises(InputError):
        unstable_witness(ORDERS, chain(1), chain(1), depth=1, budget=nodes())


def test_stable_up_to_rejects_depths_below_two():
    # below depth 2 there is no off-diagonal pair, so no verdict exists;
    # a report of instability with a 0- or 1-part witness is wrong
    for depth in (0, 1):
        with pytest.raises(InputError, match="depth must be >= 2"):
            stable_up_to(GRAPHS, k_graph(1), k_graph(2), depth, budget=nodes())


def test_truncation_chain():
    w = unstable_witness(ORDERS, chain(1), chain(1), depth=6, budget=nodes())
    for d in range(2, 7):
        assert truncate_witness(w, d).verify()


def test_pure_sets_depth3_unstable_depth4_stable():
    # exhaustive identification search is the oracle here: the point pair
    # over pure sets admits a depth-3 witness but none at depth 4
    r3 = stable_up_to(SETS, pure_set(1), pure_set(1), depth=3, budget=nodes())
    assert not r3.stable
    assert r3.witness is not None and r3.witness.verify()
    r4 = stable_up_to(SETS, pure_set(1), pure_set(1), depth=4, budget=nodes())
    assert r4.stable
    assert r4.pattern_pairs_checked == 2


def test_orders_not_stable_depth4():
    report = stable_up_to(ORDERS, chain(1), chain(1), depth=4, budget=nodes())
    assert not report.stable


def test_single_pattern_pair_stable_everywhere():
    # A = Z = a 1-point structure in a one-pattern situation: pure sets
    # with both parts forced to coincide has 2 patterns, so build a real
    # single-pattern case: a unary-flagged point against an opposite flag
    from arrowbench.ages import AgeSpec
    from arrowbench.structures import Signature

    sig = Signature((("red", 1), ("blue", 1)))
    spec = AgeSpec(sig, (), (), name="bicolor")
    red = Structure.make(sig, 1, {"red": [(0,)]})
    blue = Structure.make(sig, 1, {"blue": [(0,)]})
    # a red point and a blue point can never coincide: one pattern only
    from arrowbench.patterns import pattern_count

    assert pattern_count(spec, red, blue, nodes(2_000_000)) == 1
    report = stable_up_to(spec, red, blue, depth=5, budget=nodes())
    assert report.stable
    assert report.pattern_pairs_checked == 0


def test_witness_soundness_cross_check():
    w = unstable_witness(GRAPHS, k_graph(1), k_graph(1), depth=5, budget=nodes())
    assert w.tau_lt != w.tau_gt
    for m in range(5):
        for k in range(5):
            if m == k:
                continue
            code = pair_pattern_code(w.host, w.a_maps[m], w.z_maps[k])
            assert code == (w.tau_lt if m < k else w.tau_gt)


def test_point_edge_pair_in_graphs_unstable():
    # regression for the escalating pair schedule: several coincidence
    # pattern pairs here are intractable to exhaust, but easy witnesses
    # exist for other pairs and must be found quickly
    import time

    t0 = time.monotonic()
    w = unstable_witness(GRAPHS, k_graph(1), k_graph(2), depth=3, budget=nodes())
    assert w is not None and w.verify()
    assert time.monotonic() - t0 < 30.0
    report = stable_up_to(GRAPHS, k_graph(1), k_graph(2), depth=3, budget=nodes())
    assert not report.stable
    assert report.witness.verify()


def test_budget_exhaustion_reported_distinctly():
    with pytest.raises(ResourceLimitExceeded):
        unstable_witness(ORDERS, chain(1), chain(1), depth=5, budget=Budget(10))


def test_stability_search_charges_the_budget_it_is_given():
    first = stable_up_to(SETS, pure_set(1), pure_set(2), depth=4, budget=nodes())
    budget = Budget(10_000_000)
    report = stable_up_to(SETS, pure_set(1), pure_set(2), depth=4, budget=budget)
    assert report.stable and report == first
    # the pattern enumeration before the pair search spends it too
    assert budget.used > report.nodes_used > 0
    with pytest.raises(ResourceLimitExceeded,
                       match=r"stability search: node budget \d+ exceeded after "
                             r"deciding 5 of 6 pattern pairs"):
        stable_up_to(SETS, pure_set(1), pure_set(2), depth=4,
                     budget=Budget(report.nodes_used, "stability search"))


def test_stability_deadline_stops_the_pair_search():
    # a passed deadline ends the search at once: it is not taken for a
    # spent slice and the pair paused for a later round
    import time

    from arrowbench.stability import _decide_pairs

    joints = joint_embeddings(SETS, pure_set(1), (pure_set(2),), budget=nodes(2_000_000))
    budget = Budget(10_000, "stability search")
    budget.deadline = time.monotonic() - 1.0
    with pytest.raises(ResourceLimitExceeded,
                       match=r"stability search: time budget exceeded after "
                             r"deciding 0 of 6 pattern pairs"):
        _decide_pairs(SETS, pure_set(1), pure_set(2), 4, joints, 12, budget)
    assert budget.used == 1


@pytest.mark.parametrize("first_slice", [16, 64])
def test_stable_report_nodes_do_not_depend_on_the_slices(monkeypatch, first_slice):
    # a paused pair resumes where it stopped, so a stable report's nodes
    # are one full search per pair under any slice of hosts
    from arrowbench import stability

    monkeypatch.setattr(stability, "_INITIAL_SLICE", first_slice)
    report = stable_up_to(SETS, pure_set(1), pure_set(2), depth=4, budget=nodes())
    assert report.stable and report.nodes_used == 981


@pytest.mark.parametrize("spec,a,z,depth", [(GRAPHS, k_graph(1), k_graph(2), 3),
                                             (ORDERS, chain(2), chain(1), 4)])
def test_unstable_witness_does_not_depend_on_the_nodes_a_placement_spends(
        monkeypatch, spec, a, z, depth):
    # the slices count hosts placed, so a placement that spends more nodes
    # per host (a slower completion search) leaves the schedule, and so
    # the witness, as it was
    from dataclasses import replace

    from arrowbench import stability

    place_part = stability.place_part
    reports = []
    for extra in (0, 1000):
        def costly(*args, budget, extra=extra, **kwargs):
            for placed in place_part(*args, budget=budget, **kwargs):
                budget.spend(extra)
                yield placed

        monkeypatch.setattr(stability, "place_part", costly)
        report = stable_up_to(spec, a, z, depth, budget=Budget(10**9))
        assert not report.stable
        reports.append(replace(report, nodes_used=0))
    assert reports[0] == reports[1]


def test_directed_search_stays_within_small_node_budgets():
    # the filter-after search spent about 2.6M nodes on K2/K2 and 506,662
    # on P2/P3; placements directed by the patterns need a few thousand
    k2 = stable_up_to(GRAPHS, k_graph(2), k_graph(2), depth=3, budget=Budget(50_000))
    assert not k2.stable and k2.pattern_pairs_checked == 650
    p23 = stable_up_to(SETS, pure_set(2), pure_set(3), depth=3, budget=Budget(20_000))
    assert not p23.stable and p23.pattern_pairs_checked == 156


def test_witness_host_within_bound():
    w = unstable_witness(ORDERS, chain(1), chain(1), depth=4, max_host=8, budget=nodes())
    assert w is not None
    assert w.host.size <= 8


# ---------------------------------------------------------------------------
# the directed pair search against the filter-after oracle


@st.composite
def _pair_search_case(draw):
    """(age, a, z, depth, max_host) over small ages, with a two-vertex
    part beside a one-vertex part at most, and depth 3 for two one-vertex
    parts only, so that the oracle's unconstrained placements stay small
    (a digraph age gives each free pair 4 states).  A ternary symbol
    allows one-vertex parts and two-vertex hosts only: one fresh vertex
    beside two old ones already has 19 free ternary tuples."""
    spec, n = draw(_small_age())
    ternary = spec.signature.max_arity > 2
    members = enumerate_up_to(spec, 1 if ternary else min(n, 2), nodes(2_000_000))
    assume(members)  # a forbidden point can empty the age
    a = draw(st.sampled_from(members))
    z = draw(st.sampled_from([s for s in members if a.size + s.size <= 3]))
    depth = draw(st.integers(2, 3 if a.size + z.size == 2 else 2))
    max_host = draw(st.integers(max(a.size, z.size), 2 if ternary else 6))
    return spec, a, z, depth, max_host


def _run_to_end(search):
    """What the `_search_pair` generator returns, driven without pauses."""
    while True:
        try:
            next(search)
        except StopIteration as done:
            return done.value


@settings(max_examples=40, deadline=None)
@given(_pair_search_case(), st.data())
def test_directed_pair_search_matches_the_filter_after_oracle(case, data):
    # directing each placement by the two patterns yields exactly the
    # hosts the filter keeps, in the same order, so every ordered pattern
    # pair gets the same first witness or the same exhaustion; an age
    # with a ternary symbol has about 190 patterns, so there a sample of
    # its pairs is checked and the report is not
    spec, a, z, depth, max_host = case
    joints = joint_embeddings(spec, a, (z,), budget=nodes(2_000_000))
    pairs = [(lt, gt) for lt in joints for gt in joints if lt is not gt]
    every = len(pairs) <= 200
    if not every:
        picks = data.draw(st.lists(st.integers(0, len(pairs) - 1), min_size=1, max_size=5))
        pairs = [pairs[i] for i in picks]
    exhausted = True
    for lt, gt in pairs:
        taus = pattern_of(lt), pattern_of(gt)
        found = _run_to_end(_search_pair(spec, a, z, depth, lt, gt, max_host, nodes()))
        assert found == search_pair_oracle(spec, a, z, depth, *taus, max_host, nodes())
        if found is None:
            continue
        exhausted = False
        assert _build_witness(depth, (found, taus)).verify()
    if every:
        report = stable_up_to(spec, a, z, depth, max_host, budget=nodes())
        assert report.stable == exhausted
        assert report.pattern_pairs_checked == len(pairs)
        assert report.witness is None or report.witness.verify()
