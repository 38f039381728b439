"""Adversarial cross-checks of the subtle search paths against slow,
obviously-correct re-implementations: the canonical-form shortcut, the
axiom-aware completion menus, the symmetry-broken arrow search, and the
orderly enumeration on richer ages."""

import itertools
import random

import pytest

from arrowbench import structures as st
from arrowbench.ages import AgeSpec, catalog_age, enumerate_structures, member
from arrowbench.arrows import classical_arrow
from arrowbench.patterns import joint_embeddings, pattern_of
from arrowbench.structures import Signature, Structure, canonical_form, relabel
from arrowbench.unions import place_part

from util import (
    brute_embeddings,
    brute_isomorphic,
    chain,
    cycle,
    graph,
    k_graph,
    nodes,
    pure_set,
    random_structure,
)


# ---------------------------------------------------------------------------
# canonical form: the cell-product shortcut must not change any code


def test_product_shortcut_equals_full_search(monkeypatch, seed=77):
    rng = random.Random(seed)
    cases = [pure_set(n) for n in range(1, 6)]
    cases += [k_graph(n) for n in range(2, 5)]
    cases += [cycle(4), cycle(5), graph(4, [(0, 1)]), graph(5, [])]
    cases += [random_structure(rng, max_size=5) for _ in range(40)]
    # complete multipartite-ish and marked structures hit the shortcut
    sig = Signature((("e", 2), ("m", 1)))
    cases += [Structure.make(sig, 4, {"e": [(0, 1), (1, 0), (2, 3), (3, 2)],
                                      "m": [(0,), (2,)]}),
              Structure.make(sig, 5, {"e": [], "m": [(1,), (3,)]})]

    with_shortcut = [st._canonical_search(s, s.signature.key())[0] for s in cases]
    monkeypatch.setattr(st, "_product_complete", lambda s, colors: False)
    without = [st._canonical_search(s, s.signature.key())[0] for s in cases]
    assert with_shortcut == without


def test_canonical_random_higher_arity(seed=303):
    rng = random.Random(seed)
    sig = Signature((("r", 3),))
    for _ in range(25):
        n = rng.randint(1, 4)
        tuples = [t for t in itertools.product(range(n), repeat=3)
                  if rng.random() < 0.25]
        s = Structure.make(sig, n, {"r": tuples})
        base = canonical_form(s)
        for _ in range(4):
            perm = list(range(n))
            rng.shuffle(perm)
            assert canonical_form(relabel(s, perm)) == base
    # and distinct types must get distinct codes
    pool = []
    for _ in range(12):
        n = rng.randint(2, 4)
        tuples = [t for t in itertools.product(range(n), repeat=3)
                  if rng.random() < 0.3]
        pool.append(Structure.make(sig, n, {"r": tuples}))
    for a in pool:
        for b in pool:
            assert (canonical_form(a) == canonical_form(b)) == brute_isomorphic(a, b)


# ---------------------------------------------------------------------------
# enumeration on richer ages vs brute-force labeled counting


def brute_count(spec, n, labeled_iter):
    classes = []
    for s in labeled_iter:
        if member(spec, s) and not any(brute_isomorphic(s, t) for t in classes):
            classes.append(s)
    return len(classes)


def all_labeled_digraphs(n):
    arcs = [(u, v) for u in range(n) for v in range(n) if u != v]
    sig = Signature((("arc", 2),))
    for bits in itertools.product((0, 1), repeat=len(arcs)):
        yield Structure.make(sig, n, {"arc": [a for a, b in zip(arcs, bits) if b]})


def test_digraph_enumeration_counts():
    spec = catalog_age("digraph")
    for n in (1, 2, 3):
        got = len(enumerate_structures(spec, n, nodes(2_000_000)))
        want = brute_count(spec, n, all_labeled_digraphs(n))
        assert got == want, (n, got, want)
    # the labeled digraphs on 3 vertices collapse to 16 isomorphism types
    assert len(enumerate_structures(spec, 3, nodes(2_000_000))) == 16


def test_tournament_enumeration_counts():
    spec = catalog_age("tournament")
    counts = [len(enumerate_structures(spec, n, nodes(2_000_000))) for n in (1, 2, 3, 4)]
    assert counts == [1, 1, 2, 4]


def test_kfree_enumeration_subset_of_graphs():
    graphs = catalog_age("graph")
    k4free = catalog_age("graph_kfree:4")
    all4 = {canonical_form(s) for s in enumerate_structures(graphs, 4, nodes(2_000_000))}
    free4 = {canonical_form(s) for s in enumerate_structures(k4free, 4, nodes(2_000_000))}
    assert free4 < all4
    assert len(free4) == len(all4) - 1  # only K4 itself is excluded at n=4


def test_two_symbol_age_enumeration(seed=11):
    # graph + unary mark, no axioms on the unary symbol
    sig = Signature((("edge", 2), ("m", 1)))
    spec = AgeSpec(sig, (("edge", frozenset({"irreflexive", "symmetric"})),),
                   (), name="marked-graph")

    def labeled(n):
        pairs = list(itertools.combinations(range(n), 2))
        for ebits in itertools.product((0, 1), repeat=len(pairs)):
            edges = [p for p, b in zip(pairs, ebits) if b]
            for mbits in itertools.product((0, 1), repeat=n):
                yield Structure.make(sig, n, {
                    "edge": [(u, v) for u, v in edges] + [(v, u) for u, v in edges],
                    "m": [(v,) for v, b in enumerate(mbits) if b]})

    for n in (1, 2, 3):
        got = len(enumerate_structures(spec, n, nodes(2_000_000)))
        want = brute_count(spec, n, labeled(n))
        assert got == want, (n, got, want)


# ---------------------------------------------------------------------------
# union completion menus vs a generic subset filter


def brute_completions(host, part, spec):
    """All extensions of host by a fully fresh copy of part, enumerated by
    unrestricted subsets over the cross tuples and filtered by member()."""
    sig = part.signature
    n0 = host.size
    m = n0 + part.size
    base = {si: set(t) for si, t in enumerate(host.relations)}
    for si, tuples in enumerate(part.relations):
        for t in tuples:
            base[si].add(tuple(x + n0 for x in t))
    cross = []
    for si, (_, arity) in enumerate(sig.symbols):
        for t in itertools.product(range(m), repeat=arity):
            has_fresh = any(x >= n0 for x in t)
            all_fresh = all(x >= n0 for x in t)
            if has_fresh and not all_fresh:
                cross.append((si, t))
    out = set()
    for bits in itertools.product((0, 1), repeat=len(cross)):
        rels = {si: set(v) for si, v in base.items()}
        for (si, t), b in zip(cross, bits):
            if b:
                rels[si].add(t)
        cand = Structure(sig, m, tuple(tuple(sorted(rels[si]))
                                       for si in range(len(sig.symbols))))
        if member(spec, cand):
            out.add(cand)
    return out


def test_place_part_fresh_completions_match_subset_filter():
    for spec, host, part in (
            (catalog_age("linear_order"), chain(2), chain(2)),
            (catalog_age("graph"), k_graph(2), graph(2, [])),
            (catalog_age("tournament"),
             Structure.make(Signature((("arc", 2),)), 2, {"arc": [(0, 1)]}),
             Structure.make(Signature((("arc", 2),)), 1, {})),
            (catalog_age("graph_kfree:3"), k_graph(2), k_graph(2)),
    ):
        got = set()
        for h, sigma in place_part(host, part, spec, max_size=host.size + part.size,
                                   budget=nodes()):
            if all(v >= host.size for v in sigma):  # fully fresh placements only
                got.add(h)
        want = brute_completions(host, part, spec)
        assert got == want, (spec.name, host.size, part.size)


# ---------------------------------------------------------------------------
# symmetry-broken classical search vs unpruned decisions on symmetric hosts


def oracle_holds(c, a, b, k):
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


def test_symmetric_hosts_arrow_equivalence():
    cases = [
        (pure_set(4), pure_set(1), pure_set(2), 2),
        (pure_set(5), pure_set(1), pure_set(2), 2),  # pigeonhole holds
        (pure_set(4), pure_set(1), pure_set(2), 3),
        (k_graph(4), k_graph(1), k_graph(2), 2),
        (cycle(4), k_graph(1), graph(2, []), 2),
        (cycle(5), k_graph(1), k_graph(2), 2),
        (graph(4, [(0, 1), (2, 3)]), k_graph(1), k_graph(2), 2),
    ]
    for c, a, b, k in cases:
        if len(brute_embeddings(a, c)) > 9:
            continue
        assert classical_arrow(c, a, b, k, nodes(20_000_000)).holds == oracle_holds(c, a, b, k), \
            (c.size, a.size, b.size, k)


def test_three_color_order_instances():
    # pigeonhole with 3 colors on points: need a 4-chain for a 2-chain copy
    from arrowbench.arrows import arrow_search

    cert = arrow_search(catalog_age("linear_order"), chain(1), chain(2), 3, 5, nodes(20_000_000))
    assert cert.holds and cert.payload["n"] == 4
    assert oracle_holds(chain(4), chain(1), chain(2), 3)
    assert not oracle_holds(chain(3), chain(1), chain(2), 3)


# ---------------------------------------------------------------------------
# patterns on multi-part and marked signatures vs the marked-iso oracle


def marked_iso(u1, maps1, u2, maps2):
    if u1.size != u2.size:
        return False
    for f in itertools.permutations(range(u2.size)):
        if not st.is_embedding(f, u1, u2):
            continue
        if all(tuple(f[v] for v in m1) == tuple(m2) for m1, m2 in zip(maps1, maps2)):
            return True
    return False


def test_three_part_patterns_match_oracle():
    spec = catalog_age("graph")
    k1 = k_graph(1)
    jes = joint_embeddings(spec, k1, (k1, k1), budget=nodes(2_000_000))
    codes = [pattern_of(j) for j in jes]
    assert len(set(codes)) == len(codes)
    for i, j1 in enumerate(jes):
        for j2 in jes[i + 1:]:
            assert not marked_iso(j1.target, j1.maps, j2.target, j2.maps)
    # triple point patterns over graphs: identifications (B_3 = 5 set
    # partitions) each carrying cross-edge choices among distinct blocks
    assert len(jes) == 1 + 3 * 2 + 8  # all equal; one pair merged; all distinct


def test_pattern_count_growth_orders():
    # tabulated growth over linear orders: points against growing chains
    from arrowbench.patterns import pattern_count

    orders = catalog_age("linear_order")
    counts = [pattern_count(orders, chain(1), chain(n), nodes(2_000_000)) for n in range(1, 4)]
    # z-chain of size n against one point: point in any of n+1 gaps or
    # equal to any of the n chain elements
    assert counts == [3, 5, 7]
