import itertools

import pytest

from arrowbench.errors import InputError
from arrowbench.groups import (
    automorphisms,
    coherent_partitions,
    invariant_partitions,
    orbits_on_embeddings,
)
from arrowbench.structures import embedding_maps, is_embedding

from util import chain, cycle, k_graph, nodes, path, pure_set


def test_rigid_chain():
    assert automorphisms(chain(5), nodes()) == (tuple(range(5)),)


def test_c4_dihedral():
    # oracle: exhaustive permutation filter
    c4 = cycle(4)
    brute = [p for p in itertools.permutations(range(4)) if is_embedding(p, c4, c4)]
    group = automorphisms(c4, nodes())
    assert len(group) == 8
    assert list(group) == brute


def test_pure_set_symmetric_group():
    assert len(automorphisms(pure_set(3), nodes())) == 6


def test_closure_laws():
    for s in (cycle(4), path(3), k_graph(3)):
        elems = set(automorphisms(s, nodes()))
        assert tuple(range(s.size)) in elems
        for g in elems:
            inv = tuple(sorted(range(s.size), key=lambda v: g[v]))
            assert inv in elems
            for h in elems:
                comp = tuple(g[h[v]] for v in range(s.size))
                assert comp in elems


def test_p3_point_orbits():
    part = orbits_on_embeddings(path(3), k_graph(1), automorphisms(path(3), nodes()),
                                nodes())
    blocks = {tuple(sorted(part.base[i][0] for i in blk)) for blk in part.blocks}
    assert blocks == {(0, 2), (1,)}


def test_c4_transitive():
    part = orbits_on_embeddings(cycle(4), k_graph(1), automorphisms(cycle(4), nodes()),
                                nodes())
    assert len(part.blocks) == 1


def test_rigid_host_singleton_orbits():
    part = orbits_on_embeddings(chain(5), chain(1), automorphisms(chain(5), nodes()), nodes())
    assert len(part.blocks) == 5
    assert all(len(b) == 1 for b in part.blocks)


def test_invariant_partitions_c4():
    parts = invariant_partitions(cycle(4), k_graph(1), max_blocks=4, budget=nodes())
    assert len(parts) == 1
    assert len(parts[0].blocks) == 1


def test_invariant_partitions_p3():
    parts = invariant_partitions(path(3), k_graph(1), max_blocks=3, budget=nodes())
    assert len(parts) == 2


def test_invariant_partitions_rigid_host():
    # vacuous invariance: all partitions of a 3-element base
    parts = invariant_partitions(chain(3), chain(1), max_blocks=3, budget=nodes())
    assert len(parts) == 5  # Bell(3)
    parts2 = invariant_partitions(chain(3), chain(1), max_blocks=2, budget=nodes())
    assert len(parts2) == 4


def test_discrete_partition_iff_trivial_orbits():
    parts = invariant_partitions(cycle(4), k_graph(1), max_blocks=4, budget=nodes())
    assert not any(all(len(b) == 1 for b in p.blocks) for p in parts)
    parts = invariant_partitions(chain(4), chain(1), max_blocks=4, budget=nodes())
    assert any(all(len(b) == 1 for b in p.blocks) for p in parts)


def test_partitions_are_invariant_and_coarsen_orbits():
    for host, a in ((cycle(4), k_graph(1)), (path(3), k_graph(1))):
        group = automorphisms(host, nodes())
        orbit = orbits_on_embeddings(host, a, group, nodes())
        base = orbit.base
        index = {m: i for i, m in enumerate(base)}
        for p in invariant_partitions(host, a, max_blocks=4, budget=nodes()):
            for g in group:
                for blk in p.blocks:
                    image = {index[tuple(g[v] for v in base[i])] for i in blk}
                    assert image == set(blk)
            for oblk in orbit.blocks:
                assert any(set(oblk) <= set(blk) for blk in p.blocks)


def test_coherent_complete_graph_chain():
    chain_structs = [k_graph(2), k_graph(3), k_graph(4)]
    report = coherent_partitions(chain_structs, k_graph(1), max_blocks=3, budget=nodes())
    assert len(report.families) == 1
    assert report.only_trivial
    assert not report.inconclusive


def test_coherent_rigid_orders_flagged():
    report = coherent_partitions([chain(2), chain(3)], chain(1), max_blocks=2, budget=nodes())
    assert len(report.families) > 1
    assert report.inconclusive


def test_coherent_lists_each_group_once(monkeypatch):
    from arrowbench import groups

    listed = []
    original = groups.automorphisms

    def counted(s, budget):
        listed.append(s)
        return original(s, budget)

    monkeypatch.setattr(groups, "automorphisms", counted)
    chain_structs = [k_graph(2), k_graph(3), k_graph(4)]
    report = coherent_partitions(chain_structs, k_graph(1), max_blocks=3, budget=nodes())
    assert listed == chain_structs
    assert len(report.families) == 1 and not report.inconclusive


def test_coherent_empty_chain():
    report = coherent_partitions([], chain(1), max_blocks=2, budget=nodes())
    assert report.families == ()


def test_coherent_requires_prefix_nesting():
    with pytest.raises(InputError):
        coherent_partitions([cycle(4), k_graph(4)], k_graph(1), max_blocks=2, budget=nodes())


def test_coherent_pullback_consistency():
    chain_structs = [path(2), path(3)]
    report = coherent_partitions(chain_structs, k_graph(1), max_blocks=3, budget=nodes())
    lower_base = embedding_maps(k_graph(1), chain_structs[0])
    for fam in report.families:
        p_low, p_high = fam
        idx_high = {m: i for i, m in enumerate(p_high.base)}
        label_high = [0] * len(p_high.base)
        for bi, blk in enumerate(p_high.blocks):
            for i in blk:
                label_high[i] = bi
        for blk in p_low.blocks:
            target_blocks = {label_high[idx_high[p_low.base[i]]] for i in blk}
            assert len(target_blocks) == 1
