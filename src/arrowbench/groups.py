"""Automorphism groups of finite structures and their action on embedding sets.

Automorphisms reuse the embedding kernel (an injective self-map that
preserves and reflects every relation of a finite structure is an
automorphism), which doubles as cross-validation of the canonical-form
machinery: orbit counts must be consistent between the two.

Finite hosts only ever approximate the automorphism group of a limit
structure; the chain report therefore states evidence ("only trivial
coherent families up to this level"), never a verdict about any limit.
"""

from __future__ import annotations

from dataclasses import dataclass

from arrowbench.errors import InputError, SignatureMismatch
from arrowbench.structures import (
    Structure,
    embedding_maps,
    induced_substructure,
)
from arrowbench.unions import Budget


@dataclass(frozen=True)
class InvariantPartition:
    """A partition of embeddings(A, host) fixed blockwise by every automorphism."""

    base: tuple[tuple[int, ...], ...]  # embedding maps, lexicographic
    blocks: tuple[tuple[int, ...], ...]  # partition of base indices


def automorphisms(s: Structure, budget: Budget) -> tuple[tuple[int, ...], ...]:
    """All automorphisms of s as permutations, in lexicographic order
    (identity first).  The listing spends no node of `budget` but checks
    its deadline once per image of vertex 0."""
    return tuple(embedding_maps(s, s, deadline=budget))


def orbits_on_embeddings(s: Structure, a: Structure, group,
                         budget: Budget) -> InvariantPartition:
    """The orbit partition of Aut(s) acting on embeddings(a, s) by g.e = g o e,
    for `group` the listing automorphisms(s).  Spends no node of `budget`
    but checks its deadline while it lists the embeddings (once per image
    of vertex 0) and once per 1,024 group elements applied, so that a
    large orbit is no unchecked stretch."""
    if a.signature != s.signature:
        raise SignatureMismatch("orbit computation needs one common signature")
    base = embedding_maps(a, s, deadline=budget)
    index = {m: i for i, m in enumerate(base)}
    seen = [False] * len(base)
    blocks = []
    applied = 0
    for i, m in enumerate(base):
        if seen[i]:
            continue
        orbit = set()
        for g in group:
            if applied % 1024 == 0:
                budget.check_deadline()
            applied += 1
            orbit.add(index[tuple(g[v] for v in m)])
        for j in orbit:
            seen[j] = True
        blocks.append(tuple(sorted(orbit)))
    blocks.sort(key=lambda b: b[0])
    return InvariantPartition(tuple(base), tuple(blocks))


def _partitions_of(items: list[int], max_blocks: int):
    """All set partitions of items into at most max_blocks blocks,
    in a deterministic order (restricted-growth strings)."""
    n = len(items)
    if n == 0:
        return
    assignment = [0] * n

    def rec(i, used):
        if i == n:
            blocks: dict[int, list[int]] = {}
            for item, b in zip(items, assignment):
                blocks.setdefault(b, []).append(item)
            yield tuple(tuple(blocks[b]) for b in sorted(blocks))
            return
        for b in range(min(used + 1, max_blocks)):
            assignment[i] = b
            yield from rec(i + 1, max(used, b + 1))

    yield from rec(0, 0)


def invariant_partitions(
    s: Structure, a: Structure, max_blocks: int, budget: Budget, group=None
) -> list[InvariantPartition]:
    """Every partition of embeddings(a, s) with <= max_blocks blocks whose
    blocks are unions of Aut(s)-orbits (each block fixed setwise by the
    group).  The discrete partition appears iff all orbits are singletons.
    Each partition built spends one node of `budget` per embedding.
    """
    if max_blocks < 1:
        raise InputError("max_blocks must be >= 1")
    if group is None:
        group = automorphisms(s, budget)
    orbit_part = orbits_on_embeddings(s, a, group, budget)
    orbit_ids = list(range(len(orbit_part.blocks)))
    out = []
    for grouping in _partitions_of(orbit_ids, max_blocks):
        budget.spend(len(orbit_part.base))
        blocks = []
        for group in grouping:
            merged: list[int] = []
            for oid in group:
                merged.extend(orbit_part.blocks[oid])
            blocks.append(tuple(sorted(merged)))
        blocks.sort(key=lambda b: b[0])
        out.append(InvariantPartition(orbit_part.base, tuple(blocks)))
    return out


@dataclass(frozen=True)
class CoherentChainReport:
    """Families of level-wise invariant partitions glued along a chain."""

    families: tuple[tuple[InvariantPartition, ...], ...]
    only_trivial: bool  # every surviving family is all-one-block
    inconclusive: bool  # some level has a trivial automorphism group


def _labels(partition: InvariantPartition, positions) -> tuple[int, ...]:
    """The block of each base entry at `positions`, blocks numbered in
    order of first appearance."""
    block = {i: bi for bi, members in enumerate(partition.blocks) for i in members}
    remap: dict[int, int] = {}
    return tuple(remap.setdefault(block[i], len(remap)) for i in positions)


def coherent_partitions(
    chain: list[Structure], a: Structure, max_blocks: int, budget: Budget
) -> CoherentChainReport:
    """Families (P_1,...,P_m) of invariant partitions along a prefix-nested
    chain F_1 <= ... <= F_m, where pulling P_{i+1} back along the
    inclusion-induced map on embeddings gives exactly P_i.  The level
    partitions spend `budget` as in invariant_partitions, each family
    kept spends one node per level, and the listings of embeddings check
    its deadline.
    """
    if not chain:
        return CoherentChainReport((), only_trivial=True, inconclusive=False)
    for lower, upper in zip(chain, chain[1:]):
        if lower.size > upper.size:
            raise InputError("chain must be nested by size")
        if induced_substructure(upper, range(lower.size)) != lower:
            raise InputError("each chain member must be induced in the next on 0..n-1")

    groups = [automorphisms(f, budget) for f in chain]
    per_level = [invariant_partitions(f, a, max_blocks, budget, group=g)
                 for f, g in zip(chain, groups)]
    bases = [embedding_maps(a, f, deadline=budget) for f in chain]
    # the partitions of each level keyed by their pullback to the level
    # below (level 0: all under the key ()), each group in level order
    by_pullback = [{(): per_level[0]}]
    for level in range(1, len(chain)):
        index = {m: i for i, m in enumerate(bases[level])}
        lower = [index[m] for m in bases[level - 1]]
        keyed: dict[tuple, list[InvariantPartition]] = {}
        for p in per_level[level]:
            keyed.setdefault(_labels(p, lower), []).append(p)
        by_pullback.append(keyed)

    families: list[tuple[InvariantPartition, ...]] = []
    stack: list[InvariantPartition] = []

    def rec(level: int, key: tuple):
        if level == len(chain):
            budget.spend(len(chain))
            families.append(tuple(stack))
            return
        for p in by_pullback[level].get(key, ()):
            stack.append(p)
            rec(level + 1, _labels(p, range(len(p.base))))
            stack.pop()

    rec(0, ())
    only_trivial = all(all(len(p.blocks) == 1 for p in fam) for fam in families)
    inconclusive = any(len(g) == 1 and f.size > 1 for f, g in zip(chain, groups))
    return CoherentChainReport(tuple(families), only_trivial, inconclusive)
