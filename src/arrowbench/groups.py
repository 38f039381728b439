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

from arrowbench.errors import InputError, ResourceLimitExceeded, SignatureMismatch
from arrowbench.structures import (
    Structure,
    embedding_maps,
    induced_substructure,
)


@dataclass(frozen=True)
class InvariantPartition:
    """A partition of embeddings(A, host) fixed blockwise by every automorphism."""

    base: tuple[tuple[int, ...], ...]  # embedding maps, lexicographic
    blocks: tuple[tuple[int, ...], ...]  # partition of base indices

    def block_of(self, index: int) -> int:
        for bi, block in enumerate(self.blocks):
            if index in block:
                return bi
        raise InputError(f"index {index} not in partition")


def automorphisms(s: Structure) -> tuple[tuple[int, ...], ...]:
    """All automorphisms of s as permutations, in lexicographic order
    (identity first)."""
    return tuple(embedding_maps(s, s))


def orbits_on_embeddings(s: Structure, a: Structure, group=None) -> InvariantPartition:
    """The orbit partition of Aut(s) acting on embeddings(a, s) by g.e = g o e;
    `group` is automorphisms(s) when the caller has listed it already."""
    if a.signature != s.signature:
        raise SignatureMismatch("orbit computation needs one common signature")
    base = embedding_maps(a, s)
    index = {m: i for i, m in enumerate(base)}
    if group is None:
        group = automorphisms(s)
    seen = [False] * len(base)
    blocks = []
    for i, m in enumerate(base):
        if seen[i]:
            continue
        orbit = set()
        for g in group:
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
    s: Structure, a: Structure, max_blocks: int, guard: int = 200_000, group=None
) -> list[InvariantPartition]:
    """Every partition of embeddings(a, s) with <= max_blocks blocks whose
    blocks are unions of Aut(s)-orbits (each block fixed setwise by the
    group).  The discrete partition appears iff all orbits are singletons.
    """
    if max_blocks < 1:
        raise InputError("max_blocks must be >= 1")
    orbit_part = orbits_on_embeddings(s, a, group)
    orbit_ids = list(range(len(orbit_part.blocks)))
    out = []
    for grouping in _partitions_of(orbit_ids, max_blocks):
        blocks = []
        for group in grouping:
            merged: list[int] = []
            for oid in group:
                merged.extend(orbit_part.blocks[oid])
            blocks.append(tuple(sorted(merged)))
        blocks.sort(key=lambda b: b[0])
        out.append(InvariantPartition(orbit_part.base, tuple(blocks)))
        if len(out) > guard:
            raise ResourceLimitExceeded(
                "too many invariant partitions; lower max_blocks", budget=guard)
    return out


@dataclass(frozen=True)
class CoherentChainReport:
    """Families of level-wise invariant partitions glued along a chain."""

    families: tuple[tuple[InvariantPartition, ...], ...]
    only_trivial: bool  # every surviving family is all-one-block
    inconclusive: bool  # some level has a trivial automorphism group


def coherent_partitions(
    chain: list[Structure], a: Structure, max_blocks: int, guard: int = 100_000
) -> CoherentChainReport:
    """Families (P_1,...,P_m) of invariant partitions along a prefix-nested
    chain F_1 <= ... <= F_m, where pulling P_{i+1} back along the
    inclusion-induced map on embeddings gives exactly P_i.
    """
    if not chain:
        return CoherentChainReport((), only_trivial=True, inconclusive=False)
    for lower, upper in zip(chain, chain[1:]):
        if lower.size > upper.size:
            raise InputError("chain must be nested by size")
        if induced_substructure(upper, range(lower.size)) != lower:
            raise InputError("each chain member must be induced in the next on 0..n-1")

    groups = [automorphisms(f) for f in chain]
    per_level = [invariant_partitions(f, a, max_blocks, guard=guard, group=g)
                 for f, g in zip(chain, groups)]
    bases = [embedding_maps(a, f) for f in chain]

    def pullback_key(level: int, partition: InvariantPartition) -> tuple:
        # block index of each level-`level-1` embedding inside `partition`
        lower_base = bases[level - 1]
        idx = {m: i for i, m in enumerate(partition.base)}
        want = []
        for m in lower_base:
            want.append(partition.block_of(idx[m]))
        # normalize block numbering to first-appearance order
        remap: dict[int, int] = {}
        normalized = []
        for b in want:
            if b not in remap:
                remap[b] = len(remap)
            normalized.append(remap[b])
        return tuple(normalized)

    def partition_key(partition: InvariantPartition) -> tuple:
        want = [0] * len(partition.base)
        for bi, block in enumerate(partition.blocks):
            for i in block:
                want[i] = bi
        remap: dict[int, int] = {}
        normalized = []
        for b in want:
            if b not in remap:
                remap[b] = len(remap)
            normalized.append(remap[b])
        return tuple(normalized)

    families: list[tuple[InvariantPartition, ...]] = []
    stack: list[InvariantPartition] = []

    def rec(level: int):
        if len(families) > guard:
            raise ResourceLimitExceeded("too many coherent families", budget=guard)
        if level == len(chain):
            families.append(tuple(stack))
            return
        for p in per_level[level]:
            if level > 0 and pullback_key(level, p) != partition_key(stack[-1]):
                continue
            stack.append(p)
            rec(level + 1)
            stack.pop()

    rec(0)
    only_trivial = all(all(len(p.blocks) == 1 for p in fam) for fam in families)
    inconclusive = any(len(g) == 1 and f.size > 1 for f, g in zip(chain, groups))
    return CoherentChainReport(tuple(families), only_trivial, inconclusive)
