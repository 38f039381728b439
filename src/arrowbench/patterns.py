"""Joint embeddings with union support and their isomorphism types.

A joint embedding of parts (A, Z^1, ..., Z^k) is a tuple of embeddings
into a common structure U whose every vertex lies in some part image.
Its pattern is realized as the canonical code of the mark-expanded
structure: one fresh unary relation per part-coordinate position, so two
joint embeddings share a code exactly when some isomorphism of their
targets commutes with every coordinate map.

Enumeration proceeds by overlap pattern first (which image vertices are
identified), then by relation completion within the age, pruning early
through age membership.  The placements it yields are their own
patterns: the first part lands on 0..|A|-1, each later vertex is
numbered by the first part coordinate mapped onto it, and every vertex
lies in some image.  So an isomorphism of two placements that commutes
with every coordinate map fixes every vertex, hence is the identity, and
distinct placements have distinct pattern codes.  Deciders that only
need each pattern once walk `iter_joint_embeddings` and code nothing;
`joint_embeddings` codes the placements only to sort them.  The pattern
<-> double-coset correspondence behind these objects is background only;
nothing here depends on it.
"""

from __future__ import annotations

import functools
from typing import NamedTuple

from arrowbench.ages import AgeSpec
from arrowbench.errors import InputError, SignatureMismatch
from arrowbench.structures import Signature, Structure, _encode_labeled
from arrowbench.unions import Budget, place_parts

PatternCode = bytes


class JointEmbedding(NamedTuple):
    """maps[p] sends part p of (a, z1, ..., zk) into target.  A plain
    record: those `joint_embeddings` returns are union-supported and each
    map is an embedding, by construction of the placement search."""

    target: Structure
    maps: tuple[tuple[int, ...], ...]


@functools.lru_cache(maxsize=1024)
def marked_signature(base: Signature, shape: tuple[int, ...]) -> Signature:
    """Base signature extended by one unary mark per part coordinate."""
    marks = []
    for p, size in enumerate(shape):
        for i in range(size):
            marks.append((f"@{p}.{i}", 1))
    return Signature(base.symbols + tuple(marks))


_PATTERN_MEMO: dict[tuple, PatternCode] = {}
_PATTERN_MEMO_MAX = 1 << 17


def _pattern_code(u: Structure, maps) -> PatternCode:
    """Canonical code of the mark-expanded restriction of u to the union
    of the map images, computed without a canonical search.

    Every vertex of the union carries at least one mark and each mark
    sits on one vertex only, so naming a vertex by the first part
    coordinate mapped onto it is an isomorphism invariant: two inputs
    with equal keys below have isomorphic marked structures and vice
    versa.  On a memo miss the marks make the first refinement round of
    canonical_labeling discrete; ranking the vertices by that round's
    invariant (their sorted (symbol, positions) occurrences) is then the
    search's only leaf, so the code is the same bytes canonical_form
    returns for the marked structure.
    """
    names: dict[int, int] = {}
    coords: list[int] = []
    for m in maps:
        for v in m:
            coords.append(names.setdefault(v, len(names)))
    inside, rename = names.__contains__, names.__getitem__
    rels = []
    for tuples in u.relations:
        kept = [tuple(map(rename, t)) for t in tuples if all(map(inside, t))]
        kept.sort()
        rels.append(tuple(kept))
    rels = tuple(rels)
    shape = tuple(len(m) for m in maps)
    coords = tuple(coords)
    key = (u.signature, shape, coords, rels)
    code = _PATTERN_MEMO.get(key)
    if code is not None:
        return code

    occ: dict[int, list] = {x: [] for x in names.values()}
    for si, tuples in enumerate(rels):
        for t in tuples:
            for x in set(t):
                occ[x].append((si, tuple(i for i, y in enumerate(t) if y == x)))
    for j, x in enumerate(coords, start=len(rels)):
        occ[x].append((j, (0,)))
    order = sorted(occ, key=lambda x: sorted(occ[x]))
    rank = {x: r for r, x in enumerate(order)}
    code = _encode_labeled(marked_signature(u.signature, shape).key(), len(order),
                           [[tuple(rank[x] for x in t) for t in tuples] for tuples in rels]
                           + [[(rank[x],)] for x in coords])
    if len(_PATTERN_MEMO) >= _PATTERN_MEMO_MAX:
        _PATTERN_MEMO.clear()
    _PATTERN_MEMO[key] = code
    return code


def pattern_of(j: JointEmbedding) -> PatternCode:
    """The joint-embedding pattern: canonical code of the marked target."""
    return _pattern_code(j.target, j.maps)


def pair_pattern_code(u: Structure, map_a, map_z) -> PatternCode:
    """Pattern of the pair (a, z) inside u, restricted to the union of
    the two images (so union support holds by construction)."""
    return _pattern_code(u, (map_a, map_z))


def iter_joint_embeddings(spec: AgeSpec, a: Structure, zs, max_size: int | None = None, *,
                          budget: Budget):
    """Yield (u, maps) for every joint placement of (a, *zs) within the
    age, in deterministic search order: one per pattern, uncoded."""
    parts = [a, *zs]
    for s in parts:
        if s.signature != spec.signature:
            raise SignatureMismatch("joint embeddings need the age signature")
        if not spec.member(s):
            raise InputError("joint-embedding parts must be members of the age")
    cap = sum(s.size for s in parts)
    if max_size is not None:
        cap = min(cap, max_size)
    yield from place_parts(parts, spec, max_size=cap, budget=budget)


def joint_embeddings(spec: AgeSpec, a: Structure, zs, max_size: int | None = None, *,
                     budget: Budget) -> list[JointEmbedding]:
    """One joint embedding per pattern, ordered by pattern code: every
    placement, since distinct placements have distinct patterns (see the
    module docstring).  Only callers that need code order (`stability`
    and the `patterns` listing) pay for the codes."""
    return sorted((JointEmbedding(u, maps)
                   for u, maps in iter_joint_embeddings(spec, a, zs, max_size, budget=budget)),
                  key=pattern_of)


def pattern_count(spec: AgeSpec, a: Structure, z: Structure, budget: Budget) -> int:
    """Number of joint-embedding patterns of (a, z) within the age, that
    is of placements; always finite here since the union size is capped
    at |a|+|z|.  Tabulating this as |a|, |z| grow probes precompactness
    behaviour."""
    return sum(1 for _ in iter_joint_embeddings(spec, a, (z,), budget=budget))
