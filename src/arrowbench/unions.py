"""Incremental placement of parts into a growing union structure.

This is the engine behind enumeration up to isomorphism, joint-embedding
enumeration, amalgamation probes, union-witness searches and the
unstable-sequence search: parts are embedded one at a time into a host,
enumerating first the identification with existing vertices (the
all-fresh placement comes first, so the free join is the first candidate
overall) and then the relation completion.  Every tuple through a fresh
vertex that lies outside the part's image and that no constraint fixes
is free, and carries a menu of the tuple sets it may add, sparsest
first: a pair of a binary symbol takes one of the states `_pair_states`
allows for both of its tuples, any other tuple is absent, then present.
One recursion walks the menus of the pairs, then those of the other
tuples, spending one node per call.  Every yielded host is a complete
structure and a member of the ambient age, so callers can prune eagerly
after each placement.

A `Constraint` restricts one placement beyond membership and is checked
as soon as it is determined (forward checking): pinned part vertices and
excluded host vertices cut the identification candidates, a required
tuple among old vertices is checked when its last part vertex is
assigned, and a required tuple through a fresh vertex is fixed before
the completion search: it leaves its pair's menu only the states that
agree with it (and sets a pair left one state), and any other tuple is
not branched on.  The hosts yielded are exactly those the unconstrained
search yields and that satisfy the constraint, in the same order; only
the nodes spent differ.

Placed hosts are members by construction: the host and the part are
members, tuples among old vertices never change and the part's image is
a copy of the part, so a completion can only break the age through a
fresh vertex.  The pair-local axiom flags hold because every free pair
takes a state `_pair_states` allows, and, where its binary symbol is the
only symbol of arity >= 2, no state that makes the pair a copy of a
2-vertex forbidden structure.  Transitivity is checked as each pair is
set, not at the leaf: once a free pair of a transitive symbol takes a
state, the pair itself (a 2-cycle needs both loops) and every triangle
through a fresh vertex that it closes (whose other two pairs are fixed
or set earlier in the walk) are checked, and the pairs and triangles
through a fresh vertex that no free pair closes are checked once before
the walk.  So a branch is cut at its first violated triple, and the
hosts yielded and their order are those of a check at the leaf.  A
forbidden structure is looked for at the leaf, only among copies that
use a fresh vertex.
"""

from __future__ import annotations

import functools
import itertools
import time
from dataclasses import dataclass, field

from arrowbench.errors import ResourceLimitExceeded
from arrowbench.structures import Structure, _generic_plan, has_embedding_through

class Budget:
    """Node counter with an optional deadline (a time.monotonic() instant),
    shared by every search of one run; raises once the cap is exceeded or
    the deadline has passed."""

    def __init__(self, cap: int, what: str = "search"):
        self.cap = cap
        self.used = 0
        self.what = what
        self.deadline: float | None = None

    def spend(self, amount: int = 1):
        self.used += amount
        if self.used > self.cap:
            raise ResourceLimitExceeded(
                f"{self.what}: node budget {self.cap} exceeded", budget=self.cap)
        if self.deadline is not None:
            self.check_deadline()

    def check_deadline(self):
        """Raise once the deadline has passed; counts no nodes, for loops
        whose steps are not search nodes."""
        if self.deadline is not None and time.monotonic() > self.deadline:
            raise ResourceLimitExceeded(f"{self.what}: time budget exceeded")


@dataclass(frozen=True)
class Constraint:
    """What one placement must satisfy besides membership in the age.

    `pinned` maps part vertices to the host vertices they must land on;
    no other part vertex lands on a host vertex in `excluded`; each
    `required` entry (symbol index, tuple, present) says whether a tuple
    of the extended host is present, where a tuple entry is a host vertex
    v >= 0 or the image of part vertex i, written ~i.
    """

    pinned: dict[int, int] = field(default_factory=dict)
    excluded: frozenset[int] = frozenset()
    required: tuple[tuple[int, tuple[int, ...], bool], ...] = ()


def _pair_states(flags: frozenset):
    """Allowed (forward, backward) membership states of an unordered
    vertex pair under the binary axiom flags, sparsest first."""
    states = []
    for fwd, bwd in ((False, False), (True, False), (False, True), (True, True)):
        if "symmetric" in flags and fwd != bwd:
            continue
        if "antisymmetric" in flags and fwd and bwd:
            continue
        if "total" in flags and not (fwd or bwd):
            continue
        states.append((fwd, bwd))
    return tuple(states)


@functools.lru_cache(maxsize=256)
def _forbidden_pair_states(sig, forbidden) -> frozenset:
    """(type of x, type of y, forward, backward) of each pair (x, y) that
    is a copy of a 2-vertex forbidden structure, a vertex's type being its
    unary and loop memberships.  Empty unless a binary symbol is the
    signature's only symbol of arity >= 2: then a pair's type and state
    settle the structure it induces, so these states leave its menu."""
    wide = [si for si, (_, arity) in enumerate(sig.symbols) if arity >= 2]
    if len(wide) != 1 or sig.symbols[wide[0]][1] != 2:
        return frozenset()
    si = wide[0]
    out = set()
    for bad in forbidden:
        if bad.size == 2:
            t0, t1 = _vertex_type(sig, bad.rel_sets, 0), _vertex_type(sig, bad.rel_sets, 1)
            fwd, bwd = (0, 1) in bad.rel_sets[si], (1, 0) in bad.rel_sets[si]
            out.update({(t0, t1, fwd, bwd), (t1, t0, bwd, fwd)})
    return frozenset(out)


def _vertex_type(sig, rels, v: int) -> tuple[bool, ...]:
    """The memberships of v's unary tuple and loop, per symbol."""
    return tuple((v,) * arity in r for (_, arity), r in zip(sig.symbols, rels))


def _transitive_on(rel, vs) -> bool:
    """True iff every triple u->w->v of `rel` among the vertices `vs` has
    u->v."""
    for u in vs:
        for w in vs:
            if u != w and (u, w) in rel:
                for v in vs:
                    if (w, v) in rel and (u, v) not in rel:
                        return False
    return True


def _transitivity_checks(rels, transitive, fresh: range, at: dict, menus: int):
    """When each vertex pair and triangle through a fresh vertex is checked
    for transitivity: per pair menu, the (relation, vertices) whose pairs
    are all decided once that menu's state is set (the menus before it are
    set, those after it are not), that is its own pair and each triangle
    it closes; or None when a pair or triangle that no menu decides already
    breaks transitivity in `rels`.  `at` maps (symbol, x, y), x < y, to
    the menu index of each free pair of a transitive symbol; the checks
    hold the sets of `rels` themselves, which the walk fills in."""
    checks: list[list] = [[] for _ in range(menus)]
    for si in transitive:
        rel = rels[si]
        for c in fresh:  # the largest vertex of each pair or triangle is fresh
            for b in range(c):
                bc = at.get((si, b, c), -1)
                closing = [((b, c), bc)]
                closing += (((a, b, c), max(at.get((si, a, b), -1), at.get((si, a, c), -1), bc))
                            for a in range(b))
                for vs, last in closing:
                    if last >= 0:
                        checks[last].append((rel, vs))
                    elif not _transitive_on(rel, vs):
                        return None
    return checks


def place_part(host: Structure | None, part: Structure, spec,
               constraint: Constraint | None = None, max_size: int | None = None, *,
               budget: Budget):
    """Yield (extended_host, sigma) for every way to embed `part` into an
    extension of `host` by fresh vertices such that the extension is a
    member of `spec` and satisfies `constraint`.

    Precondition: `host` (if any) and `part` are members of `spec`.
    Each completion is then checked, without a `member` call, only for
    what its fresh vertices can break (see the module docstring).

    sigma maps part vertices into the extended host.  Every required
    tuple of `constraint` names a part vertex.  Tuples among pre-existing
    vertices are never altered, so earlier placements stay valid.
    """
    sig = part.signature
    if host is None:
        n0 = 0
        host_rels: list[set] = [set() for _ in sig.symbols]
    else:
        n0 = host.size
        host_rels = [set(t) for t in host.relations]
    constraint = constraint or Constraint()
    pinned, excluded, required = constraint.pinned, constraint.excluded, constraint.required
    flags_by_symbol = spec.axiom_flags()
    transitive = [si for si, flags in enumerate(flags_by_symbol) if "transitive" in flags]
    forbidden = spec.forbidden
    forbidden_pairs = _forbidden_pair_states(sig, forbidden)

    p = part.size
    sigma = [-1] * p
    taken: set[int] = set()
    # per part vertex k, every tuple over 0..k through k with its membership
    plan = _generic_plan(part)
    # each required tuple is checked once its last part vertex is assigned
    required_at: list[list] = [[] for _ in range(p)]
    for si, t, present in required:
        required_at[max(~x for x in t if x < 0)].append((si, t, present))

    def assignment_ok(k: int, w: int) -> bool:
        # part vertices 0..k-1 are assigned; only tuples whose images are
        # all pre-existing are checked here, so a fresh image passes
        if w >= n0:
            return True
        for si, t, present in plan[k]:
            img = tuple(sigma[j] if j != k else w for j in t)
            if all(x < n0 for x in img) and (img in host_rels[si]) != present:
                return False
        for si, t, present in required_at[k]:
            img = tuple(x if x >= 0 else w if ~x == k else sigma[~x] for x in t)
            if all(x < n0 for x in img) and (img in host_rels[si]) != present:
                return False
        return True

    def candidates(k: int, m: int):
        if k in pinned:
            w = pinned[k]
            if w < n0 and w not in taken:
                yield w
            return
        if max_size is None or m < max_size:
            yield m  # fresh vertex first
        for w in range(m):
            if w not in taken and w not in excluded:
                yield w

    def completions(m: int):
        fresh = range(n0, m)
        image = set(sigma)
        base_rels = [set(r) for r in host_rels]
        for si, tuples in enumerate(part.relations):
            for t in tuples:
                img = tuple(sigma[x] for x in t)
                if any(x in fresh for x in img):
                    base_rels[si].add(img)
        # required tuples through a fresh vertex: inside the part image
        # they must agree with the part, elsewhere they are not branched on
        fixed: dict[tuple[int, tuple[int, ...]], bool] = {}
        for si, t, present in required:
            img = tuple(x if x >= 0 else sigma[~x] for x in t)
            if all(x < n0 for x in img):
                continue  # checked in assignment_ok
            if all(x in image for x in img):
                if (img in base_rels[si]) != present:
                    return
            elif fixed.setdefault((si, img), present) != present:
                return
            elif present and len(img) != 2:
                base_rels[si].add(img)  # binary pairs are set below
        # each free tuple's menu: the tuple sets it may add, sparsest first
        pair_menus, other_menus = [], []
        menu_at: dict[tuple[int, int, int], int] = {}  # pairs of transitive symbols
        types = [_vertex_type(sig, base_rels, v) for v in range(m)] if forbidden_pairs else ()
        for si, (_, arity) in enumerate(sig.symbols):
            if arity != 2:
                for t in itertools.product(range(m), repeat=arity):
                    if (any(x in fresh for x in t) and not all(x in image for x in t)
                            and (si, t) not in fixed):
                        other_menus.append(((), ((si, t),)))  # absent first
                continue
            tracked = si in transitive
            for x, y in itertools.combinations(range(m), 2):
                if y not in fresh or (x in image and y in image):
                    continue  # among old vertices, or inside the part image
                fwd, bwd = fixed.get((si, (x, y))), fixed.get((si, (y, x)))
                menu = [tuple((si, t) for t, on in (((x, y), f), ((y, x), b)) if on)
                        for f, b in _pair_states(flags_by_symbol[si])
                        if fwd in (None, f) and bwd in (None, b)
                        and not (forbidden_pairs
                                 and (types[x], types[y], f, b) in forbidden_pairs)]
                if not menu:
                    return  # the flags and forbidden pairs leave no state
                if len(menu) == 1 and (fwd, bwd) != (None, None):
                    for sj, t in menu[0]:  # the constraint leaves one state: set it
                        base_rels[sj].add(t)
                else:
                    if tracked:
                        menu_at[si, x, y] = len(pair_menus)
                    pair_menus.append(menu)
        checks = None
        if transitive:
            checks = _transitivity_checks(base_rels, transitive, fresh, menu_at,
                                          len(pair_menus))
            if checks is None:
                return  # the fixed tuples already break transitivity

        def leaf(rels):
            cand = Structure._trusted(sig, m, tuple(tuple(sorted(r)) for r in rels))
            if not any(bad.size <= m and has_embedding_through(bad, cand, fresh)
                       for bad in forbidden):
                yield cand

        def walk(menus, idx: int, rels, then, checks=None):
            # one node per call, the end of each phase included
            budget.spend()
            if idx == len(menus):
                yield from then(rels)
                return
            for added in menus[idx]:
                for si, t in added:
                    rels[si].add(t)
                if checks is None or all(_transitive_on(rel, vs) for rel, vs in checks[idx]):
                    yield from walk(menus, idx + 1, rels, then, checks)
                for si, t in added:
                    rels[si].remove(t)

        yield from walk(pair_menus, 0, base_rels,
                        lambda rels: walk(other_menus, 0, rels, leaf), checks)

    def assign(k: int, m: int):
        budget.spend()
        if k == p:
            for cand in completions(m):
                yield cand, tuple(sigma)
            return
        for w in candidates(k, m):
            if not assignment_ok(k, w):
                continue
            sigma[k] = w
            taken.add(w)
            yield from assign(k + 1, m + 1 if w == m else m)
            taken.discard(w)
            sigma[k] = -1

    yield from assign(0, n0)


def place_parts(parts, spec, max_size: int | None = None, *, budget: Budget):
    """Yield (host, maps) for every joint placement of all parts (members
    of `spec`), via sequential place_part calls, each host a member."""

    def rec(host, maps):
        if len(maps) == len(parts):
            yield host, tuple(maps)
            return
        for h2, sigma in place_part(host, parts[len(maps)], spec, None, max_size,
                                    budget=budget):
            yield from rec(h2, maps + [sigma])

    yield from rec(None, [])
