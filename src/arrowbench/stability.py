"""Depth-bounded detection of unstable (A, Z)-sequences.

An unstable sequence of depth n is a host structure carrying embeddings
a_1..a_n of A and z_1..z_n of Z together with two distinct pair patterns
tau_lt and tau_gt such that [a_m, z_k] = tau_lt whenever m < k and
tau_gt whenever m > k; the diagonal pairs are unconstrained.  Every
result here is depth- and host-bounded, and a stable one reaches past
its depth: restricting a depth-n unstable sequence to its first d pairs
gives a depth-d sequence with the same pair patterns, on the union of
those images, a member of the age (ages are hereditary) with at most
d(|A| + |Z|) vertices.  So under the default host bound, which is that
number, a stable verdict at depth d excludes unstable sequences of every
depth >= d; under a smaller max_host m it excludes those whose first d
pairs span at most m vertices.

The search enumerates ordered pairs of distinct candidate patterns in
code order, then grows a host by placing a-parts and z-parts
alternately.  Each placement is directed by the pair constraints it
determines: the pattern of the new part against every earlier part it
must meet pins, excludes and fixes what it can (see `_meeting`), so
`place_part` builds only hosts in which the new pairs already have the
required patterns.  A report's `nodes` counts the nodes of these
directed placements.  Hosts are unions of the part images; hereditarity
makes that restriction harmless.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from arrowbench.ages import AgeSpec
from arrowbench.errors import InputError, ResourceLimitExceeded
from arrowbench.patterns import (
    JointEmbedding,
    PatternCode,
    joint_embeddings,
    pair_pattern_code,
    pattern_of,
)
from arrowbench.structures import Structure
from arrowbench.unions import Budget, Constraint, place_part


@dataclass(frozen=True)
class UnstableWitness:
    depth: int
    host: Structure
    a_maps: tuple[tuple[int, ...], ...]
    z_maps: tuple[tuple[int, ...], ...]
    tau_lt: PatternCode
    tau_gt: PatternCode

    def verify(self) -> bool:
        """Replay every pattern constraint through pair_pattern_code alone.
        The maps are taken to be embeddings into the host; a certificate's
        maps are checked with is_embedding before they get here."""
        if self.tau_lt == self.tau_gt:
            return False
        if len(self.a_maps) != self.depth or len(self.z_maps) != self.depth:
            return False
        for m in range(self.depth):
            for k in range(self.depth):
                if m == k:
                    continue
                code = pair_pattern_code(self.host, self.a_maps[m], self.z_maps[k])
                want = self.tau_lt if m < k else self.tau_gt
                if code != want:
                    return False
        return True


@dataclass(frozen=True)
class StabilityReport:
    stable: bool
    depth: int
    max_host: int
    nodes_used: int
    pattern_pairs_checked: int
    witness: UnstableWitness | None


def _default_max_host(a: Structure, z: Structure, depth: int) -> int:
    return depth * (a.size + z.size)


def _meeting(joint: JointEmbedding, own: int):
    """Templates for placing a part as coordinate `own` of the pair
    pattern `joint` against an earlier part q as the other coordinate:
    (pins, mixed).

    Marks are rigid, so the pair has the pattern of `joint` = (u; maps)
    exactly when sending u's vertices through the two coordinate maps is
    an isomorphism onto the union of the two images.  That holds iff part
    vertex i lands on q[c] when maps[own][i] == maps[other][c] (pins), on
    no vertex of q otherwise, and every tuple of u meeting both a vertex
    of the new part only and one of q only is present as in u (mixed; a
    tuple entry is ~i for part vertex i or c for q[c]).  Tuples inside
    one image hold because both maps are embeddings.
    """
    u = joint.target
    mine, theirs = joint.maps[own], joint.maps[1 - own]
    at_mine = {x: i for i, x in enumerate(mine)}
    at_theirs = {x: c for c, x in enumerate(theirs)}
    pins = tuple((i, at_theirs[x]) for i, x in enumerate(mine) if x in at_theirs)
    mine_only = {x for x in mine if x not in at_theirs}
    theirs_only = {x for x in theirs if x not in at_mine}
    mixed = []
    for si, (_, arity) in enumerate(u.signature.symbols):
        for t in itertools.product(range(u.size), repeat=arity):
            if mine_only.intersection(t) and theirs_only.intersection(t):
                entries = tuple(~at_mine[x] if x in mine_only else at_theirs[x] for x in t)
                mixed.append((si, entries, t in u.rel_sets[si]))
    return pins, tuple(mixed)


def _constraint(meeting, olds) -> Constraint | None:
    """The placement constraint of meeting each map in `olds` as
    `_meeting` describes, or None when two of them pin one part vertex
    to different host vertices."""
    pins, mixed = meeting
    pinned: dict[int, int] = {}
    for q in olds:
        for i, c in pins:
            if pinned.setdefault(i, q[c]) != q[c]:
                return None
    required = tuple((si, tuple(x if x < 0 else q[x] for x in t), present)
                     for q in olds for si, t, present in mixed)
    return Constraint(pinned, frozenset(v for q in olds for v in q), required)


def _search_pair(spec, a, z, depth, tau_lt: JointEmbedding, tau_gt: JointEmbedding,
                 max_host, budget):
    """Grow a host placing a_1, z_1, a_2, z_2, ..., each placement
    directed so that it meets the earlier parts in the required pattern:
    a new a_j meets every earlier z_k (k < j) in tau_gt, a new z_j every
    earlier a_m (m < j) in tau_lt; the diagonal partner a_j (last placed)
    is unconstrained.

    A generator: it yields once per host it places, so a caller can pause
    it there, and returns the witness (host, a_maps, z_maps) or None."""
    meet_gt = _meeting(tau_gt, 0)
    meet_lt = _meeting(tau_lt, 1)

    def rec(host, a_maps, z_maps):
        if len(z_maps) == depth:
            return host, a_maps, z_maps
        placing_a = len(a_maps) == len(z_maps)
        if placing_a:
            part, constraint = a, _constraint(meet_gt, z_maps)
        else:
            part, constraint = z, _constraint(meet_lt, a_maps[:-1])
        if constraint is None:
            return None
        for h2, sigma in place_part(host, part, spec, constraint, max_host, budget=budget):
            yield
            if placing_a:
                found = yield from rec(h2, a_maps + (sigma,), z_maps)
            else:
                found = yield from rec(h2, a_maps, z_maps + (sigma,))
            if found is not None:
                return found
        return None

    return (yield from rec(None, (), ()))


_INITIAL_SLICE = 16


def _decide_pairs(spec, a, z, depth, joints, max_host, budget):
    """Round-robin over the ordered pairs of pattern representatives
    `joints` with per-pair slices growing x4 per round, so an intractable
    exhaustion on an early pair cannot mask an easy witness on a later
    one.  A slice is a number of hosts the pair places (one step of its
    `_search_pair`), not of nodes, so the schedule and the returned
    witness do not depend on how many nodes a placement spends; a paused
    pair resumes where it stopped.

    Returns (witness_tuple_with_taus | None, pairs_attempted).  None
    means every pair was fully exhausted.  A budget overrun raises and
    says how many pairs were decided by then.
    """
    pairs = [(lt, gt) for lt in joints for gt in joints if lt is not gt]
    undecided = [(lt, gt, _search_pair(spec, a, z, depth, lt, gt, max_host, budget))
                 for lt, gt in pairs]
    decided = 0
    slice_cap = _INITIAL_SLICE
    while undecided:
        still = []
        for lt, gt, search in undecided:
            try:
                for _ in range(slice_cap):
                    next(search)
            except StopIteration as done:
                if done.value is not None:
                    return (done.value, (pattern_of(lt), pattern_of(gt))), len(pairs)
                decided += 1
                continue
            except ResourceLimitExceeded as e:
                spent = f"node budget {budget.cap}" if budget.used > budget.cap else "time budget"
                raise ResourceLimitExceeded(
                    f"{budget.what}: {spent} exceeded after deciding {decided} of "
                    f"{len(pairs)} pattern pairs", budget=e.budget) from None
            still.append((lt, gt, search))
        undecided = still
        slice_cap *= 4
    return None, len(pairs)


def _build_witness(depth, found_with_pair) -> UnstableWitness:
    (host, a_maps, z_maps), (tau_lt, tau_gt) = found_with_pair
    w = UnstableWitness(depth, host, a_maps, z_maps, tau_lt, tau_gt)
    if not w.verify():
        raise AssertionError("search produced an invalid witness")
    return w


def unstable_witness(spec: AgeSpec, a: Structure, z: Structure, depth: int,
                     max_host: int | None = None, *,
                     budget: Budget) -> UnstableWitness | None:
    """A verified depth-`depth` unstable witness, or None after exhausting
    all hosts up to max_host and all ordered pattern pairs."""
    return stable_up_to(spec, a, z, depth, max_host, budget=budget).witness


def stable_up_to(spec: AgeSpec, a: Structure, z: Structure, depth: int,
                 max_host: int | None = None, *,
                 budget: Budget) -> StabilityReport:
    """Depth-relative stability: True only after full exhaustion.  A
    budget overrun raises ResourceLimitExceeded instead of reporting;
    nodes_used counts the nodes of the directed pattern-pair search."""
    if depth < 2:
        raise InputError("depth must be >= 2: no off-diagonal pair exists below that")
    if max_host is None:
        max_host = _default_max_host(a, z, depth)
    try:
        joints = joint_embeddings(spec, a, (z,), budget=budget)
    except ResourceLimitExceeded as e:
        raise ResourceLimitExceeded(
            f"{e} in joint_embeddings, the pattern enumeration before the pair search",
            budget=e.budget) from None
    used = budget.used
    found, pairs = _decide_pairs(spec, a, z, depth, joints, max_host, budget)
    witness = None if found is None else _build_witness(depth, found)
    return StabilityReport(found is None, depth, max_host, budget.used - used, pairs,
                           witness)
