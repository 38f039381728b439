"""Depth-bounded detection of unstable (A, Z)-sequences.

An unstable sequence of depth n is a host structure carrying embeddings
a_1..a_n of A and z_1..z_n of Z together with two distinct pair patterns
tau_lt and tau_gt such that [a_m, z_k] = tau_lt whenever m < k and
tau_gt whenever m > k; the diagonal pairs are unconstrained.  Full
stability quantifies over all depths and is not decidable by finite
search, so every result here is explicitly depth- and host-bounded.

The search enumerates ordered pairs of distinct candidate patterns in
code order, then grows a host by placing a-parts and z-parts
alternately, checking the newly determined pair constraints after every
placement.  Hosts are unions of the part images; hereditarity makes
that restriction harmless.
"""

from __future__ import annotations

from dataclasses import dataclass

from arrowbench.ages import AgeSpec
from arrowbench.errors import InputError, ResourceLimitExceeded
from arrowbench.patterns import PatternCode, joint_embeddings, pair_pattern_code, pattern_of
from arrowbench.structures import Embedding, Structure
from arrowbench.unions import Budget, place_part


@dataclass(frozen=True)
class UnstableWitness:
    depth: int
    host: Structure
    a_parts: tuple[Embedding, ...]
    z_parts: tuple[Embedding, ...]
    tau_lt: PatternCode
    tau_gt: PatternCode

    def verify(self) -> bool:
        """Replay every pattern constraint through pair_pattern_code alone."""
        if self.tau_lt == self.tau_gt:
            return False
        if len(self.a_parts) != self.depth or len(self.z_parts) != self.depth:
            return False
        for m in range(self.depth):
            for k in range(self.depth):
                if m == k:
                    continue
                code = pair_pattern_code(self.host, self.a_parts[m].map,
                                         self.z_parts[k].map)
                want = self.tau_lt if m < k else self.tau_gt
                if code != want:
                    return False
        return True

    def truncate(self, depth: int) -> "UnstableWitness":
        """The witness restricted to its first `depth` parts (depth >= 2)."""
        if not 2 <= depth <= self.depth:
            raise InputError("truncation depth out of range")
        return UnstableWitness(depth, self.host, self.a_parts[:depth],
                               self.z_parts[:depth], self.tau_lt, self.tau_gt)


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


def _search_pair(spec, a, z, depth, tau_lt, tau_gt, max_host, budget):
    """Grow a host placing a_1, z_1, a_2, z_2, ..., pruning on the pair
    constraints as soon as a placement determines them."""

    def rec(host, a_maps, z_maps):
        if len(z_maps) == depth:
            return host, a_maps, z_maps
        placing_a = len(a_maps) == len(z_maps)
        part = a if placing_a else z
        for h2, sigma in place_part(host, part, spec, None, max_host, budget):
            if placing_a:
                # new a_j against all earlier z_k (k < j): pattern tau_gt
                if any(pair_pattern_code(h2, sigma, zm) != tau_gt for zm in z_maps):
                    continue
                res = rec(h2, a_maps + [sigma], z_maps)
            else:
                # new z_j against all earlier a_m (m < j): tau_lt; the
                # diagonal partner a_j (last placed) is unconstrained
                if any(pair_pattern_code(h2, am, sigma) != tau_lt for am in a_maps[:-1]):
                    continue
                res = rec(h2, a_maps, z_maps + [sigma])
            if res is not None:
                return res
        return None

    return rec(None, [], [])


_INITIAL_SLICE = 4096


def _decide_pairs(spec, a, z, depth, codes, max_host, budget):
    """Round-robin over the ordered pattern pairs with doubling per-pair
    node slices, so an intractable exhaustion on an early pair cannot
    mask an easy witness on a later one.  The schedule is deterministic,
    hence so is the returned witness.  Each slice runs under a child
    budget with the deadline of `budget`, which is charged what the
    child used.

    Returns (witness_tuple_with_taus | None, pairs_attempted).  None
    means every pair was fully exhausted.  A budget overrun raises.
    """
    pairs = [(lt, gt) for lt in codes for gt in codes if lt != gt]
    undecided = list(pairs)
    slice_cap = _INITIAL_SLICE
    while undecided:
        still = []
        for pair in undecided:
            cap = min(slice_cap, budget.cap - budget.used)
            if cap <= 0:
                raise ResourceLimitExceeded(
                    f"stability search: node budget {budget.cap} exceeded",
                    budget=budget.cap)
            child = Budget(cap, "stability pair search")
            child.deadline = budget.deadline
            try:
                found = _search_pair(spec, a, z, depth, pair[0], pair[1],
                                     max_host, child)
            except ResourceLimitExceeded:
                if child.used <= cap:
                    raise  # the deadline passed, not the slice
                still.append(pair)
                continue
            finally:
                budget.used += child.used
            if found is not None:
                return (found, pair), len(pairs)
        undecided = still
        slice_cap *= 4
    return None, len(pairs)


def _build_witness(a, z, depth, found_with_pair) -> UnstableWitness:
    (host, a_maps, z_maps), (tau_lt, tau_gt) = found_with_pair
    w = UnstableWitness(
        depth, host,
        tuple(Embedding(a, host, m) for m in a_maps),
        tuple(Embedding(z, host, m) for m in z_maps),
        tau_lt, tau_gt)
    if not w.verify():
        raise AssertionError("search produced an invalid witness")
    return w


def unstable_witness(spec: AgeSpec, a: Structure, z: Structure, depth: int,
                     max_host: int | None = None,
                     budget: Budget | None = None) -> UnstableWitness | None:
    """A verified depth-`depth` unstable witness, or None after exhausting
    all hosts up to max_host and all ordered pattern pairs."""
    return stable_up_to(spec, a, z, depth, max_host, budget).witness


def stable_up_to(spec: AgeSpec, a: Structure, z: Structure, depth: int,
                 max_host: int | None = None,
                 budget: Budget | None = None) -> StabilityReport:
    """Depth-relative stability: True only after full exhaustion.  A
    budget overrun raises ResourceLimitExceeded instead of reporting;
    nodes_used counts the nodes of the pattern-pair search."""
    if depth < 2:
        raise InputError("depth must be >= 2: no off-diagonal pair exists below that")
    if max_host is None:
        max_host = _default_max_host(a, z, depth)
    codes = [pattern_of(j) for j in joint_embeddings(spec, a, (z,), budget=budget)]
    budget = budget or Budget(5_000_000, "stability search")
    used = budget.used
    found, pairs = _decide_pairs(spec, a, z, depth, codes, max_host, budget)
    witness = None if found is None else _build_witness(a, z, depth, found)
    return StabilityReport(found is None, depth, max_host, budget.used - used, pairs,
                           witness)
