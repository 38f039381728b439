"""Arrow-relation deciders with certificates.

Every decider returns an ArrowCertificate whose payload is plain data
(strings / numbers / lists), so certificates serialize to self-contained
text artifacts and replay through an independent checker that only needs
embedding enumeration and pattern codes.

Search strategy for the classical arrow: backtracking over color
assignments to the embedding positions, pruning as soon as some copy of
B is completely and monochromatically colored, with two symmetry
breakers — colors must appear in first-use order, and the color vector
must be lexicographically minimal under the automorphism group of C
acting on positions.  Both preserve at least one counterexample whenever
one exists, so exhaustion remains conclusive, and the first counterexample
found is the lexicographically least one.  Aut(C) is listed once, keeping
one automorphism per distinct action on the positions, and the
lex-leader test is incremental: positions are colored in order, so each
automorphism waits on the one position that decides its first unresolved
comparison, and coloring a position advances only the automorphisms
waiting on it (the watched-literal scheme of SAT solvers).

Coloring values are compared at absolute tolerance 1e-9, which on
integer colors is equality: a coloring is constant on a copy of B when
every value there lies within 1e-9 of the first.  The convex decider is
the only one that reads an epsilon, and its boundary is closed (value <=
epsilon at tolerance), since an oscillation of [0,1]-valued colorings
never exceeds 1 and epsilon >= 1 instances must hold.
"""

from __future__ import annotations

import functools
import itertools
import operator
from dataclasses import dataclass, field

from arrowbench import groups
from arrowbench.ages import AgeSpec, amalgamation_probe, enumerate_up_to, levels
from arrowbench.errors import ArrowbenchError, InputError, PreconditionFailure
from arrowbench.patterns import (
    JointEmbedding,
    iter_joint_embeddings,
    pair_pattern_code,
    pattern_of,
)
from arrowbench.stability import stable_up_to
from arrowbench.structures import Structure, embedding_maps, serialize_structure
from arrowbench.unions import Budget

REAL_TOL = 1e-9


def _values_agree(x, y) -> bool:
    """Two coloring values agree within REAL_TOL (on integer colors: are
    equal)."""
    return abs(x - y) <= REAL_TOL


@dataclass(frozen=True)
class ArrowCertificate:
    """Verdict plus an independently re-checkable witness payload."""

    operation: str
    verdict: str  # "holds" or "fails"
    degenerate: bool = False
    reason: str | None = None
    payload: dict = field(default_factory=dict)

    @property
    def holds(self) -> bool:
        return self.verdict == "holds"


@dataclass(frozen=True)
class Coloring:
    """A total assignment of values to embeddings(source, universe).

    values are aligned with the lexicographic embedding order; kind is
    "indexed" (color indices < colors) or "real" (values in [0, 1]).
    """

    universe: Structure
    source: Structure
    values: tuple
    kind: str = "indexed"
    colors: int | None = None

    def __post_init__(self):
        if len(self.domain) != len(self.values):
            raise InputError(
                f"coloring must be total: domain has {len(self.domain)} embeddings, "
                f"got {len(self.values)} values")
        if self.kind == "indexed":
            k = self.colors if self.colors is not None else (max(self.values, default=0) + 1)
            object.__setattr__(self, "colors", k)
            for v in self.values:
                if not isinstance(v, int) or not 0 <= v < k:
                    raise InputError(f"color {v!r} out of range 0..{k - 1}")
        elif self.kind == "real":
            for v in self.values:
                if not -REAL_TOL <= float(v) <= 1 + REAL_TOL:
                    raise InputError(f"real coloring values must lie in [0,1], got {v}")
        else:
            raise InputError(f"unknown coloring kind {self.kind!r}")

    @functools.cached_property
    def domain(self) -> tuple[tuple[int, ...], ...]:
        return tuple(embedding_maps(self.source, self.universe))

    @functools.cached_property
    def value_at(self) -> dict:
        """embedding of the source -> its value"""
        return dict(zip(self.domain, self.values))

    def constant_on(self, b_map, emb_ab) -> bool:
        """The values on the copies of A inside b_map: B -> universe, where
        emb_ab lists the embeddings of A into B, all agree with the first."""
        vals = [self.value_at[tuple(b_map[x] for x in am)] for am in emb_ab]
        return all(_values_agree(v, vals[0]) for v in vals[1:])

    @classmethod
    def from_pairs(cls, universe, source, pairs: dict, kind="indexed", colors=None):
        chi = cls.__new__(cls)
        # seed the cached domain, so that it is enumerated once
        dom = chi.__dict__["domain"] = tuple(embedding_maps(source, universe))
        missing = [m for m in dom if m not in pairs]
        if missing:
            raise InputError(f"coloring not total: missing value for {missing[0]}")
        extra = set(pairs) - set(dom)
        if extra:
            raise InputError(f"coloring assigns values outside the domain: {sorted(extra)[0]}")
        chi.__init__(universe, source, tuple(pairs[m] for m in dom), kind, colors)
        return chi


# ---------------------------------------------------------------------------
# classical arrow


def _copy_position_sets(domain, emb_ab, copies_raw):
    """The distinct position sets of the copies of B, in first-seen order.
    Two copies with one image differ by an automorphism of B, which
    permutes `emb_ab`, so only the first copy of each image is expanded."""
    index = {m: i for i, m in enumerate(domain)}
    images = set()
    seen = set()
    out = []
    for bm in copies_raw:
        image = frozenset(bm)
        if image in images:
            continue
        images.add(image)
        positions = tuple(sorted({index[tuple(bm[x] for x in am)] for am in emb_ab}))
        if positions not in seen:
            seen.add(positions)
            out.append(positions)
    return out


def _aut_actions(c: Structure, domain, budget: Budget):
    """One automorphism of C per distinct non-identity action on the
    embedding positions, in listing order.  Two automorphisms act alike
    exactly when they agree on every vertex that some copy of A covers."""
    covered = sorted({v for m in domain for v in m})
    # when the copies cover C the action is g itself (`tuple` returns it
    # uncopied)
    action = tuple if len(covered) == c.size else operator.itemgetter(*covered)
    seen = {action(range(c.size))}
    kept = []
    for g in groups.automorphisms(c, budget):
        budget.check_deadline()
        key = action(g)
        if key not in seen:
            seen.add(key)
            kept.append(g)
    return kept


def _counterexample_search(c_size, domain, copies, k, auts, budget: Budget):
    """Lexicographically least k-coloring (as a vector over the positions
    of `domain`) in which every copy sees at least two colors, or None.
    Colors are forced to appear in first-use order, and the automorphisms
    `auts` prune to orbit lex-minima: a prefix is cut as soon as, for
    some g, chi[i] > chi[g(i)] at the first i where chi and chi o g
    differ, g(i) being the position of g o domain[i]."""
    n_pos = len(domain)
    copies_at = [[] for _ in range(n_pos)]
    for ci, positions in enumerate(copies):
        for p in positions:
            copies_at[p].append(ci)
    # count[ci][col]: the positions of copy ci colored col
    count = [[0] * k for _ in copies]
    chi = [-1] * n_pos
    # a getter's value on the identity is a tuple, or for a one-vertex A
    # the image of that vertex alone
    images = [operator.itemgetter(*m) for m in domain]
    index = {image(range(c_size)): i for i, image in enumerate(images)}

    # Positions are assigned in order, so each automorphism's comparison
    # chi[i] vs chi[g(i)] is decided once position max(i, g(i)) is; until
    # then g waits there as (g, i, g(i)), and only the automorphisms
    # waiting on a position are looked at when it is assigned.
    waiting = [[] for _ in range(n_pos)]
    for g in auts:
        j = index[images[0](g)]
        waiting[j].append((g, 0, j))

    def lex_leader(p, moved) -> bool:
        # advance everything waiting on the just-assigned position p; the
        # lists each one re-waits on are recorded in `moved` for undoing
        for g, i, j in waiting[p]:
            while True:
                x, y = chi[i], chi[j]
                if x != y:
                    if x > y:
                        return False
                    break  # chi is below its image under g on this branch
                i += 1
                if i == n_pos:
                    break
                j = index[images[i](g)]
                w = j if j > i else i
                if w > p:
                    waiting[w].append((g, i, j))
                    moved.append(w)
                    break
        return True

    def violates(p, col) -> bool:
        # does assigning chi[p]=col complete some copy monochromatically?
        return any(count[ci][col] == len(copies[ci]) - 1 for ci in copies_at[p])

    def place(p, col):
        chi[p] = col
        for ci in copies_at[p]:
            count[ci][col] += 1

    def unplace(p, col):
        chi[p] = -1
        for ci in copies_at[p]:
            count[ci][col] -= 1

    def rec(p, max_used):
        budget.spend()
        if p == n_pos:
            return tuple(chi)
        for col in range(min(max_used + 1, k)):
            if violates(p, col):
                continue
            place(p, col)
            moved = []
            if lex_leader(p, moved):
                res = rec(p + 1, max_used + 1 if col == max_used else max_used)
                if res is not None:
                    return res
            for w in moved:
                waiting[w].pop()
            unplace(p, col)
        return None

    # max_used counts colors introduced so far; position 0 must take color 0
    return rec(0, 0)


def classical_arrow(c: Structure, a: Structure, b: Structure, k: int,
                    budget: Budget) -> ArrowCertificate:
    """Decide C -> (B)^A_k for embeddings: every k-coloring of the copies
    of A in C is constant on the copies of A in some copy of B."""
    if k < 1:
        raise InputError("k must be >= 1")
    domain = embedding_maps(a, c)
    copies_raw = embedding_maps(b, c)
    if not copies_raw:
        return ArrowCertificate(
            "arrow", "fails", degenerate=True, reason="no copy of B in C",
            payload={"k": k, "copy_count": 0})
    emb_ab = embedding_maps(a, b)
    if not emb_ab:
        return ArrowCertificate(
            "arrow", "holds", degenerate=True,
            reason="A does not embed in B; every copy is vacuously monochromatic",
            payload={"k": k, "domain_size": len(domain)})
    copies = _copy_position_sets(domain, emb_ab, copies_raw)
    auts = _aut_actions(c, domain, budget)
    used = budget.used
    n = len(domain)

    bad = _counterexample_search(c.size, domain, copies, k, auts, budget)

    if bad is None:
        return ArrowCertificate(
            "arrow", "holds",
            payload={"k": k, "domain_size": n, "copy_count": len(copies),
                     "aut_perms": len(auts) + 1, "nodes": budget.used - used,
                     "method": "pruned-backtracking-exhaustion"})
    coloring = [[list(m), col] for m, col in zip(domain, bad)]
    return ArrowCertificate(
        "arrow", "fails",
        payload={"k": k, "coloring": coloring})


def exhaustive_classical_check(c: Structure, a: Structure, b: Structure, k: int,
                               budget: Budget) -> bool:
    """Independent exhaustive decision (used by verify): enumerate every
    k-coloring of embeddings(A, C) and test each for a monochromatic copy,
    after spending one node of `budget` per coloring."""
    domain = embedding_maps(a, c)
    copies_raw = embedding_maps(b, c)
    if not copies_raw:
        return False
    emb_ab = embedding_maps(a, b)
    if not emb_ab:
        return True
    copies = _copy_position_sets(domain, emb_ab, copies_raw)
    n = len(domain)
    total = k ** n
    budget.spend(total)
    if k == 2:
        masks = [sum(1 << p for p in positions) for positions in copies]
        for chi in range(total):
            if not any((chi & m) == 0 or (chi & m) == m for m in masks):
                return False
        return True
    for chi in itertools.product(range(k), repeat=n):
        if not any(len({chi[p] for p in positions}) == 1 for positions in copies):
            return False
    return True


def check_coloring_is_counterexample(c, a, b, k, coloring_pairs) -> bool:
    """Re-score a claimed bad k-coloring using embedding_maps() only: total
    on the domain, every color in 0..k-1 and no copy of B monochromatic."""
    domain = embedding_maps(a, c)
    values = {tuple(m): col for m, col in coloring_pairs}
    if set(values) != set(domain) or not all(0 <= col < k for col in values.values()):
        return False
    emb_ab = embedding_maps(a, b)
    for bm in embedding_maps(b, c):
        seen = {values[tuple(bm[x] for x in am)] for am in emb_ab}
        if len(seen) <= 1:
            return False
    return True


def arrow_search(spec: AgeSpec, a: Structure, b: Structure, k: int, max_n: int,
                 budget: Budget) -> ArrowCertificate:
    """Scan the age by size for the first C with classical_arrow holding;
    each level of the age is built once."""
    if max_n < b.size:
        raise InputError("max_n must be at least |B|")
    sizes = range(max(a.size, b.size), max_n + 1)
    # zip asks `sizes` first, so no level past max_n is built
    for n, level in zip(sizes, itertools.islice(levels(spec, budget), sizes.start - 1, None)):
        for cand in level:
            cert = classical_arrow(cand, a, b, k, budget)
            if cert.holds and not cert.degenerate:
                return ArrowCertificate(
                    "arrow-search", "holds",
                    payload={"k": k, "n": n, "c": serialize_structure(cand),
                             "inner": cert.payload})
    return ArrowCertificate(
        "arrow-search", "fails", reason=f"no witness C up to size {max_n}",
        payload={"k": k, "max_n": max_n})


# ---------------------------------------------------------------------------
# pattern-constant (definable / stable) arrows


def _require_members(spec: AgeSpec, structures) -> None:
    for s in structures:
        if not spec.member(s):
            raise InputError("inputs must be members of the age")


def _constant_on(code, b_map, z_maps, emb_ab) -> bool:
    """Every coordinate's pattern coloring a |-> code(b_map . a, z) is
    constant on the copies of A inside b_map: B -> U, where code(a_map,
    z_map) is the pair pattern code in U."""
    for z_map in z_maps:
        first = None
        for am in emb_ab:
            here = code(tuple([b_map[x] for x in am]), z_map)
            if first is None:
                first = here
            elif here != first:
                return False
    return True


def _pattern_constant_b(u, c_map, z_maps, emb_bc, emb_ab):
    """First b (as a map B->C) such that every coordinate's pattern
    coloring is constant on the copies of A inside c_map . b."""
    # the copies of B overlap, so each pair's code is asked for repeatedly
    code = functools.cache(functools.partial(pair_pattern_code, u))
    for bm in emb_bc:
        if _constant_on(code, tuple([c_map[v] for v in bm]), z_maps, emb_ab):
            return bm
    return None


def _pattern_arrow(operation, c, a, b, zs, spec, budget, extra) -> ArrowCertificate:
    """For every joint embedding of C and the coordinates zs, some copy of
    B on which every pattern coloring is constant; `extra` ends every
    payload."""
    emb_bc = embedding_maps(b, c)
    if not emb_bc:
        return ArrowCertificate(operation, "fails", degenerate=True,
                                reason="no copy of B in C", payload=extra)
    emb_ab = embedding_maps(a, b)
    if not emb_ab:
        return ArrowCertificate(operation, "holds", degenerate=True,
                                reason="A does not embed in B; constancy is vacuous",
                                payload=extra)
    # each placement is its own pattern, so the walk checks every pattern
    # once; a fail names the failing placement with the least pattern code
    checked = 0
    least = None
    for u, maps in iter_joint_embeddings(spec, c, zs, budget=budget):
        checked += 1
        c_map, *z_maps = maps
        if _pattern_constant_b(u, c_map, z_maps, emb_bc, emb_ab) is None:
            code = pattern_of(JointEmbedding(u, maps))
            if least is None or code < least[0]:
                least = code, u, c_map, z_maps
    if least is not None:
        _, u, c_map, z_maps = least
        offending = {"u": serialize_structure(u), "c_map": list(c_map),
                     "z_maps": [list(m) for m in z_maps]}
        return ArrowCertificate(operation, "fails",
                                payload={"offending": offending, **extra})
    return ArrowCertificate(operation, "holds",
                            payload={"joint_patterns_checked": checked, **extra})


def definable_arrow(c: Structure, a: Structure, b: Structure, z: Structure,
                    spec: AgeSpec, budget: Budget) -> ArrowCertificate:
    """Decide the pattern-constant arrow: for every joint embedding of C
    and Z there is a copy of B on which a |-> [a, z] is constant."""
    _require_members(spec, (a, b, c, z))
    return _pattern_arrow("definable-arrow", c, a, b, (z,), spec, budget, {})


def stability_precondition(spec: AgeSpec, a: Structure, zs, depth: int,
                           max_host: int | None, *, budget: Budget) -> list[dict]:
    """The stable-arrow payload's entry for each coordinate in order: the
    pair (A, Z_i) is stable at `depth` and `max_host`.  Raises
    PreconditionFailure at the first pair that is not."""
    entries = []
    for i, z in enumerate(zs):
        report = stable_up_to(spec, a, z, depth, max_host, budget=budget)
        if not report.stable:
            raise PreconditionFailure(
                f"pair (A, Z_{i}) has an unstable witness at depth <= {depth}; "
                "the stability-restricted arrow does not apply")
        entries.append({"z_index": i, "stable": True, "depth": report.depth,
                        "max_host": report.max_host})
    return entries


def stable_arrow(c: Structure, a: Structure, b: Structure, zs, spec: AgeSpec,
                 depth: int, max_host: int | None = None, *,
                 budget: Budget) -> ArrowCertificate:
    """The definable arrow simultaneously for all coordinates, under the
    depth-bounded stability precondition on every pair (A, Z_i)."""
    zs = tuple(zs)
    _require_members(spec, (a, b, c) + zs)
    precondition = stability_precondition(spec, a, zs, depth, max_host, budget=budget)
    return _pattern_arrow("stable-arrow", c, a, b, zs, spec, budget,
                          {"stability_precondition": precondition})


def stability_search(spec: AgeSpec, a: Structure, z: Structure, depth: int,
                     max_host: int | None = None, *, budget: Budget) -> ArrowCertificate:
    """The depth-bounded search for an unstable (A, Z)-sequence: holds with
    the witness it finds, fails when every pattern pair is exhausted."""
    report = stable_up_to(spec, a, z, depth, max_host, budget=budget)
    w = report.witness
    if w is None:
        return ArrowCertificate(
            "stability", "fails", reason="no unstable witness within the bounds",
            payload={"stable_up_to": True, "depth": report.depth,
                     "max_host": report.max_host, "nodes": report.nodes_used,
                     "pattern_pairs_checked": report.pattern_pairs_checked})
    return ArrowCertificate("stability", "holds", payload={
        "depth": w.depth, "host": serialize_structure(w.host),
        "a_maps": [list(m) for m in w.a_maps],
        "z_maps": [list(m) for m in w.z_maps],
        "tau_lt": w.tau_lt.hex(), "tau_gt": w.tau_gt.hex()})


def amalgamation_search(spec: AgeSpec, which: str, bound: int,
                        budget: Budget) -> ArrowCertificate:
    """The bounded probe of the amalgamation property `which`: holds up to
    `bound`, or fails on the first instance without a completion."""
    report = amalgamation_probe(spec, which, bound, budget)
    cex = report.counterexample
    if cex is None:
        return ArrowCertificate("amalgamation", "holds", payload={
            "holds_up_to": report.holds_up_to,
            "instances_checked": report.instances_checked,
            "search_cap": report.search_cap})
    return ArrowCertificate("amalgamation", "fails", payload={
        "counterexample": {
            "a": serialize_structure(cex.a) if cex.a is not None else None,
            "b": serialize_structure(cex.b), "c": serialize_structure(cex.c),
            "f": list(cex.f), "g": list(cex.g)},
        "instances_checked": report.instances_checked,
        "search_cap": report.search_cap})


def roelcke_witness(spec: AgeSpec, a: Structure, b: Structure, z: Structure,
                    max_n: int | None = None, *,
                    budget: Budget) -> ArrowCertificate:
    """Search for one joint embedding <b, z> whose pattern coloring
    a |-> [b.a, z] is constant; the free join is the first candidate."""
    _require_members(spec, (a, b, z))
    emb_ab = embedding_maps(a, b)
    checked = 0
    for u, (b_map, z_map) in iter_joint_embeddings(spec, b, (z,), max_size=max_n,
                                                   budget=budget):
        checked += 1
        if _constant_on(functools.partial(pair_pattern_code, u), b_map, (z_map,), emb_ab):
            return ArrowCertificate(
                "roelcke-witness", "holds", degenerate=not emb_ab,
                payload={"u": serialize_structure(u), "b_map": list(b_map),
                         "z_map": list(z_map), "candidates_checked": checked})
    return ArrowCertificate(
        "roelcke-witness", "fails", reason="no witness after exhaustion",
        payload={"candidates_checked": checked})


# ---------------------------------------------------------------------------
# proximal colorings


def coloring_digest(chi: Coloring) -> str:
    import hashlib

    from arrowbench.structures import canonical_form

    h = hashlib.sha256()
    h.update(canonical_form(chi.universe))
    h.update(canonical_form(chi.source))
    h.update(repr(chi.values).encode())
    return h.hexdigest()[:16]


def proximal_check(u: Structure, chi: Coloring, spec: AgeSpec, d_max: int,
                   budget: Budget) -> ArrowCertificate:
    """For every D in the age up to size d_max, search for a substructure
    E of U such that any two copies of E in U agree, after some copy of D
    inside E, on the restricted colorings.  Holds when every D has one.

    The quantification over E is relativized to the finite universe U;
    reports always carry that universe and the depth used.
    """
    from arrowbench.structures import induced_substructure

    if chi.universe != u:
        raise InputError("coloring universe mismatch")
    if not spec.member(u):
        raise InputError("universe must be a member of the age")
    value_at = chi.value_at

    def agree(e1, e2, dm, emb_ad) -> bool:
        """chi agrees on the copies of A inside e1 . dm and e2 . dm"""
        return all(_values_agree(value_at[tuple(e1[dm[x]] for x in am)],
                                 value_at[tuple(e2[dm[x]] for x in am)]) for am in emb_ad)

    entries = []
    for d_struct in enumerate_up_to(spec, d_max, budget) if d_max >= 1 else []:
        emb_ad = embedding_maps(chi.source, d_struct)
        witness = None
        for verts in itertools.chain.from_iterable(
                itertools.combinations(range(u.size), size) for size in range(1, u.size + 1)):
            budget.spend()
            e_struct = induced_substructure(u, verts)
            e_embs = embedding_maps(e_struct, u)
            ds_in_e = embedding_maps(d_struct, e_struct)
            if ds_in_e and all(any(agree(e1, e2, dm, emb_ad) for dm in ds_in_e)
                               for e1 in e_embs for e2 in e_embs):
                witness = list(verts)
                break
        entries.append([serialize_structure(d_struct), witness is not None, witness])
    passed_all = all(passed for _, passed, _ in entries)
    return ArrowCertificate("proximal-check", "holds" if passed_all else "fails",
                            payload={"d_max": d_max, "entries": entries,
                                     "passed_all": passed_all})


def constant_copy(chi: Coloring, b: Structure):
    """The first copy of B in chi's universe, in lexicographic order, on
    which chi is constant, or None."""
    emb_ab = embedding_maps(chi.source, b)
    return next((bm for bm in embedding_maps(b, chi.universe) if chi.constant_on(bm, emb_ab)),
                None)


def proximal_arrow(u: Structure, chi: Coloring, a: Structure, b: Structure,
                   check: dict) -> ArrowCertificate:
    """First copy of B on which a verified-proximal coloring is constant.
    `check` is a proximal-check certificate document; refuses (distinct
    error) unless it is one, its inputs match, and it passed at its
    recorded depth."""
    from arrowbench.structures import canonical_form, code_digest

    if check.get("operation") != "proximal-check":
        raise InputError("--check must point at a proximal-check certificate")
    if chi.source != a:
        raise InputError("coloring source mismatch")
    recorded = check.get("inputs", {})
    if (recorded.get("u") != code_digest(canonical_form(u))
            or recorded.get("_coloring") != coloring_digest(chi)):
        raise PreconditionFailure("proximality report does not match these inputs")
    depth = check["payload"]["d_max"]
    if check["verdict"] != "holds":
        raise PreconditionFailure(f"proximality not established at depth {depth}")
    bm = constant_copy(chi, b)
    if bm is None:
        return ArrowCertificate("proximal-arrow", "fails", reason="no constant copy",
                                payload={"checked_depth": depth})
    return ArrowCertificate("proximal-arrow", "holds", degenerate=not embedding_maps(a, b),
                            payload={"b_map": list(bm), "checked_depth": depth})


# ---------------------------------------------------------------------------
# convex arrow (zero-sum game)


_PIVOT_TOL = 1e-9


def _simplex(cost, a_ub, rhs, budget: Budget):
    """Maximise cost . x over x >= 0 with a_ub x <= rhs (rhs >= 0), given
    as lists (a_ub by rows), by a dense-tableau simplex from the slack
    basis, charging one node per pivot to `budget`.  Dantzig's rule runs
    on the deterministically perturbed rhs + 1e-7 (i + 1) / rows at row
    i, so that zero rows do not stall it; the true rhs rides along as a
    second column, and x is read from it.  A pivot updates only the rows
    with a nonzero entry in the pivot column, at the pivot row's nonzero
    entries: every other entry of the dense update would be x - 0.0.
    Returns (x, y), where y[i] >= 0 is the dual of row i: the reduced cost
    of its slack; if the LP is unbounded, returns (ray, None)."""
    rows, cols = len(a_ub), len(cost)
    # rows: a_ub, the reduced costs; columns: x, one slack per row, the
    # perturbed rhs, the true rhs
    t = []
    for i, (row, b) in enumerate(zip(a_ub, rhs)):
        slack = [0.0] * rows
        slack[i] = 1.0
        t.append(list(row) + slack + [b + 1e-7 * (i + 1) / rows, b])
    obj = [-v for v in cost] + [0.0] * (rows + 2)
    t.append(obj)
    basis = list(range(cols, cols + rows))
    x = [0.0] * (cols + rows)
    while True:
        j = min(range(cols + rows), key=obj.__getitem__)
        if obj[j] >= -_PIVOT_TOL:
            for i, v in enumerate(basis):
                x[v] = t[i][-1]
            return x[:cols], obj[cols:-2]
        up = [i for i in range(rows) if t[i][j] > _PIVOT_TOL]
        if not up:
            x[j] = 1.0
            for i, v in enumerate(basis):
                x[v] = -t[i][j]
            return x[:cols], None
        # the first row of least ratio
        r = min(up, key=lambda i: max(t[i][-2], 0.0) / t[i][j])
        budget.spend()
        pivot = t[r][j]
        t[r] = [v / pivot for v in t[r]]
        entries = [(k, v) for k, v in enumerate(t[r]) if v]
        for i, row in enumerate(t):
            f = row[j]
            if f and i != r:
                for k, v in entries:
                    row[k] -= f * v
        basis[r] = j


def convex_arrow(c: Structure, a: Structure, b: Structure,
                 epsilon: float, budget: Budget) -> ArrowCertificate:
    """Value of the zero-sum game: the player mixes over copies of B in C,
    the adversary picks a [0,1]-coloring of the copies of A in C, and the
    payoff is the oscillation of the averaged coloring over the copies of
    A in B.  For a fixed ordered pair of A-copies the adversary's best
    coloring scores the sum of the positive parts of the margin vector
    (first-slot mass minus second-slot mass at each position).  A margin
    vector sums to 0, so both orders of a pair score the same, and the
    game is one LP of polynomial size with one row block per unordered
    pair.  In homogeneous form (mu = lambda / value, t scaled alike):

        maximize sum(mu)  over  mu >= 0, t >= 0
        subject to  margin(mu)[pair, pos] <= t[pair, pos]
                    sum_pos t[pair, pos] <= 1

    and value = 1 / optimum; an unbounded ray is a combination with all
    margins 0, value 0.  `_simplex` solves it from the slack basis,
    charging one node per pivot to `budget`.
    Its duals are the adversary's mixed strategy: pair weights y and
    [0,1]-colorings z / y.  Verdict: value <= epsilon (at tolerance 1e-9).
    """
    if epsilon <= 0:
        raise InputError("epsilon must be > 0")
    domain = embedding_maps(a, c)
    copies = embedding_maps(b, c)
    if not copies:
        raise InputError("embeddings(B, C) must be nonempty")
    emb_ab = embedding_maps(a, b)
    n, m_cnt, p_cnt = len(domain), len(copies), len(emb_ab)
    if p_cnt == 0:
        return ArrowCertificate(
            "convex-arrow", "holds", degenerate=True,
            reason="A does not embed in B; the averaged coloring has empty domain",
            payload={"epsilon": epsilon, "value": 0.0, "gap": 0.0,
                     "combination": [[list(copies[0]), 1.0]], "adversary": []})
    if p_cnt == 1:
        value = 0.0
        w = 1.0 / m_cnt
        return ArrowCertificate(
            "convex-arrow", "holds" if value <= epsilon + REAL_TOL else "fails",
            payload={"epsilon": epsilon, "value": value, "gap": 0.0,
                     "combination": [[list(mm), w] for mm in copies],
                     "adversary": []})
    index = {mm: i for i, mm in enumerate(domain)}
    # slots[m][j]: the position of copy m of B's j-th copy of A
    slots = [[index[tuple(bm[x] for x in am)] for am in emb_ab] for bm in copies]
    pairs = list(itertools.combinations(range(p_cnt), 2))

    # columns: mu, t[pair, pos]; rows: margin <= t, then sum_pos t <= 1.
    # The margin at pos is the mass of copies putting pos in the pair's
    # first slot minus those putting it second
    n_marg = len(pairs) * n
    a_ub = [[0.0] * (m_cnt + n_marg) for _ in range(n_marg + len(pairs))]
    for p, (j1, j2) in enumerate(pairs):
        for m, s in enumerate(slots):
            a_ub[p * n + s[j1]][m] = 1.0
            a_ub[p * n + s[j2]][m] = -1.0
        for row in range(p * n, p * n + n):
            a_ub[row][m_cnt + row] = -1.0
            a_ub[n_marg + p][m_cnt + row] = 1.0
    rhs = [0.0] * n_marg + [1.0] * len(pairs)
    cvec = [1.0] * m_cnt + [0.0] * n_marg
    sol, duals = _simplex(cvec, a_ub, rhs, budget)
    mu = [max(0.0, x) for x in sol[:m_cnt]]
    total = sum(mu)
    lam = [x / total for x in mu]

    # primal check: worst oscillation of the returned combination
    direct = 0.0
    for j1, j2 in pairs:
        margin = [0.0] * n
        for s, w in zip(slots, lam):
            margin[s[j1]] += w
            margin[s[j2]] -= w
        direct = max(direct, sum(max(v, 0.0) for v in margin))
    if duals is None:  # a ray: every margin of lambda is 0
        value, adversary, bound = 0.0, [], 0.0
    else:
        value = 1.0 / total
        # dual certificate: adversary mixture proving a matching lower
        # bound; y weighs the sum rows (one per pair), z the margin rows
        y = duals[n_marg:]
        keep = [p for p in range(len(pairs)) if y[p] > 1e-12]
        y_sum = sum(y[p] for p in keep)
        weights = [y[p] / y_sum for p in keep]
        colorings = [[min(max(z / y[p], 0.0), 1.0) for z in duals[p * n:p * n + n]]
                     for p in keep]
        adversary = [{"coloring": col,
                      "pair": [list(emb_ab[pairs[p][0]]), list(emb_ab[pairs[p][1]])],
                      "weight": w}
                     for p, w, col in zip(keep, weights, colorings)]
        # each copy of B's payoff against the mixture; the least bounds the value
        bound = min(sum(w * (col[s[pairs[p][0]]] - col[s[pairs[p][1]]])
                        for p, w, col in zip(keep, weights, colorings))
                    for s in slots)
    gap = abs(direct - bound)
    # refuse what _verify_convex would reject: value must lie within 1e-6
    # of both the combination's worst case and the adversary's bound
    if gap > 1e-6 or not direct - 1e-6 <= value <= bound + 1e-6:
        raise ArrowbenchError(f"convex LP: no optimal point (value {value!r}, "
                              f"bounds {bound!r}..{direct!r})")

    verdict = "holds" if value <= epsilon + REAL_TOL else "fails"
    return ArrowCertificate(
        "convex-arrow", verdict,
        payload={"epsilon": epsilon, "value": value, "gap": gap,
                 "combination": [[list(mm), w] for mm, w in zip(copies, lam)],
                 "adversary": adversary})
