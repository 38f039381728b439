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
found is the lexicographically least one.

"Constant up to epsilon" means strict oscillation < epsilon; real
comparisons elsewhere use absolute tolerance 1e-9.  The convex decider is
the one place where the boundary is closed (value <= epsilon at
tolerance), since an oscillation of [0,1]-valued colorings never exceeds
1 and epsilon >= 1 instances must hold.
"""

from __future__ import annotations

import functools
import itertools
from dataclasses import dataclass, field

from arrowbench.ages import AgeSpec, enumerate_structures, enumerate_up_to
from arrowbench.errors import (
    InputError,
    PreconditionFailure,
    ResourceLimitExceeded,
)
from arrowbench.patterns import (
    iter_joint_embeddings,
    joint_embeddings,
    pair_pattern_code,
)
from arrowbench.stability import stable_up_to
from arrowbench.structures import (
    Embedding,
    Structure,
    embedding_maps,
    embeddings,
    serialize_structure,
)
from arrowbench.unions import Budget

REAL_TOL = 1e-9


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
        dom = embedding_maps(self.source, self.universe)
        if len(dom) != len(self.values):
            raise InputError(
                f"coloring must be total: domain has {len(dom)} embeddings, "
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

    def index_of(self, emb_map: tuple[int, ...]) -> int:
        try:
            return self.domain.index(tuple(emb_map))
        except ValueError:
            raise InputError(f"{emb_map} is not an embedding in the coloring domain") from None

    def value_of(self, emb_map) -> object:
        return self.values[self.index_of(emb_map)]

    @classmethod
    def from_pairs(cls, universe, source, pairs: dict, kind="indexed", colors=None):
        dom = embedding_maps(source, universe)
        missing = [m for m in dom if tuple(m) not in pairs]
        if missing:
            raise InputError(f"coloring not total: missing value for {missing[0]}")
        extra = set(pairs) - set(dom)
        if extra:
            raise InputError(f"coloring assigns values outside the domain: {sorted(extra)[0]}")
        return cls(universe, source, tuple(pairs[m] for m in dom), kind, colors)


@dataclass(frozen=True)
class ConvexCombination:
    """Nonnegative weights summing to 1 over copies of B in C."""

    weights: tuple[float, ...]
    copies: tuple[Embedding, ...]

    def __post_init__(self):
        if len(self.weights) != len(self.copies):
            raise InputError("weights and copies must have equal length")
        if any(w < -REAL_TOL for w in self.weights):
            raise InputError("weights must be nonnegative")
        if abs(sum(self.weights) - 1.0) > REAL_TOL:
            raise InputError(f"weights must sum to 1, got {sum(self.weights)}")


def _maps_payload(maps) -> list[list[int]]:
    return [list(m) for m in maps]


# ---------------------------------------------------------------------------
# classical arrow


def _copy_position_sets(domain, emb_ab, copies_raw):
    index = {m: i for i, m in enumerate(domain)}
    seen = set()
    out = []
    for bm in copies_raw:
        positions = tuple(sorted({index[tuple(bm[x] for x in am)] for am in emb_ab}))
        if positions not in seen:
            seen.add(positions)
            out.append(positions)
    return out


def _aut_position_perms(c: Structure, domain):
    """Aut(C) acting on the embedding positions, identity dropped."""
    from arrowbench.groups import automorphisms

    index = {m: i for i, m in enumerate(domain)}
    perms = set()
    for g in automorphisms(c).elements:
        perm = tuple(index[tuple(g[v] for v in m)] for m in domain)
        if perm != tuple(range(len(domain))):
            perms.add(perm)
    return sorted(perms)


def _counterexample_search(n_pos, copies, k, aut_perms, budget: Budget):
    """Lexicographically least k-coloring (as a vector over positions) in
    which every copy sees at least two colors, or None.  Colors are
    forced to appear in first-use order; aut_perms prune to orbit
    lex-minima."""
    copies_at = [[] for _ in range(n_pos)]
    for ci, positions in enumerate(copies):
        for p in positions:
            copies_at[p].append(ci)
    copy_size = [len(ps) for ps in copies]
    assigned_count = [0] * len(copies)
    colors_seen = [set() for _ in copies]
    chi = [-1] * n_pos

    def violates(p, col) -> bool:
        # does assigning chi[p]=col complete some copy monochromatically?
        for ci in copies_at[p]:
            if assigned_count[ci] == copy_size[ci] - 1 and colors_seen[ci] <= {col}:
                if all(chi[q] == col or q == p for q in copies[ci]):
                    return True
        return False

    def lex_ok_prefix() -> bool:
        # sound prune: if on the assigned prefix chi is already
        # lexicographically above some automorphic image, no completion
        # can be the orbit minimum
        for perm in aut_perms:
            for i in range(n_pos):
                x, y = chi[i], chi[perm[i]]
                if x < 0 or y < 0:
                    break
                if x < y:
                    break
                if x > y:
                    return False
        return True

    def place(p, col):
        chi[p] = col
        for ci in copies_at[p]:
            assigned_count[ci] += 1
            colors_seen[ci].add(col)

    def unplace(p, col):
        chi[p] = -1
        for ci in copies_at[p]:
            assigned_count[ci] -= 1
            cnt = sum(1 for q in copies[ci] if chi[q] == col)
            if cnt == 0:
                colors_seen[ci].discard(col)

    def rec(p, max_used):
        budget.spend()
        if p == n_pos:
            return tuple(chi)
        for col in range(min(max_used + 1, k)):
            if violates(p, col):
                continue
            place(p, col)
            if lex_ok_prefix():
                res = rec(p + 1, max_used + 1 if col == max_used else max_used)
                if res is not None:
                    return res
            unplace(p, col)
        return None

    # max_used counts colors introduced so far; position 0 must take color 0
    return rec(0, 0)


def classical_arrow(c: Structure, a: Structure, b: Structure, k: int,
                    node_budget: int = 20_000_000) -> ArrowCertificate:
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
    aut_perms = _aut_position_perms(c, domain)
    budget = Budget(node_budget, "classical_arrow")
    n = len(domain)

    bad = _counterexample_search(n, copies, k, aut_perms, budget)

    if bad is None:
        return ArrowCertificate(
            "arrow", "holds",
            payload={"k": k, "domain_size": n, "copy_count": len(copies),
                     "aut_perms": len(aut_perms) + 1, "nodes": budget.used,
                     "method": "pruned-backtracking-exhaustion"})
    coloring = [[list(m), col] for m, col in zip(domain, bad)]
    return ArrowCertificate(
        "arrow", "fails",
        payload={"k": k, "coloring": coloring})


def exhaustive_classical_check(c: Structure, a: Structure, b: Structure, k: int,
                               enumeration_cap: int = 1 << 22) -> bool:
    """Independent exhaustive decision (used by verify): enumerate every
    k-coloring of embeddings(A, C) and test each for a monochromatic copy."""
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
    if total > enumeration_cap:
        raise ResourceLimitExceeded(
            f"exhaustive check needs {total} colorings > cap", budget=enumeration_cap)
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


def check_coloring_is_counterexample(c, a, b, coloring_pairs) -> bool:
    """Re-score a claimed bad coloring using embeddings() only: total on
    the domain and no copy of B monochromatic."""
    domain = embedding_maps(a, c)
    values = {tuple(m): col for m, col in ((tuple(mm), cc) for mm, cc in coloring_pairs)}
    if set(values) != set(domain):
        return False
    emb_ab = embedding_maps(a, b)
    for bm in embedding_maps(b, c):
        seen = {values[tuple(bm[x] for x in am)] for am in emb_ab}
        if len(seen) <= 1:
            return False
    return True


def arrow_search(spec: AgeSpec, a: Structure, b: Structure, k: int, max_n: int,
                 node_budget: int = 20_000_000) -> ArrowCertificate:
    """Scan the age by size for the first C with classical_arrow holding."""
    if max_n < b.size:
        raise InputError("max_n must be at least |B|")
    for n in range(max(a.size, b.size), max_n + 1):
        for cand in enumerate_structures(spec, n):
            cert = classical_arrow(cand, a, b, k, node_budget=node_budget)
            if cert.holds and not cert.degenerate:
                return ArrowCertificate(
                    "arrow-search", "holds",
                    payload={"k": k, "n": n, "c": serialize_structure(cand),
                             "inner": cert.payload})
    return ArrowCertificate(
        "arrow-search", "fails", reason=f"no witness C up to size {max_n}",
        payload={"k": k, "max_n": max_n})


# ---------------------------------------------------------------------------
# epsilon-constant witnesses


def oscillation(values) -> float:
    vals = [float(v) for v in values]
    if not vals:
        return 0.0
    return max(vals) - min(vals)


def epsilon_constant_witness(u: Structure, chi: Coloring, b: Structure,
                             epsilon: float) -> ArrowCertificate:
    """First copy of B in U on which chi has oscillation strictly below
    epsilon, scanning copies in lexicographic order."""
    if epsilon <= 0:
        raise InputError("epsilon must be > 0")
    if chi.universe != u:
        raise InputError("coloring universe mismatch")
    a = chi.source
    emb_ab = embedding_maps(a, b)
    value_at = {m: v for m, v in zip(chi.domain, chi.values)}
    for bm in embedding_maps(b, u):
        vals = [value_at[tuple(bm[x] for x in am)] for am in emb_ab]
        osc = oscillation(vals)
        if osc < epsilon:
            return ArrowCertificate(
                "epsilon-witness", "holds",
                degenerate=not emb_ab,
                payload={"epsilon": epsilon, "b_map": list(bm), "oscillation": osc})
    return ArrowCertificate(
        "epsilon-witness", "fails", reason="no copy with small oscillation",
        payload={"epsilon": epsilon})


# ---------------------------------------------------------------------------
# pattern-constant (definable / stable) arrows


def _require_members(spec: AgeSpec, structures) -> None:
    for s in structures:
        if not spec.member(s):
            raise InputError("inputs must be members of the age")


def _pattern_constant_b(u, c_map, z_maps, emb_bc, emb_ab):
    """First b (as a map B->C) such that every coordinate's pattern
    coloring is constant on the copies of A inside b's image."""
    memo: dict[tuple[int, tuple[int, ...]], bytes] = {}

    def pat(zi, a_full):
        key = (zi, a_full)
        code = memo.get(key)
        if code is None:
            code = pair_pattern_code(u, a_full, z_maps[zi])
            memo[key] = code
        return code

    for bm in emb_bc:
        ok = True
        for zi in range(len(z_maps)):
            first = None
            for am in emb_ab:
                full = tuple(c_map[bm[am[i]]] for i in range(len(am)))
                code = pat(zi, full)
                if first is None:
                    first = code
                elif code != first:
                    ok = False
                    break
            if not ok:
                break
        if ok:
            return bm
    return None


def definable_arrow(c: Structure, a: Structure, b: Structure, z: Structure,
                    spec: AgeSpec, candidate_cap: int = 2_000_000) -> ArrowCertificate:
    """Decide the pattern-constant arrow: for every joint embedding of C
    and Z there is a copy of B on which a |-> [a, z] is constant."""
    _require_members(spec, (a, b, c, z))
    emb_bc = embedding_maps(b, c)
    if not emb_bc:
        return ArrowCertificate("definable-arrow", "fails", degenerate=True,
                                reason="no copy of B in C", payload={})
    emb_ab = embedding_maps(a, b)
    if not emb_ab:
        return ArrowCertificate("definable-arrow", "holds", degenerate=True,
                                reason="A does not embed in B; constancy is vacuous",
                                payload={})
    checked = 0
    for je in joint_embeddings(spec, c, (z,), candidate_cap=candidate_cap):
        u = je.target
        c_map, z_map = je.maps
        checked += 1
        bm = _pattern_constant_b(u, c_map, [z_map], emb_bc, emb_ab)
        if bm is None:
            return ArrowCertificate(
                "definable-arrow", "fails",
                payload={"offending": {"u": serialize_structure(u),
                                       "c_map": list(c_map), "z_maps": [list(z_map)]}})
    return ArrowCertificate("definable-arrow", "holds",
                            payload={"joint_patterns_checked": checked})


def stable_arrow(c: Structure, a: Structure, b: Structure, zs, spec: AgeSpec,
                 depth: int, max_host: int | None = None,
                 candidate_cap: int = 2_000_000,
                 node_budget: int = 5_000_000) -> ArrowCertificate:
    """The definable arrow simultaneously for all coordinates, guarded by
    the depth-bounded stability precondition on every pair (A, Z_i)."""
    zs = tuple(zs)
    _require_members(spec, (a, b, c) + zs)
    precondition = []
    for i, z in enumerate(zs):
        report = stable_up_to(spec, a, z, depth, max_host=max_host,
                              node_budget=node_budget)
        precondition.append({"z_index": i, "stable": report.stable,
                             "depth": report.depth, "max_host": report.max_host})
        if not report.stable:
            raise PreconditionFailure(
                f"pair (A, Z_{i}) has an unstable witness at depth <= {depth}; "
                "the stability-restricted arrow does not apply")
    emb_bc = embedding_maps(b, c)
    if not emb_bc:
        return ArrowCertificate("stable-arrow", "fails", degenerate=True,
                                reason="no copy of B in C",
                                payload={"stability_precondition": precondition})
    emb_ab = embedding_maps(a, b)
    if not emb_ab:
        return ArrowCertificate("stable-arrow", "holds", degenerate=True,
                                reason="A does not embed in B; constancy is vacuous",
                                payload={"stability_precondition": precondition})
    checked = 0
    for je in joint_embeddings(spec, c, zs, candidate_cap=candidate_cap):
        u = je.target
        c_map = je.maps[0]
        z_maps = list(je.maps[1:])
        checked += 1
        bm = _pattern_constant_b(u, c_map, z_maps, emb_bc, emb_ab)
        if bm is None:
            return ArrowCertificate(
                "stable-arrow", "fails",
                payload={"offending": {"u": serialize_structure(u),
                                       "c_map": list(c_map),
                                       "z_maps": _maps_payload(z_maps)},
                         "stability_precondition": precondition})
    return ArrowCertificate("stable-arrow", "holds",
                            payload={"joint_patterns_checked": checked,
                                     "stability_precondition": precondition})


def roelcke_witness(spec: AgeSpec, a: Structure, b: Structure, z: Structure,
                    max_n: int | None = None,
                    candidate_cap: int = 5_000_000) -> ArrowCertificate:
    """Search for one joint embedding <b, z> whose pattern coloring
    a |-> [b.a, z] is constant; the free join is the first candidate."""
    _require_members(spec, (a, b, z))
    emb_ab = embedding_maps(a, b)
    budget = Budget(candidate_cap, "roelcke_witness")
    checked = 0
    for u, (b_map, z_map) in iter_joint_embeddings(spec, b, (z,), max_size=max_n,
                                                   budget=budget):
        checked += 1
        codes = set()
        for am in emb_ab:
            full = tuple(b_map[am[i]] for i in range(len(am)))
            codes.add(pair_pattern_code(u, full, z_map))
            if len(codes) > 1:
                break
        if len(codes) <= 1:
            return ArrowCertificate(
                "roelcke-witness", "holds", degenerate=not emb_ab,
                payload={"u": serialize_structure(u), "b_map": list(b_map),
                         "z_map": list(z_map), "candidates_checked": checked})
    return ArrowCertificate(
        "roelcke-witness", "fails", reason="no witness after exhaustion",
        payload={"candidates_checked": checked})


# ---------------------------------------------------------------------------
# proximal colorings


@dataclass(frozen=True)
class ProximalReport:
    universe_digest: str
    coloring_digest: str
    d_max: int
    entries: tuple  # (serialized D, passed, witness E vertex tuple | None)

    @property
    def passed_all(self) -> bool:
        return all(passed for _, passed, _ in self.entries)


def coloring_digest(chi: Coloring) -> str:
    import hashlib

    from arrowbench.structures import canonical_form

    h = hashlib.sha256()
    h.update(canonical_form(chi.universe))
    h.update(canonical_form(chi.source))
    h.update(repr(chi.values).encode())
    return h.hexdigest()[:16]


def _values_agree(x, y, kind: str) -> bool:
    if kind == "real":
        return abs(float(x) - float(y)) <= REAL_TOL
    return x == y


def proximal_check(u: Structure, chi: Coloring, spec: AgeSpec, d_max: int,
                   candidate_cap: int = 5_000_000) -> ProximalReport:
    """For every D in the age up to size d_max, search for a substructure
    E of U such that any two copies of E in U agree, after some copy of D
    inside E, on the restricted colorings.

    The quantification over E is relativized to the finite universe U;
    reports always carry that universe and the depth used.
    """
    from arrowbench.structures import canonical_form, code_digest, induced_substructure

    if chi.universe != u:
        raise InputError("coloring universe mismatch")
    if not spec.member(u):
        raise InputError("universe must be a member of the age")
    a = chi.source
    value_at = {m: v for m, v in zip(chi.domain, chi.values)}
    entries = []
    budget = Budget(candidate_cap, "proximal_check")
    ds = enumerate_up_to(spec, d_max) if d_max >= 1 else []
    for d_struct in ds:
        emb_ad = embedding_maps(a, d_struct)
        witness = None
        for size in range(1, u.size + 1):
            for verts in itertools.combinations(range(u.size), size):
                budget.spend()
                e_struct = induced_substructure(u, verts)
                e_embs = embedding_maps(e_struct, u)
                ds_in_e = embedding_maps(d_struct, e_struct)
                if not ds_in_e:
                    continue
                ok = True
                for e1 in e_embs:
                    for e2 in e_embs:
                        found_d = False
                        for dm in ds_in_e:
                            agree = True
                            for am in emb_ad:
                                img1 = tuple(e1[dm[am[i]]] for i in range(len(am)))
                                img2 = tuple(e2[dm[am[i]]] for i in range(len(am)))
                                if not _values_agree(value_at[img1], value_at[img2],
                                                     chi.kind):
                                    agree = False
                                    break
                            if agree:
                                found_d = True
                                break
                        if not found_d:
                            ok = False
                            break
                    if not ok:
                        break
                if ok:
                    witness = verts
                    break
            if witness is not None:
                break
        entries.append((serialize_structure(d_struct), witness is not None,
                        list(witness) if witness is not None else None))
    return ProximalReport(
        universe_digest=code_digest(canonical_form(u)),
        coloring_digest=coloring_digest(chi),
        d_max=d_max,
        entries=tuple(entries))


def proximal_arrow(u: Structure, chi: Coloring, a: Structure, b: Structure,
                   check: ProximalReport) -> ArrowCertificate:
    """First copy of B on which a verified-proximal coloring is constant.
    Refuses (distinct error) unless the proximality report matches and
    passed at its recorded depth."""
    from arrowbench.structures import canonical_form, code_digest

    if chi.source != a:
        raise InputError("coloring source mismatch")
    if check.universe_digest != code_digest(canonical_form(u)) \
            or check.coloring_digest != coloring_digest(chi):
        raise PreconditionFailure("proximality report does not match these inputs")
    if not check.passed_all:
        raise PreconditionFailure(
            f"proximality not established at depth {check.d_max}")
    emb_ab = embedding_maps(a, b)
    value_at = {m: v for m, v in zip(chi.domain, chi.values)}
    for bm in embedding_maps(b, u):
        vals = [value_at[tuple(bm[x] for x in am)] for am in emb_ab]
        if all(_values_agree(v, vals[0], chi.kind) for v in vals[1:]):
            return ArrowCertificate(
                "proximal-arrow", "holds", degenerate=not emb_ab,
                payload={"b_map": list(bm), "checked_depth": check.d_max})
    return ArrowCertificate(
        "proximal-arrow", "fails", reason="no constant copy",
        payload={"checked_depth": check.d_max})


# ---------------------------------------------------------------------------
# convex arrow (zero-sum game)


def _convex_game_rows(domain_size, slots, pairs):
    """Constraint rows of the vertex LP: one row per ({0,1}-coloring,
    ordered pair of A-copies in B), with coefficients over the copies."""
    rows = {}
    for bits in itertools.product((0, 1), repeat=domain_size):
        for (j1, j2) in pairs:
            coef = tuple(bits[slot[j1]] - bits[slot[j2]] for slot in slots)
            if any(coef):
                key = coef
                if key not in rows:
                    rows[key] = (bits, (j1, j2))
    return rows


def convex_arrow(c: Structure, a: Structure, b: Structure, epsilon: float,
                 vertex_cap: int = 1 << 14) -> ArrowCertificate:
    """Value of the zero-sum game: the player mixes over copies of B in C,
    the adversary picks a [0,1]-coloring of the copies of A in C, and the
    payoff is the oscillation of the averaged coloring over the copies of
    A in B.  For a fixed pair of A-copies the payoff is affine in the
    coloring, so {0,1}-valued colorings are the adversary's extreme
    points and the game solves as an LP.  Verdict: value <= epsilon (at
    tolerance 1e-9).
    """
    import numpy as np
    from scipy.optimize import linprog

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
    index = {mm: i for i, mm in enumerate(domain)}
    slots = [tuple(index[tuple(bm[x] for x in am)] for am in emb_ab) for bm in copies]
    pairs = [(j1, j2) for j1 in range(p_cnt) for j2 in range(p_cnt) if j1 != j2]
    if (1 << n) > vertex_cap:
        raise ResourceLimitExceeded(
            f"instance too large for adversary vertex enumeration (2^{n} colorings)",
            budget=vertex_cap)

    rows = _convex_game_rows(n, slots, pairs)
    if not rows:
        value = 0.0
        weights = [1.0 / m_cnt] * m_cnt
        comb = ConvexCombination(tuple(weights),
                                 tuple(Embedding(b, c, mm) for mm in copies))
        return ArrowCertificate(
            "convex-arrow", "holds" if value <= epsilon + REAL_TOL else "fails",
            payload={"epsilon": epsilon, "value": value, "gap": 0.0,
                     "combination": [[list(mm), w] for mm, w in zip(copies, comb.weights)],
                     "adversary": []})

    row_list = list(rows)
    a_ub = np.zeros((len(row_list), m_cnt + 1))
    for r, coef in enumerate(row_list):
        a_ub[r, :m_cnt] = coef
        a_ub[r, m_cnt] = -1.0
    b_ub = np.zeros(len(row_list))
    a_eq = np.zeros((1, m_cnt + 1))
    a_eq[0, :m_cnt] = 1.0
    cvec = np.zeros(m_cnt + 1)
    cvec[m_cnt] = 1.0
    bounds = [(0.0, None)] * m_cnt + [(None, None)]
    res = linprog(cvec, A_ub=a_ub, b_ub=b_ub, A_eq=a_eq, b_eq=[1.0],
                  bounds=bounds, method="highs")
    if not res.success:
        raise ResourceLimitExceeded(f"LP solver failed: {res.message}")
    lam = [max(0.0, float(x)) for x in res.x[:m_cnt]]
    total = sum(lam)
    lam = [x / total for x in lam]
    value = float(res.x[m_cnt])

    # primal check: worst oscillation of the returned combination
    direct = 0.0
    for coef in row_list:
        direct = max(direct, float(sum(l * cf for l, cf in zip(lam, coef))))
    # dual certificate: adversary mixture proving a matching lower bound
    marg = res.ineqlin.marginals
    q = [max(0.0, -float(x)) for x in marg]
    qs = sum(q)
    adversary = []
    dual_value = None
    if qs > 0:
        q = [x / qs for x in q]
        per_copy = [sum(qr * row_list[r][mi] for r, qr in enumerate(q) if qr > 0)
                    for mi in range(m_cnt)]
        dual_value = float(min(per_copy))
        for r, qr in enumerate(q):
            if qr > 1e-12:
                bits, (j1, j2) = rows[row_list[r]]
                adversary.append({"coloring": list(bits),
                                  "pair": [list(emb_ab[j1]), list(emb_ab[j2])],
                                  "weight": qr})
    gap = float(abs(direct - (dual_value if dual_value is not None else direct)))

    comb = ConvexCombination(tuple(lam), tuple(Embedding(b, c, mm) for mm in copies))
    verdict = "holds" if value <= epsilon + REAL_TOL else "fails"
    return ArrowCertificate(
        "convex-arrow", verdict,
        payload={"epsilon": epsilon, "value": value, "gap": gap,
                 "combination": [[list(mm), w] for mm, w in zip(copies, comb.weights)],
                 "adversary": adversary})


def convex_minimax_oracle(c: Structure, a: Structure, b: Structure) -> float:
    """Exhaustive {0,1}-coloring minimax with the adversary moving first:
    for every {0,1}-coloring, the best-response LP over combinations,
    maximized over colorings.  This is a lower bound for the game value
    (where one combination must handle every coloring); the two coincide
    on instances whose optimal combination equalizes all colorings, e.g.
    point colorings of pure sets."""
    import numpy as np
    from scipy.optimize import linprog

    domain = embedding_maps(a, c)
    copies = embedding_maps(b, c)
    emb_ab = embedding_maps(a, b)
    if not copies or not emb_ab:
        return 0.0
    index = {mm: i for i, mm in enumerate(domain)}
    slots = [tuple(index[tuple(bm[x] for x in am)] for am in emb_ab) for bm in copies]
    pairs = [(j1, j2) for j1 in range(len(emb_ab)) for j2 in range(len(emb_ab)) if j1 != j2]
    worst = 0.0
    m_cnt = len(copies)
    for bits in itertools.product((0, 1), repeat=len(domain)):
        a_ub = []
        for (j1, j2) in pairs:
            coef = [bits[slot[j1]] - bits[slot[j2]] for slot in slots]
            a_ub.append(coef + [-1.0])
        a_eq = [[1.0] * m_cnt + [0.0]]
        cvec = [0.0] * m_cnt + [1.0]
        bounds = [(0.0, None)] * m_cnt + [(None, None)]
        res = linprog(cvec, A_ub=np.array(a_ub), b_ub=np.zeros(len(a_ub)),
                      A_eq=np.array(a_eq), b_eq=[1.0], bounds=bounds, method="highs")
        if not res.success:
            raise ResourceLimitExceeded(f"oracle LP failed: {res.message}")
        worst = max(worst, float(res.x[m_cnt]))
    return worst
