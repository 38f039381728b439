"""Shared builders and brute-force oracles for the test suite.

The oracles here intentionally avoid the package's search paths: embedding
enumeration filters raw injections, isomorphism tries every bijection,
structure counting enumerates all labeled structures before deduplicating,
orderly enumeration completes the tuples at a new vertex by its own
search rather than through `place_part`, `place_part_oracle`
re-validates every completion with `member` instead of checking only what
its fresh vertices can break, `canonical_search_oracle` encodes every
leaf of the canonical search tree instead of skipping the subtrees that a
found automorphism repeats, `occurrence_table_oracle` scans every tuple
for each vertex's positions, `search_pair_oracle` places every part
unconstrained and then filters the hosts by their pair pattern codes
instead of directing each placement by the patterns,
`counterexample_search_oracle` lists every automorphism's permutation of
the positions and rescans all of them at each node of the classical
arrow's search instead of advancing only those waiting on the position
just colored, `pattern_arrow_oracle` keeps one joint embedding per
pattern code and checks them in code order instead of walking the
placements as they come, and `amalgamation_probe_oracle` searches a
completion for every amalgamation instance instead of one per symmetry
orbit.
"""

import itertools
import operator
import random

from arrowbench.ages import (
    AmalgamationInstance,
    AmalgamationReport,
    _find_completion,
    _single_vertex_members,
    enumerate_up_to,
    member,
)
from arrowbench.arrows import ArrowCertificate, _pattern_constant_b
from arrowbench.groups import automorphisms
from arrowbench.patterns import (
    JointEmbedding,
    iter_joint_embeddings,
    marked_signature,
    pair_pattern_code,
    pattern_of,
)
from arrowbench.stability import UnstableWitness
from arrowbench.structures import (
    Signature,
    Structure,
    _encode_labeled,
    _product_complete,
    canonical_form,
    canonical_labeling,
    embedding_maps,
    induced_substructure,
    is_embedding,
    relabel,
    serialize_structure,
)
from arrowbench.unions import Budget, _pair_states, place_part

GRAPH_SIG = Signature((("edge", 2),))
ORDER_SIG = Signature((("lt", 2),))
SET_SIG = Signature(())


def nodes(cap: int = 5_000_000) -> Budget:
    """A fresh budget of `cap` nodes for one library call; the tests give
    a classical arrow 20M, an enumeration of structures or joint
    embeddings 2M, and any other search the CLI's default of 5M."""
    return Budget(cap, "test search")


def graph(n, edges):
    both = [(u, v) for u, v in edges] + [(v, u) for u, v in edges]
    return Structure.make(GRAPH_SIG, n, {"edge": both})


def chain(n):
    return Structure.make(ORDER_SIG, n, {"lt": [(u, v) for u in range(n)
                                                for v in range(u + 1, n)]})


def pure_set(n):
    return Structure(SET_SIG, n, ())


def k_graph(n):
    return graph(n, [(u, v) for u in range(n) for v in range(u + 1, n)])


def path(n):
    return graph(n, [(i, i + 1) for i in range(n - 1)])


def cycle(n):
    return graph(n, [(i, (i + 1) % n) for i in range(n)])


def brute_embeddings(a, b):
    """Oracle: filter every injection for the embedding property."""
    return [f for f in itertools.permutations(range(b.size), a.size)
            if is_embedding(f, a, b)]


def brute_isomorphic(a, b):
    """Oracle: try every bijection."""
    if a.signature != b.signature or a.size != b.size:
        return False
    return any(is_embedding(f, a, b) for f in itertools.permutations(range(a.size)))


def random_structure(rng: random.Random, max_size=6, signature=None):
    if signature is None:
        signature = Signature((("e", 2), ("u", 1)))
    n = rng.randint(1, max_size)
    rels = {}
    for name, arity in signature.symbols:
        tuples = []
        for t in itertools.product(range(n), repeat=arity):
            if rng.random() < 0.35:
                tuples.append(t)
        rels[name] = tuples
    return Structure.make(signature, n, rels)


def random_permutation(rng: random.Random, n):
    perm = list(range(n))
    rng.shuffle(perm)
    return tuple(perm)


def random_regular_graph(rng: random.Random, n, d):
    """A random simple d-regular graph on n vertices (n * d even, d < n):
    pair up d stubs per vertex at random until no loop or double edge."""
    stubs = [v for v in range(n) for _ in range(d)]
    while True:
        rng.shuffle(stubs)
        edges = {(min(u, v), max(u, v)) for u, v in zip(stubs[::2], stubs[1::2]) if u != v}
        if len(edges) * 2 == n * d:
            return graph(n, sorted(edges))


def _convex_game(c, a, b):
    """Copies of B in C, and for each the domain positions of the copies
    of A inside it, in `embedding_maps(a, b)` order."""
    domain = embedding_maps(a, c)
    copies = embedding_maps(b, c)
    emb_ab = embedding_maps(a, b)
    index = {mm: i for i, mm in enumerate(domain)}
    slots = [tuple(index[tuple(bm[x] for x in am)] for am in emb_ab) for bm in copies]
    pairs = [(j1, j2) for j1 in range(len(emb_ab)) for j2 in range(len(emb_ab)) if j1 != j2]
    return domain, copies, slots, pairs


def _min_max_lp(rows, m_cnt):
    """min over distributions lambda of max over rows of row . lambda."""
    import numpy as np
    from scipy.optimize import linprog

    a_ub = np.hstack([np.array(rows, dtype=float), -np.ones((len(rows), 1))])
    res = linprog([0.0] * m_cnt + [1.0], A_ub=a_ub, b_ub=np.zeros(len(rows)),
                  A_eq=[[1.0] * m_cnt + [0.0]], b_eq=[1.0],
                  bounds=[(0.0, None)] * m_cnt + [(None, None)], method="highs")
    assert res.success, res.message
    return float(res.x[m_cnt])


def convex_vertex_lp_value(c, a, b):
    """Reference convex game value: for a fixed ordered pair of A-copies
    the payoff is affine in the coloring, so the adversary's {0,1}-valued
    colorings (all 2^n of them) suffice, one LP row per (coloring, pair)."""
    domain, copies, slots, pairs = _convex_game(c, a, b)
    rows = {tuple(bits[slot[j1]] - bits[slot[j2]] for slot in slots)
            for bits in itertools.product((0, 1), repeat=len(domain))
            for j1, j2 in pairs}
    rows.discard((0,) * len(copies))
    return _min_max_lp(sorted(rows), len(copies)) if rows else 0.0


def convex_minimax_oracle(c, a, b):
    """Exhaustive {0,1}-coloring minimax with the adversary moving first:
    for every {0,1}-coloring, the best-response LP over combinations,
    maximized over colorings.  This is a lower bound for the game value
    (where one combination must handle every coloring); the two coincide
    on instances whose optimal combination equalizes all colorings, e.g.
    point colorings of pure sets."""
    domain, copies, slots, pairs = _convex_game(c, a, b)
    if not copies or not pairs:
        return 0.0
    return max(_min_max_lp([[bits[slot[j1]] - bits[slot[j2]] for slot in slots]
                            for j1, j2 in pairs], len(copies))
               for bits in itertools.product((0, 1), repeat=len(domain)))


def extensions_oracle(spec, parent):
    """Every age member obtained from parent by adding vertex n, one per
    completion of the tuples touching the new vertex: binary pairs with
    an old vertex (in the states the axiom flags allow), then the binary
    loops at the new vertex, then every other tuple through it."""
    sig = spec.signature
    n = parent.size
    m = n + 1
    flags = spec.axiom_flags()
    free_binary, free_diag, free_other = [], [], []
    for si, (_, arity) in enumerate(sig.symbols):
        if arity == 2:
            free_binary.extend((si, (u, n)) for u in range(n))
            free_diag.append(si)
        else:
            free_other.extend((si, t) for t in itertools.product(range(m), repeat=arity)
                              if n in t)
    out = []

    def rec_other(idx, rels):
        if idx == len(free_other):
            s = Structure(sig, m, tuple(tuple(sorted(r)) for r in rels))
            if member(spec, s):
                out.append(s)
            return
        si, t = free_other[idx]
        rec_other(idx + 1, rels)
        rels[si].add(t)
        rec_other(idx + 1, rels)
        rels[si].remove(t)

    def rec_diag(idx, rels):
        if idx == len(free_diag):
            rec_other(0, rels)
            return
        si = free_diag[idx]
        rec_diag(idx + 1, rels)
        if "irreflexive" not in flags[si]:
            rels[si].add((n, n))
            rec_diag(idx + 1, rels)
            rels[si].remove((n, n))

    def rec_binary(idx, rels):
        if idx == len(free_binary):
            rec_diag(0, rels)
            return
        si, (u, v) = free_binary[idx]
        for fwd, bwd in _pair_states(flags[si]):
            added = [t for t, on in (((u, v), fwd), ((v, u), bwd)) if on]
            rels[si].update(added)
            rec_binary(idx + 1, rels)
            rels[si].difference_update(added)

    rec_binary(0, [set(t) for t in parent.relations])
    return out


def enumerate_structures_oracle(spec, n):
    """Orderly generation over `extensions_oracle`: a canonical extension
    is kept when deleting its canonically-last vertex returns to the
    parent; one representative per type, in canonical-code order."""
    level = _single_vertex_members(spec)
    for _ in range(n - 1):
        found = {}
        for parent in level:
            parent_code = canonical_form(parent)
            for cand in extensions_oracle(spec, parent):
                code, perm = canonical_labeling(cand)
                vstar = perm.index(cand.size - 1)
                rest = [v for v in range(cand.size) if v != vstar]
                if canonical_form(induced_substructure(cand, rest)) == parent_code:
                    found[code] = relabel(cand, perm)
        level = [found[c] for c in sorted(found)]
    return level


def place_part_oracle(host, part, spec, constraint=None, max_size=None, *, budget):
    """Oracle for `place_part` under a constraint that only pins part
    vertices: the same search, generating every completion and then
    keeping those that pass `spec.member`."""
    sig = part.signature
    if host is None:
        n0 = 0
        host_rels: list[set] = [set() for _ in sig.symbols]
    else:
        n0 = host.size
        host_rels = [set(t) for t in host.relations]
    forced = constraint.pinned if constraint is not None else {}
    flags_by_symbol = (spec.axiom_flags() if spec is not None
                       else [frozenset()] * len(sig.symbols))

    p = part.size
    sigma = [-1] * p
    taken: set[int] = set()
    part_sets = part.rel_sets

    def assignment_ok(k: int, w: int) -> bool:
        # relations among already-assigned part vertices whose images are
        # all pre-existing; tuples touching a fresh image get forced later
        assigned = sorted(j for j in range(p) if sigma[j] >= 0 or j == k)
        for si, ((_, arity), tset) in enumerate(zip(sig.symbols, part_sets)):
            for t in itertools.product(assigned, repeat=arity):
                if k not in t:
                    continue
                img = tuple((sigma[j] if j != k else w) for j in t)
                if any(x >= n0 for x in img):
                    continue
                if (img in host_rels[si]) != (t in tset):
                    return False
        return True

    def candidates(k: int, m: int):
        if k in forced:
            w = forced[k]
            if w < n0 and w not in taken:
                yield w
            return
        if max_size is None or m < max_size:
            yield m  # fresh vertex first
        for w in range(m):
            if w not in taken:
                yield w

    def completions(m: int):
        fresh = set(range(n0, m))
        image = set(sigma)
        base_rels = [set(r) for r in host_rels]
        for si, tuples in enumerate(part.relations):
            for t in tuples:
                img = tuple(sigma[x] for x in t)
                if any(x in fresh for x in img):
                    base_rels[si].add(img)
        free_binary: list[tuple[int, tuple[int, int]]] = []
        free_other: list[tuple[int, tuple[int, ...]]] = []
        for si, (_, arity) in enumerate(sig.symbols):
            if arity == 2:
                seen_pairs = set()
                for f in sorted(fresh):
                    for u in range(m):
                        if u == f:
                            continue
                        pair = (min(f, u), max(f, u))
                        if pair in seen_pairs:
                            continue
                        seen_pairs.add(pair)
                        if f in image and u in image:
                            continue  # inside the part image: forced
                        free_binary.append((si, pair))
            else:
                for t in itertools.product(range(m), repeat=arity):
                    if not any(x in fresh for x in t):
                        continue
                    if all(x in image for x in t):
                        continue
                    free_other.append((si, t))
        free_binary.sort()
        free_other.sort()
        state_menus = [_pair_states(flags_by_symbol[si]) for si, _ in free_binary]

        def rec_other(idx: int, rels):
            budget.spend()
            if idx == len(free_other):
                yield Structure._trusted(sig, m, tuple(tuple(sorted(r)) for r in rels))
                return
            si, t = free_other[idx]
            yield from rec_other(idx + 1, rels)  # absent first
            rels[si].add(t)
            yield from rec_other(idx + 1, rels)
            rels[si].remove(t)

        def rec_binary(idx: int, rels):
            budget.spend()
            if idx == len(free_binary):
                yield from rec_other(0, rels)
                return
            si, (x, y) = free_binary[idx]
            for fwd, bwd in state_menus[idx]:
                added = []
                if fwd:
                    rels[si].add((x, y))
                    added.append((x, y))
                if bwd:
                    rels[si].add((y, x))
                    added.append((y, x))
                yield from rec_binary(idx + 1, rels)
                for t in added:
                    rels[si].remove(t)

        yield from rec_binary(0, base_rels)

    def assign(k: int, m: int):
        budget.spend()
        if k == p:
            for cand in completions(m):
                if spec is None or spec.member(cand):
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


# ---------------------------------------------------------------------------
# canonical search without automorphism pruning: the search as it was before
# cells split in place and subtrees repeated under a found automorphism were
# skipped; it encodes every leaf of the tree


def occurrence_table_oracle(s: Structure):
    """`_occurrence_table` without the fast path for distinct entries:
    each vertex of a tuple with its positions found by a scan."""
    occ = [[] for _ in range(s.size)]
    for si, tuples in enumerate(s.relations):
        for t in tuples:
            for v in set(t):
                positions = tuple(i for i, x in enumerate(t) if x == v)
                occ[v].append((si, positions, t))
    return occ


def _refine_oracle(n: int, occurrences, colors: list[int]) -> list[int]:
    """Stable ordered-partition refinement.

    occurrences[v] lists (symbol, positions-of-v, tuple) for every
    relation tuple containing v; the tuple's color profile is recomputed
    each round.  Cell order is derived from sorted invariant keys, which
    are label-free, so the ordering is isomorphism-invariant.
    """
    while True:
        keys = []
        for v in range(n):
            inv = sorted(
                (si, occ, tuple(colors[x] for x in t)) for si, occ, t in occurrences[v]
            )
            keys.append((colors[v], inv))
        order = sorted(set(map(_freeze_key, keys)))
        rank = {k: i for i, k in enumerate(order)}
        new_colors = [rank[_freeze_key(k)] for k in keys]
        if len(order) == len(set(colors)):
            return new_colors
        colors = new_colors


def _freeze_key(key):
    c, inv = key
    return (c, tuple(inv))


def _cells_of_oracle(colors: list[int]) -> list[list[int]]:
    cells: dict[int, list[int]] = {}
    for v, c in enumerate(colors):
        cells.setdefault(c, []).append(v)
    return [cells[c] for c in sorted(cells)]


def canonical_search_oracle(s: Structure, sig_key: str):
    occurrences = occurrence_table_oracle(s)
    n = s.size
    best: list = [None, None]  # encoding, perm

    def leaf(colors):
        perm = tuple(colors)
        enc = _encode_labeled(
            sig_key, n,
            [[tuple(perm[x] for x in t) for t in tuples] for tuples in s.relations])
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, perm

    def descend(colors):
        cells = _cells_of_oracle(colors)
        if all(len(c) == 1 for c in cells):
            leaf(colors)
            return
        if _product_complete(s, colors):
            # any discrete refinement of the cell order gives the same code
            flat = [0] * n
            label = 0
            for cell in cells:
                for v in cell:
                    flat[v] = label
                    label += 1
            leaf(flat)
            return
        target = next(c for c in cells if len(c) > 1)
        for v in target:
            branched = [(c, 1) for c in colors]
            branched[v] = (colors[v], 0)
            order = sorted(set(branched))
            rank = {k: i for i, k in enumerate(order)}
            descend(_refine_oracle(n, occurrences, [rank[k] for k in branched]))

    descend(_refine_oracle(n, occurrences, [0] * n))
    return best[0], best[1]


# ---------------------------------------------------------------------------
# unstable-sequence search that filters after placing: every placement is
# built unconstrained and kept only when its pair pattern codes are the
# required ones


def search_pair_oracle(spec, a, z, depth, tau_lt, tau_gt, max_host, budget):
    """Oracle for `stability._search_pair` with the pattern codes tau_lt
    and tau_gt: grow a host placing a_1, z_1, a_2, z_2, ..., pruning on
    the pair constraints as soon as a placement determines them."""

    def rec(host, a_maps, z_maps):
        if len(z_maps) == depth:
            return host, a_maps, z_maps
        placing_a = len(a_maps) == len(z_maps)
        part = a if placing_a else z
        for h2, sigma in place_part(host, part, spec, None, max_host, budget=budget):
            if placing_a:
                # new a_j against all earlier z_k (k < j): pattern tau_gt
                if any(pair_pattern_code(h2, sigma, zm) != tau_gt for zm in z_maps):
                    continue
                res = rec(h2, a_maps + (sigma,), z_maps)
            else:
                # new z_j against all earlier a_m (m < j): tau_lt; the
                # diagonal partner a_j (last placed) is unconstrained
                if any(pair_pattern_code(h2, am, sigma) != tau_lt for am in a_maps[:-1]):
                    continue
                res = rec(h2, a_maps, z_maps + (sigma,))
            if res is not None:
                return res
        return None

    return rec(None, (), ())


def marked_structure(u, maps):
    """u with every part coordinate recorded as a distinguished unary mark:
    its canonical form is the pattern code that `pattern_of` and
    `pair_pattern_code` compute without a canonical search."""
    rels = list(u.relations)
    for m in maps:
        for v in m:
            rels.append(((v,),))
    return Structure(marked_signature(u.signature, tuple(len(m) for m in maps)), u.size,
                     tuple(rels))


def free_join(parts):
    """Disjoint union of the parts with no cross tuples, plus the part maps."""
    sig = parts[0].signature
    offset = 0
    rels = [[] for _ in sig.symbols]
    maps = []
    for s in parts:
        maps.append(tuple(range(offset, offset + s.size)))
        for si, tuples in enumerate(s.relations):
            rels[si].extend(tuple(x + offset for x in t) for t in tuples)
        offset += s.size
    return Structure(sig, offset, tuple(tuple(r) for r in rels)), tuple(maps)


def truncate_witness(w: UnstableWitness, depth: int) -> UnstableWitness:
    """The witness restricted to its first `depth` parts."""
    return UnstableWitness(depth, w.host, w.a_maps[:depth], w.z_maps[:depth],
                           w.tau_lt, w.tau_gt)


# ---------------------------------------------------------------------------
# the classical arrow's search with the lex-leader prefix test rescanning
# every position permutation of Aut(C) from position 0 at every node


def counterexample_search_oracle(c, domain, copies, k, budget):
    """(least counterexample or None, number of distinct position
    permutations of Aut(C), identity included) for the classical arrow
    over the positions `domain` and the copies of B as position sets
    `copies`, spending one node of `budget` per search node."""
    images = [operator.itemgetter(*m) for m in domain]
    # keyed by each getter's value on the identity: a tuple, or for a
    # one-vertex A the image of that vertex alone
    index = {image(range(c.size)): i for i, image in enumerate(images)}
    identity = tuple(range(len(domain)))
    perms = set()
    for g in automorphisms(c, budget):
        perm = tuple([index[image(g)] for image in images])
        if perm != identity:
            perms.add(perm)
    aut_perms = sorted(perms)

    n_pos = len(domain)
    copies_at = [[] for _ in range(n_pos)]
    for ci, positions in enumerate(copies):
        for p in positions:
            copies_at[p].append(ci)
    copy_size = [len(ps) for ps in copies]
    assigned_count = [0] * len(copies)
    colors_seen = [set() for _ in copies]
    chi = [-1] * n_pos

    def violates(p, col) -> bool:
        for ci in copies_at[p]:
            if assigned_count[ci] == copy_size[ci] - 1 and colors_seen[ci] <= {col}:
                if all(chi[q] == col or q == p for q in copies[ci]):
                    return True
        return False

    def lex_ok_prefix() -> bool:
        # if on the assigned prefix chi is already lexicographically above
        # some automorphic image, no completion is the orbit minimum
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
            if not any(chi[q] == col for q in copies[ci]):
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

    return rec(0, 0), len(aut_perms) + 1


# ---------------------------------------------------------------------------
# the copies of B as position sets, one tuple built per (copy of B, copy of
# A in B) pair before deduplicating


def copy_position_sets_oracle(domain, emb_ab, copies_raw):
    index = {m: i for i, m in enumerate(domain)}
    seen = set()
    out = []
    for bm in copies_raw:
        positions = tuple(sorted({index[tuple(bm[x] for x in am)] for am in emb_ab}))
        if positions not in seen:
            seen.add(positions)
            out.append(positions)
    return out


# ---------------------------------------------------------------------------
# the pattern-constant arrows deduplicating the joint embeddings by pattern
# code, then checking one per pattern in code order


def pattern_arrow_oracle(operation, c, a, b, zs, spec, budget, extra):
    """Oracle for `arrows._pattern_arrow`: the certificate of the arrow
    checked on one joint embedding per pattern code, in code order; a
    fail names the first pattern that fails."""
    emb_bc = embedding_maps(b, c)
    if not emb_bc:
        return ArrowCertificate(operation, "fails", degenerate=True,
                                reason="no copy of B in C", payload=extra)
    emb_ab = embedding_maps(a, b)
    if not emb_ab:
        return ArrowCertificate(operation, "holds", degenerate=True,
                                reason="A does not embed in B; constancy is vacuous",
                                payload=extra)
    found = {}
    for u, maps in iter_joint_embeddings(spec, c, zs, budget=budget):
        found.setdefault(pattern_of(JointEmbedding(u, maps)), (u, maps))
    for code in sorted(found):
        u, (c_map, *z_maps) = found[code]
        if _pattern_constant_b(u, c_map, z_maps, emb_bc, emb_ab) is None:
            offending = {"u": serialize_structure(u), "c_map": list(c_map),
                         "z_maps": [list(m) for m in z_maps]}
            return ArrowCertificate(operation, "fails",
                                    payload={"offending": offending, **extra})
    return ArrowCertificate(operation, "holds",
                            payload={"joint_patterns_checked": len(found), **extra})


# ---------------------------------------------------------------------------
# amalgamation probes searching a completion for every instance


def amalgamation_probe_oracle(spec, which, bound, budget):
    """Oracle for `ages.amalgamation_probe`: the report of a walk that
    searches every pair (B, C), or every instance (A, B, C, f, g), in
    the probe's order and stops at the first without a completion."""
    reps = enumerate_up_to(spec, bound, budget)
    checked = 0
    if which == "joint-embedding":
        for b in reps:
            for c in reps:
                checked += 1
                if next(place_part(b, c, spec, max_size=b.size + c.size,
                                   budget=budget), None) is None:
                    inst = AmalgamationInstance(None, b, c, (), ())
                    return AmalgamationReport(which, None, inst, instances_checked=checked)
        return AmalgamationReport(which, bound, None, instances_checked=checked)
    for a in reps:
        for b in reps:
            for c in reps:
                for f in embedding_maps(a, b):
                    for g in embedding_maps(a, c):
                        checked += 1
                        inst = AmalgamationInstance(a, b, c, f, g)
                        if _find_completion(spec, inst, which == "free-amalgamation",
                                            budget) is None:
                            return AmalgamationReport(which, None, inst,
                                                      instances_checked=checked)
    return AmalgamationReport(which, bound, None, instances_checked=checked)
