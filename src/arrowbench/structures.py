"""Finite relational structures over vertex sets 0..n-1.

Provides the five base operations everything else is built on: parsing /
serialization of the structure file format, induced substructures,
embedding tests, embedding enumeration, and canonical forms.  Canonical
forms are computed by ordered-partition refinement with backtracking
(individualization-refinement), tie-broken by the lexicographically
least relation encoding, so two structures get equal codes exactly when
they are isomorphic.

All values are immutable after construction and safe to share across
threads; every operation is a pure function.
"""

from __future__ import annotations

import functools
import re
from dataclasses import dataclass

from arrowbench import kernels
from arrowbench.errors import InputError, ParseError, SignatureMismatch

# A CanonicalCode is an opaque byte string; equal codes <=> isomorphic
# structures (within one signature).
CanonicalCode = bytes

_NAME_RE = re.compile(r"[A-Za-z_@][A-Za-z0-9_@.\-]*")
_TUPLE_RE = re.compile(r"\((\d+(?:,\d+)*)\)")


@dataclass(frozen=True)
class Signature:
    """An ordered list of relation symbols with arities >= 1."""

    symbols: tuple[tuple[str, int], ...]

    def __post_init__(self):
        seen = set()
        for name, arity in self.symbols:
            if not _NAME_RE.fullmatch(name):
                raise InputError(f"invalid relation symbol name {name!r}")
            if name in ("signature", "size"):
                raise InputError(f"{name!r} is reserved by the file format")
            if arity < 1:
                raise InputError(f"arity of {name} must be >= 1, got {arity}")
            if name in seen:
                raise InputError(f"duplicate relation symbol {name!r}")
            seen.add(name)

    def index(self, name: str) -> int:
        for i, (n, _) in enumerate(self.symbols):
            if n == name:
                return i
        raise InputError(f"unknown relation symbol {name!r}")

    def arity(self, name: str) -> int:
        return self.symbols[self.index(name)][1]

    @functools.cached_property
    def max_arity(self) -> int:
        return max((a for _, a in self.symbols), default=0)

    def key(self) -> str:
        return " ".join(f"{n}/{a}" for n, a in self.symbols)


@dataclass(frozen=True)
class Structure:
    """A finite relational structure on vertices 0..size-1.

    relations[i] holds the tuple set of signature symbol i, stored as a
    sorted tuple of tuples for deterministic iteration.
    """

    signature: Signature
    size: int
    relations: tuple[tuple[tuple[int, ...], ...], ...]

    def __post_init__(self):
        if self.size < 1:
            raise InputError("structures are non-empty: size must be >= 1")
        if len(self.relations) != len(self.signature.symbols):
            raise InputError("relation list does not match signature")
        for (name, arity), tuples in zip(self.signature.symbols, self.relations):
            for t in tuples:
                if len(t) != arity:
                    raise InputError(f"tuple {t} has wrong arity for {name}/{arity}")
                for v in t:
                    if not 0 <= v < self.size:
                        raise InputError(f"vertex {v} out of range in relation {name}")
        # normalize: sorted, deduplicated
        norm = tuple(tuple(sorted(set(tuples))) for tuples in self.relations)
        object.__setattr__(self, "relations", norm)

    @classmethod
    def make(cls, signature: Signature, size: int, rels: dict[str, object]) -> "Structure":
        """Build from a {symbol: iterable of tuples} mapping; missing symbols are empty."""
        table = []
        for name, _ in signature.symbols:
            tuples = rels.get(name, ())
            table.append(tuple(tuple(t) for t in tuples))
        unknown = set(rels) - {n for n, _ in signature.symbols}
        if unknown:
            raise InputError(f"relations for symbols not in signature: {sorted(unknown)}")
        return cls(signature, size, tuple(table))

    @classmethod
    def _trusted(cls, signature: Signature, size: int, relations) -> "Structure":
        """Internal constructor that skips validation: the caller
        guarantees relations already sorted, deduplicated and in range.
        Public inputs go through Structure(...) or parse_structure."""
        s = object.__new__(cls)
        object.__setattr__(s, "signature", signature)
        object.__setattr__(s, "size", size)
        object.__setattr__(s, "relations", relations)
        return s

    def rel(self, name: str) -> tuple[tuple[int, ...], ...]:
        return self.relations[self.signature.index(name)]

    @functools.cached_property
    def rel_sets(self) -> tuple[frozenset, ...]:
        return tuple(frozenset(t) for t in self.relations)

    @functools.cached_property
    def vertices(self) -> range:
        return range(self.size)


# ---------------------------------------------------------------------------
# structure file format


def read_text(path: str) -> str:
    """The text of a UTF-8 input file; InputError naming an unreadable path."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            return fh.read()
    except OSError as e:
        raise InputError(f"cannot read {path}: {e}") from None


def parse_structure(text: str) -> Structure:
    """Parse the line-oriented structure file format.

    Grammar (UTF-8, one item per line, '#' starts a comment line):
        signature: name/arity name/arity ...
        size: n
        name: (v,...) (v,...) ...      # one optional line per symbol
    """
    signature: Signature | None = None
    size: int | None = None
    rel_lines: list[tuple[int, str, str]] = []

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        if ":" not in line:
            raise ParseError(f"expected 'key: value', got {line!r}", line=lineno)
        key, _, rest = line.partition(":")
        key = key.strip()
        rest = rest.strip()
        if key == "signature":
            if signature is not None:
                raise ParseError("duplicate signature line", line=lineno)
            symbols = []
            for tok in rest.split():
                if "/" not in tok:
                    raise ParseError(f"signature token {tok!r} must be name/arity", line=lineno,
                                     column=raw.index(tok) + 1)
                name, _, ar = tok.partition("/")
                if not ar.isdigit():
                    raise ParseError(f"arity in {tok!r} must be an integer", line=lineno)
                symbols.append((name, int(ar)))
            try:
                signature = Signature(tuple(symbols))
            except InputError as e:
                raise ParseError(str(e), line=lineno) from None
        elif key == "size":
            if size is not None:
                raise ParseError("duplicate size line", line=lineno)
            if not rest.isdigit():
                raise ParseError(f"size must be a non-negative integer, got {rest!r}", line=lineno)
            size = int(rest)
            if size == 0:
                raise ParseError("size 0 rejected: structures are non-empty", line=lineno)
        else:
            if signature is None:
                raise ParseError("relation line before signature line", line=lineno)
            rel_lines.append((lineno, key, rest))

    if signature is None:
        raise ParseError("missing signature line")
    if size is None:
        raise ParseError("missing size line")

    rels: dict[str, list[tuple[int, ...]]] = {}
    for lineno, name, rest in rel_lines:
        try:
            sym_index = signature.index(name)
        except InputError:
            raise ParseError(f"relation line for unknown symbol {name!r}", line=lineno) from None
        if name in rels:
            raise ParseError(f"duplicate relation line for {name!r}", line=lineno)
        arity = signature.symbols[sym_index][1]
        tuples = []
        col = 0
        for tok in rest.split():
            col = rest.index(tok, col) + 1
            m = _TUPLE_RE.fullmatch(tok)
            if not m:
                raise ParseError(f"bad tuple token {tok!r}", line=lineno, column=col)
            entries = tuple(int(x) for x in m.group(1).split(","))
            if len(entries) != arity:
                raise ParseError(
                    f"tuple {tok} has {len(entries)} entries, {name} has arity {arity}",
                    line=lineno, column=col)
            for v in entries:
                if v >= size:
                    raise ParseError(f"vertex {v} out of range (size {size})",
                                     line=lineno, column=col)
            tuples.append(entries)
        rels[name] = tuples

    return Structure.make(signature, size, rels)


def serialize_structure(s: Structure) -> str:
    """Normalized textual form; parse(serialize(s)) == s bit-exactly."""
    lines = ["signature: " + " ".join(f"{n}/{a}" for n, a in s.signature.symbols)
             if s.signature.symbols else "signature:"]
    lines.append(f"size: {s.size}")
    for (name, _), tuples in zip(s.signature.symbols, s.relations):
        body = " ".join("(" + ",".join(str(v) for v in t) + ")" for t in tuples)
        lines.append(f"{name}: {body}" if body else f"{name}:")
    return "\n".join(lines) + "\n"


# ---------------------------------------------------------------------------
# substructures, embeddings


def induced_substructure(s: Structure, vertices) -> Structure:
    """The substructure induced on the given (nonempty) vertex subset.

    Vertices are re-indexed in increasing order, so the inclusion map is
    the sorted vertex list.
    """
    vs = sorted(set(vertices))
    if not vs:
        raise InputError("empty vertex set rejected")
    for v in vs:
        if not 0 <= v < s.size:
            raise InputError(f"vertex {v} out of range")
    rank = {v: i for i, v in enumerate(vs)}
    keep = set(vs)
    rels = []
    for tuples in s.relations:
        rels.append(tuple(tuple(rank[x] for x in t) for t in tuples if all(x in keep for x in t)))
    return Structure(s.signature, len(vs), tuple(rels))


def relabel(s: Structure, perm) -> Structure:
    """Apply a vertex permutation (perm[v] = new label of v)."""
    perm = tuple(perm)
    if sorted(perm) != list(range(s.size)):
        raise InputError("relabeling must be a permutation of 0..size-1")
    rels = tuple(tuple(tuple(perm[x] for x in t) for t in tuples) for tuples in s.relations)
    return Structure(s.signature, s.size, rels)


def is_embedding(f, a: Structure, b: Structure) -> bool:
    """True iff f (total on a's vertices) is injective and preserves and
    reflects every relation.  Returns False on any violation, including
    out-of-range images."""
    if a.signature != b.signature:
        return False
    f = tuple(f)
    if len(f) != a.size:
        return False
    if any(not (0 <= v < b.size) for v in f):
        return False
    if len(set(f)) != a.size:
        return False
    image = set(f)
    inv = {v: i for i, v in enumerate(f)}
    for tuples_a, set_a, set_b in zip(a.relations, a.rel_sets, b.rel_sets):
        for t in tuples_a:
            if tuple(f[x] for x in t) not in set_b:
                return False
        for t in set_b:
            if all(x in image for x in t):
                if tuple(inv[x] for x in t) not in set_a:
                    return False
    return True


def _binary_payload(s: Structure):
    """Labels vector (unary symbols folded into a bitmask) and flattened
    adjacency matrices for the binary symbols, for the fast kernel."""
    labels = [0] * s.size
    adj_blocks = []
    unary_index = 0
    for (_, arity), tuples in zip(s.signature.symbols, s.relations):
        if arity == 1:
            bit = 1 << unary_index
            unary_index += 1
            for (v,) in tuples:
                labels[v] |= bit
        elif arity == 2:
            m = bytearray(s.size * s.size)
            for (u, v) in tuples:
                m[u * s.size + v] = 1
            adj_blocks.append(bytes(m))
    return tuple(labels), len(adj_blocks), b"".join(adj_blocks)


# Sources recur (parts, forbidden structures); most targets are placed
# hosts searched once, so only the source's payload is cached.
_source_payload = functools.lru_cache(maxsize=1024)(_binary_payload)


@functools.lru_cache(maxsize=8192)
def _generic_plan(a: Structure):
    """Per-level membership checks for the generic kernel: for source
    vertex i, every tuple over 0..i containing i with its required
    membership bit."""
    import itertools

    levels = []
    for i in range(a.size):
        checks = []
        for si, ((_, arity), tset) in enumerate(zip(a.signature.symbols, a.rel_sets)):
            for t in itertools.product(range(i + 1), repeat=arity):
                if i in t:
                    checks.append((si, t, t in tset))
            # order: forced-present first is irrelevant; keep generation order
        levels.append(tuple(checks))
    return tuple(levels)


def _checking_deadline(vertices, budget):
    """`vertices` one at a time, each after a check of `budget`'s deadline."""
    for v in vertices:
        budget.check_deadline()
        yield v


def embedding_maps(a: Structure, b: Structure, first_only: bool = False,
                   roots=None, deadline=None) -> list[tuple[int, ...]]:
    """All embeddings of a into b as map tuples, lexicographic order; with
    first_only, the first one only; with roots, only those sending vertex
    0 into roots.  With deadline, a `unions.Budget`, its deadline is
    checked once per image of vertex 0 that the search tries."""
    if a.signature != b.signature:
        raise SignatureMismatch(
            f"signature mismatch: {a.signature.key()!r} vs {b.signature.key()!r}")
    if a.size > b.size:
        return []
    if roots is not None:
        roots = sorted(roots)
    if deadline is not None:
        roots = _checking_deadline(range(b.size) if roots is None else roots, deadline)
    if a.signature.max_arity <= 2:
        labels_a, n_adj, a_flat = _source_payload(a)
        labels_b, _, b_flat = _binary_payload(b)
        return kernels.embeddings_binary(
            a.size, b.size, labels_a, labels_b, n_adj, a_flat, b_flat, first_only, roots)
    return kernels.embeddings_generic(
        a.size, b.size, _generic_plan(a), b.rel_sets, first_only, roots)


def has_embedding(a: Structure, b: Structure) -> bool:
    return bool(embedding_maps(a, b, first_only=True))


@functools.lru_cache(maxsize=256)
def _vertex_transitive(a: Structure) -> bool:
    """True iff Aut(a) moves vertex 0 onto every vertex."""
    return all(embedding_maps(a, a, first_only=True, roots=(v,)) for v in range(1, a.size))


def has_embedding_through(a: Structure, b: Structure, roots) -> bool:
    """has_embedding(a, b), for a `b` in which every copy of `a` uses a
    vertex of `roots`.  If Aut(a) is vertex-transitive, an automorphism
    moves such a vertex onto source vertex 0, so vertex 0 tries only
    roots; otherwise the plain search runs."""
    return bool(embedding_maps(a, b, first_only=True,
                               roots=roots if _vertex_transitive(a) else None))


# ---------------------------------------------------------------------------
# canonical forms


def _encode_labeled(sig_key: str, size: int, relations) -> bytes:
    parts = [sig_key, str(size)]
    for tuples in relations:
        parts.append(" ".join(",".join(str(v) for v in t) for t in sorted(tuples)))
    return "|".join(parts).encode()


def _refine(n: int, occurrences, colors: list[int]) -> list[int]:
    """Stable ordered-partition refinement.

    occurrences[v] lists (symbol, positions-of-v, tuple) for every
    relation tuple containing v; the tuple's color profile is recomputed
    each round.  Colors are dense ranks and cells only split in place,
    keeping their order: a singleton cell takes the next rank as it is,
    and the vertices of a larger cell are ranked by their sorted
    invariants.  Invariants are label-free, so the ordering is
    isomorphism-invariant, and the result is the ordered partition that
    ranking every vertex by (color, invariant) gives.
    """
    while True:
        new_colors = [0] * n
        rank = 0
        get = colors.__getitem__
        cells = _cells_of(colors)
        for cell in cells:
            if len(cell) == 1:
                new_colors[cell[0]] = rank
                rank += 1
                continue
            keys = [tuple(sorted([(si, occ, tuple(map(get, t))) for si, occ, t in occurrences[v]]))
                    for v in cell]
            order = sorted(set(keys))
            at = {k: rank + i for i, k in enumerate(order)}
            for v, k in zip(cell, keys):
                new_colors[v] = at[k]
            rank += len(order)
        if rank == len(cells):  # no cell split
            return new_colors
        colors = new_colors


def in_last_root_cell(s: Structure, v: int) -> bool:
    """True iff vertex v lies in the last cell of the root refinement
    (`_refine` on the unit colouring).  That cell is label-free, so an
    isomorphism maps it onto the other structure's last root cell.

    Cells only split in place, so the last cell lies inside the last
    cell of the first round, whose key for the unit colouring is the
    vertex's sorted (symbol, positions) occurrences: most vertices fail
    there, before the full refinement runs."""
    occurrences = _occurrence_table(s)
    keys = [sorted([(si, occ) for si, occ, _ in row]) for row in occurrences]
    if keys[v] != max(keys):
        return False
    colors = _refine(s.size, occurrences, [0] * s.size)
    return colors[v] == max(colors)


def _occurrence_table(s: Structure):
    occ = [[] for _ in range(s.size)]
    for si, tuples in enumerate(s.relations):
        for t in tuples:
            if len(t) == 2 and t[0] != t[1] or len(set(t)) == len(t):  # distinct entries
                for i, v in enumerate(t):
                    occ[v].append((si, (i,), t))
                continue
            for v in set(t):
                positions = tuple(i for i, x in enumerate(t) if x == v)
                occ[v].append((si, positions, t))
    return occ


def _cells_of(colors: list[int]) -> list[list[int]]:
    """The cells of a coloring by dense ranks 0..k-1, in color order."""
    cells: list[list[int]] = [[] for _ in range(max(colors) + 1)]
    for v, c in enumerate(colors):
        cells[c].append(v)
    return cells


def _product_complete(s: Structure, colors: list[int]) -> bool:
    """True when every relation is a union of complete color-class
    products, in which case any within-cell vertex order yields the same
    canonical encoding and the branching phase can be skipped."""
    sizes: dict[int, int] = {}
    for c in colors:
        sizes[c] = sizes.get(c, 0) + 1
    for tuples in s.relations:
        by_profile: dict[tuple, int] = {}
        for t in tuples:
            prof = tuple(colors[x] for x in t)
            by_profile[prof] = by_profile.get(prof, 0) + 1
        for prof, count in by_profile.items():
            # `expect` counts every tuple of the profile, repeated entries
            # included, so an irreflexive relation inside a cell of two or
            # more vertices is never complete (K_n still branches)
            expect = 1
            for c in prof:
                expect *= sizes[c]
            if count != expect:
                return False
    return True


def _canonical_search(s: Structure, sig_key: str, budget=None):
    """Least leaf encoding of the individualization-refinement tree, and
    the first leaf (in depth-first order) that realizes it.  With budget,
    a `unions.Budget`, its deadline is checked at each leaf.

    A leaf whose encoding equals the best one gives an automorphism
    best_perm^-1 . perm.  At a node reached by individualizing `path`, a
    vertex of the target cell is skipped when an automorphism fixing
    every vertex of `path` maps an explored vertex onto it: that
    automorphism maps the explored subtree onto the skipped one and keeps
    leaf encodings, so the skipped subtree only repeats leaves already
    met, and the first minimal leaf is never skipped.
    """
    occurrences = _occurrence_table(s)
    n = s.size
    best: list = [None, None]  # encoding, perm
    automorphisms: list[tuple[int, ...]] = []

    def leaf(perm):
        if budget is not None:
            budget.check_deadline()
        enc = _encode_labeled(
            sig_key, n,
            [[tuple(perm[x] for x in t) for t in tuples] for tuples in s.relations])
        if best[0] is None or enc < best[0]:
            best[0], best[1] = enc, perm
        elif enc == best[0]:
            back = [0] * n
            for v, label in enumerate(best[1]):
                back[label] = v
            automorphisms.append(tuple(back[label] for label in perm))

    def descend(colors, path):
        cells = _cells_of(colors)
        if len(cells) == n:
            leaf(tuple(colors))
            return
        if _product_complete(s, colors):
            # any discrete refinement of the cell order gives the same code
            flat = [0] * n
            label = 0
            for cell in cells:
                for v in cell:
                    flat[v] = label
                    label += 1
            leaf(tuple(flat))
            return
        target = next(c for c in cells if len(c) > 1)
        c = colors[target[0]]
        orbit = list(range(n))  # union-find over automorphisms fixing path
        folded = 0
        explored = []

        def find(v):
            while orbit[v] != v:
                orbit[v] = orbit[orbit[v]]
                v = orbit[v]
            return v

        for v in target:
            if explored:
                for g in automorphisms[folded:]:
                    if all(g[p] == p for p in path):
                        for x, y in enumerate(g):
                            orbit[find(x)] = find(y)
                folded = len(automorphisms)
                root = find(v)
                if any(find(w) == root for w in explored):
                    continue
            explored.append(v)
            branched = [x if x < c else x + 1 for x in colors]
            branched[v] = c
            descend(_refine(n, occurrences, branched), path + (v,))

    descend(_refine(n, occurrences, [0] * n), ())
    return best[0], best[1]


def canonical_labeling(s: Structure, budget=None) -> tuple[CanonicalCode, tuple[int, ...]]:
    """Canonical code plus one labeling realizing it (perm[v] = new label);
    with budget, a `unions.Budget`, its deadline is checked at each leaf
    of the search."""
    return _canonical_search(s, s.signature.key(), budget)


def canonical_form(s: Structure) -> CanonicalCode:
    """Opaque code equal across structures iff they are isomorphic
    (within one signature); stable across runs."""
    return canonical_labeling(s)[0]


def code_digest(code: CanonicalCode) -> str:
    """Short stable hex digest of a canonical code, for display."""
    import hashlib

    return hashlib.sha256(code).hexdigest()[:16]
