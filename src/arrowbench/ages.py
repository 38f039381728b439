"""Hereditary families of finite structures (ages).

An age is specified by a signature, per-symbol axiom flags on the binary
symbols (irreflexive / symmetric / antisymmetric / total / transitive)
and a finite list of forbidden induced substructures.  A small built-in
catalog covers the running examples: pure sets, graphs, K_n-free graphs,
linear orders, tournaments and digraphs.

Enumeration up to isomorphism extends each canonical representative of
size n-1 by one vertex in every way the age allows and keeps one
candidate per canonical code: isomorphic candidates relabel to the same
representative, so the level's code-keyed table is the only seen-set.
A candidate is labeled only when its fresh vertex lies in its designated
cell, the last cell of the root refinement (`structures.designated_root`),
and the labeling starts from the refinement that this cell test built.
That cell reads no labels, so no type is lost: for a type G and a vertex
w of its designated cell, G - w is in the age (ages are hereditary), so
it is isomorphic to a representative P of size n-1, and the extensions
of P, which place every one-vertex member on a fresh vertex, include a
copy of G whose fresh vertex corresponds to w and so lies in the copy's
designated cell.

Before its cell test, an extension of P is skipped when its set of
tuples through the fresh vertex is an image of an earlier extension's
set under the group that P's generators generate.  These are the
automorphisms that P's own canonical search met, conjugated by its
labeling: leaf automorphisms, and a transposition and a cycle of each
cell of two or more vertices where the search stopped at a node whose
relations are unions of full products of cells.  Soundness needs only
that each generator is an automorphism of P: for g in the group,
g plus fresh -> fresh is an isomorphism from the earlier extension onto
the skipped one, which therefore has the same code and passes the
label-free cell test exactly when the earlier one did.  So each level,
every report and every node count stay as without the skip, since every
extension is still placed; generators that miss part of Aut(P) only
prune less.

Amalgamation probes are bounded searches, never claims about the whole
age: a positive report only says "no failure up to this size bound", and
the completion search is capped at |B|+|C| vertices, which the report
records rather than asserts to be complete.
"""

from __future__ import annotations

import itertools
import os
from dataclasses import dataclass

from arrowbench import groups
from arrowbench.errors import InputError, ParseError, SignatureMismatch
from arrowbench.structures import (
    Signature,
    Structure,
    canonical_form,
    canonical_labeling,
    designated_root,
    embedding_maps,
    has_embedding,
    parse_structure,
    read_text,
    relabel,
)
from arrowbench.unions import Budget, Constraint, place_part

AXIOM_FLAGS = ("irreflexive", "symmetric", "antisymmetric", "total", "transitive")


@dataclass(frozen=True)
class AgeSpec:
    """A hereditary class given by signature + axioms + forbidden substructures."""

    signature: Signature
    axioms: tuple[tuple[str, frozenset], ...] = ()
    forbidden: tuple[Structure, ...] = ()
    name: str | None = None

    def __post_init__(self):
        names = {n for n, _ in self.signature.symbols}
        for sym, flags in self.axioms:
            if sym not in names:
                raise InputError(f"axioms for unknown symbol {sym!r}")
            if self.signature.arity(sym) != 2 and flags:
                raise InputError(f"axiom flags only apply to binary symbols, not {sym!r}")
            for f in flags:
                if f not in AXIOM_FLAGS:
                    raise InputError(f"unknown axiom flag {f!r}")
            if {"symmetric", "antisymmetric", "total"} <= flags:
                raise InputError(
                    f"inconsistent flags on {sym!r}: symmetric+antisymmetric+total "
                    "is unsatisfiable on two or more vertices")
        for s in self.forbidden:
            if s.signature != self.signature:
                raise SignatureMismatch("forbidden structures must share the age signature")

    def flags_of(self, symbol: str) -> frozenset:
        for sym, flags in self.axioms:
            if sym == symbol:
                return flags
        return frozenset()

    def axiom_flags(self) -> list[frozenset]:
        """Flags aligned with signature symbol order."""
        return [self.flags_of(n) for n, _ in self.signature.symbols]

    def member(self, s: Structure) -> bool:
        return member(self, s)


def _satisfies_axioms(spec: AgeSpec, s: Structure) -> bool:
    for (name, arity), tuples in zip(s.signature.symbols, s.relations):
        if arity != 2:
            continue
        flags = spec.flags_of(name)
        if not flags:
            continue
        tset = set(tuples)
        if "irreflexive" in flags and any(u == v for u, v in tset):
            return False
        if "symmetric" in flags and any((v, u) not in tset for u, v in tset):
            return False
        if "antisymmetric" in flags and any(u != v and (v, u) in tset for u, v in tset):
            return False
        if "total" in flags:
            for u in range(s.size):
                for v in range(u + 1, s.size):
                    if (u, v) not in tset and (v, u) not in tset:
                        return False
        if "transitive" in flags:
            succ: dict[int, set] = {}
            for u, v in tset:
                succ.setdefault(u, set()).add(v)
            if any(not succ.get(v, set()) <= vs for vs in succ.values() for v in vs):
                return False
    return True


def member(spec: AgeSpec, s: Structure) -> bool:
    """True iff s satisfies all axiom flags and embeds no forbidden structure."""
    if s.signature != spec.signature:
        raise SignatureMismatch("member() needs the age signature")
    if not _satisfies_axioms(spec, s):
        return False
    for bad in spec.forbidden:
        if bad.size <= s.size and has_embedding(bad, s):
            return False
    return True


# ---------------------------------------------------------------------------
# built-in catalog


def _graph_signature() -> Signature:
    return Signature((("edge", 2),))


def complete_graph(n: int) -> Structure:
    sig = _graph_signature()
    edges = [(u, v) for u in range(n) for v in range(n) if u != v]
    return Structure.make(sig, n, {"edge": edges})


def chain(n: int) -> Structure:
    """The n-element linear order 0 < 1 < ... < n-1."""
    sig = Signature((("lt", 2),))
    return Structure.make(sig, n, {"lt": [(u, v) for u in range(n) for v in range(u + 1, n)]})


def catalog_age(name: str) -> AgeSpec:
    """Built-in ages: set, graph, graph_kfree:N, linear_order, tournament, digraph."""
    if name == "set":
        return AgeSpec(Signature(()), (), (), name="set")
    if name == "graph":
        return AgeSpec(_graph_signature(),
                       (("edge", frozenset({"irreflexive", "symmetric"})),),
                       (), name="graph")
    if name.startswith("graph_kfree:"):
        k = name.split(":", 1)[1]
        if not k.isdigit() or int(k) < 3:
            raise InputError("graph_kfree:N needs N >= 3")
        return AgeSpec(_graph_signature(),
                       (("edge", frozenset({"irreflexive", "symmetric"})),),
                       (complete_graph(int(k)),), name=name)
    if name == "linear_order":
        return AgeSpec(Signature((("lt", 2),)),
                       (("lt", frozenset({"irreflexive", "antisymmetric", "total",
                                          "transitive"})),),
                       (), name="linear_order")
    if name == "tournament":
        return AgeSpec(Signature((("arc", 2),)),
                       (("arc", frozenset({"irreflexive", "antisymmetric", "total"})),),
                       (), name="tournament")
    if name == "digraph":
        return AgeSpec(Signature((("arc", 2),)),
                       (("arc", frozenset({"irreflexive"})),),
                       (), name="digraph")
    raise InputError(f"unknown catalog age {name!r}")


def load_age(source: str) -> AgeSpec:
    """The age of an --age argument (see resolve_age)."""
    return resolve_age(source)[1]


def resolve_age(source: str) -> tuple[str, AgeSpec]:
    """Resolve an --age argument: a catalog name, or a path to an age file.
    Returns the text that names the age from any working directory (the
    name as given, or the file's absolute path) and the age.

    Age file format: either a single `age: <catalog-name>` line, or
    `signature:` / `axioms: <symbol> <flag>...` / `forbidden: <paths>` /
    `name:` lines.  Forbidden paths are relative to the age file.
    """
    try:
        return source, catalog_age(source)
    except InputError:
        pass
    if not os.path.exists(source):
        raise InputError(f"--age {source!r}: not a catalog name and not a file")
    return os.path.abspath(source), _read_age_file(source)


def _read_age_file(source: str) -> AgeSpec:
    text = read_text(source)
    base = os.path.dirname(os.path.abspath(source))

    signature: Signature | None = None
    axioms: list[tuple[str, frozenset]] = []
    forbidden: list[Structure] = []
    name: str | None = None
    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = raw.strip()
        if not line or line.startswith("#"):
            continue
        key, _, rest = line.partition(":")
        key, rest = key.strip(), rest.strip()
        if key == "age":
            return catalog_age(rest)
        if key == "signature":
            toks = []
            for tok in rest.split():
                nm, _, ar = tok.partition("/")
                if not ar.isdigit():
                    raise ParseError(f"bad signature token {tok!r}", line=lineno)
                toks.append((nm, int(ar)))
            signature = Signature(tuple(toks))
        elif key == "axioms":
            toks = rest.split()
            if not toks:
                raise ParseError("axioms line needs a symbol", line=lineno)
            axioms.append((toks[0], frozenset(toks[1:])))
        elif key == "forbidden":
            for path in rest.split():
                full = path if os.path.isabs(path) else os.path.join(base, path)
                forbidden.append(parse_structure(read_text(full)))
        elif key == "name":
            name = rest
        else:
            raise ParseError(f"unknown age-file key {key!r}", line=lineno)
    if signature is None:
        raise ParseError("age file needs a signature line (or an age: line)")
    return AgeSpec(signature, tuple(axioms), tuple(forbidden), name=name)


# ---------------------------------------------------------------------------
# enumeration up to isomorphism


def _single_vertex_members(spec: AgeSpec) -> list[Structure]:
    """The one-vertex members by canonical code: distinct relation choices
    are distinct types, and each is already canonically labeled."""
    options = [((), ((0,) * arity,)) for _, arity in spec.signature.symbols]
    singles = (Structure(spec.signature, 1, choice) for choice in itertools.product(*options))
    return sorted((s for s in singles if member(spec, s)), key=canonical_form)


def _extensions(spec: AgeSpec, parent: Structure, singles, budget: Budget):
    """Every age member obtained from parent by adding one vertex: the
    placements of each one-vertex member that avoid every old vertex."""
    fresh_only = Constraint(excluded=frozenset(range(parent.size)))
    for v in singles:
        for host, _ in place_part(parent, v, spec, fresh_only, budget=budget):
            yield host


def _through(s: Structure, v: int) -> frozenset:
    """Every tuple of s through vertex v, as (symbol index, tuple)."""
    return frozenset((si, t) for si, tuples in enumerate(s.relations) for t in tuples if v in t)


def _orbit(tuples: frozenset, generators) -> set[frozenset]:
    """The images of a set of (symbol index, tuple) under the group that
    the vertex permutations `generators` generate."""
    orbit = {tuples}
    todo = [tuples]
    while todo:
        x = todo.pop()
        for g in generators:
            y = frozenset([(si, tuple([g[v] for v in t])) for si, t in x])
            if y not in orbit:
                orbit.add(y)
                todo.append(y)
    return orbit


def _conjugated(automorphisms, perm) -> tuple[tuple[int, ...], ...]:
    """Automorphisms g of a structure s as automorphisms of relabel(s,
    perm): perm . g . perm^-1, in sorted order."""
    out = set()
    for g in automorphisms:
        h = [0] * len(perm)
        for v, w in enumerate(g):
            h[perm[v]] = perm[w]
        out.add(tuple(h))
    return tuple(sorted(out))


def levels(spec: AgeSpec, budget: Budget):
    """The members of size 1, 2, ... of the age, one level at a time: a
    list holding one canonical representative per isomorphism type,
    ordered by canonical code.  Each level is built once, from the one
    before; the generator stops at the first empty level."""
    for level in _levels_with_generators(spec, budget):
        yield [rep for rep, _ in level]


def _levels_with_generators(spec: AgeSpec, budget: Budget):
    """`levels`, each representative paired with automorphisms of it: the
    ones its canonical search met, conjugated by its labeling.  They
    drive the orbit skip of the module docstring."""
    singles = _single_vertex_members(spec)
    level = [(s, ()) for s in singles]
    while level:
        yield level
        next_level: dict[bytes, tuple[Structure, tuple]] = {}
        for parent, generators in level:
            fresh = parent.size
            generators = [g + (fresh,) for g in generators]
            covered: set[frozenset] = set()
            for cand in _extensions(spec, parent, singles, budget):
                new = _through(cand, fresh)
                if new in covered:
                    continue
                covered |= _orbit(new, generators)
                root = designated_root(cand, fresh)
                if root is None:
                    continue
                code, perm, automorphisms = canonical_labeling(cand, budget, root)
                if code not in next_level:
                    next_level[code] = relabel(cand, perm), _conjugated(automorphisms, perm)
        level = [next_level[c] for c in sorted(next_level)]


def enumerate_structures(spec: AgeSpec, n: int, budget: Budget) -> list[Structure]:
    """All members of the age of size n, one canonical representative per
    isomorphism type, ordered by canonical code."""
    if n < 1:
        raise InputError("n must be >= 1")
    return next(itertools.islice(levels(spec, budget), n - 1, None), [])


def enumerate_up_to(spec: AgeSpec, n: int, budget: Budget) -> list[Structure]:
    """Members of every size 1..n, size-major then code order."""
    return [s for level in itertools.islice(levels(spec, budget), n) for s in level]


# ---------------------------------------------------------------------------
# amalgamation probes


@dataclass(frozen=True)
class AmalgamationInstance:
    a: Structure | None  # None for joint-embedding instances
    b: Structure
    c: Structure
    f: tuple[int, ...]  # embedding map a -> b (empty for joint embedding)
    g: tuple[int, ...]  # embedding map a -> c


@dataclass(frozen=True)
class AmalgamationReport:
    property: str  # joint-embedding | amalgamation | free-amalgamation
    holds_up_to: int | None
    counterexample: AmalgamationInstance | None
    search_cap: str = "completions searched up to |B|+|C| vertices"
    instances_checked: int = 0


def _find_completion(spec: AgeSpec, inst: AmalgamationInstance, free: bool,
                     budget) -> tuple[Structure, tuple[int, ...], tuple[int, ...]] | None:
    """Search a completion D with embeddings beta: B->D, gamma: C->D such
    that beta.f == gamma.g; the free variant also requires the new parts
    to be disjoint and no relation tuple to meet both.  Returns (D, beta,
    gamma) or None."""
    b, c = inst.b, inst.c
    pinned = {}
    if inst.a is not None:
        for av in range(inst.a.size):
            pinned[inst.g[av]] = inst.f[av]
    new_b = set(range(b.size)) - set(inst.f)
    constraint = Constraint(pinned, frozenset(new_b) if free else frozenset())
    for host, sigma in place_part(b, c, spec, constraint,
                                  max_size=b.size + c.size, budget=budget):
        if free:
            new_c = {sigma[v] for v in range(c.size)} - set(inst.f)
            bad = False
            for tuples in host.relations:
                for t in tuples:
                    tv = set(t)
                    if tv & new_b and tv & new_c:
                        bad = True
                        break
                if bad:
                    break
            if bad:
                continue
        beta = tuple(range(b.size))
        return host, beta, sigma
    return None


def amalgamation_probe(spec: AgeSpec, which: str, bound: int,
                       budget: Budget) -> AmalgamationReport:
    """Test joint-embedding / amalgamation / free-amalgamation over every
    instance with |A|, |B|, |C| <= bound.

    joint-embedding quantifies over (B, C) only (no common part);
    amalgamation and free-amalgamation over (A, B, C, f, g).

    Every instance counts in `instances_checked`, but completions are
    searched for one instance per symmetry class.  (C, B) has the answer
    of (B, C), since one completion holds both, so joint embedding
    searches the pairs (i, j) with j >= i: had (i, j) with j < i failed,
    (j, i) would have failed first.  For (A, B, C), the instances (f, g)
    and (beta.f.alpha, gamma.g.alpha), for automorphisms alpha, beta,
    gamma of A, B, C, have the same answer: a completion (D, beta',
    gamma') of (f, g) carries over to the other through beta'.beta^-1
    and gamma'.gamma^-1, on the same D, and these map the new parts of
    one instance onto those of the other, so a free completion stays
    free.  Aut(A) acts on the Aut(B)-orbits of the maps A -> B (f.alpha's
    orbit depends only on f's), so the orbit of (f, g) is every pair
    whose Aut(B)- and Aut(C)-orbits are those of (f.alpha, g.alpha) for
    some alpha.  Once a search finds a completion, those |Aut(A)| orbit
    pairs are done; the walk keeps the order of a search of every
    instance, and so meets the same first failing instance.
    """
    if bound < 1:
        raise InputError("bound must be >= 1")
    if which not in ("joint-embedding", "amalgamation", "free-amalgamation"):
        raise InputError(f"unknown amalgamation property {which!r}")
    reps = enumerate_up_to(spec, bound, budget)
    checked = 0

    if which == "joint-embedding":
        for i, b in enumerate(reps):
            for j, c in enumerate(reps):
                checked += 1
                if j < i:
                    continue
                found = next(place_part(b, c, spec, max_size=b.size + c.size,
                                        budget=budget), None)
                if found is None:
                    inst = AmalgamationInstance(None, b, c, (), ())
                    return AmalgamationReport(which, None, inst, instances_checked=checked)
        return AmalgamationReport(which, bound, None, instances_checked=checked)

    free = which == "free-amalgamation"
    auts = [groups.automorphisms(s, budget) for s in reps]
    for a, aut_a in zip(reps, auts):
        # per member s at least as large as A: s, the maps A -> s, and
        # the Aut(s)-orbit of each map
        into = []
        for s, aut_s in zip(reps, auts):
            if s.size >= a.size:
                part = groups.orbits_on_embeddings(s, a, aut_s, budget)
                orbit = {part.base[i]: k for k, block in enumerate(part.blocks) for i in block}
                into.append((s, part.base, orbit))
        for b, fs, f_orbit in into:
            if not fs:
                continue
            for c, gs, g_orbit in into:
                done: set[tuple[int, int]] = set()
                for f in fs:
                    for g in gs:
                        checked += 1
                        if (f_orbit[f], g_orbit[g]) in done:
                            continue
                        inst = AmalgamationInstance(a, b, c, f, g)
                        if _find_completion(spec, inst, free, budget) is None:
                            return AmalgamationReport(which, None, inst,
                                                      instances_checked=checked)
                        done.update((f_orbit[tuple(f[x] for x in alpha)],
                                     g_orbit[tuple(g[x] for x in alpha)]) for alpha in aut_a)
    return AmalgamationReport(which, bound, None, instances_checked=checked)

