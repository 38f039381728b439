"""The benchmark's workloads: fixed CLI decisions and the outcome each must
reproduce.

Every decision names its input structures as `@<name>` tokens; the run
replaces each with the path of a seeded input file (see `inputs.py`).
Outcomes hold only what stays the same under a relabeling of the inputs
and under planned optimisations: the exit code, the verdict and a few
counts or values.  Node counts and the byte form of reports are not
checked, because faster searches and certificate-format bumps change
them legitimately.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

# subcommands whose certificates `arrowbench verify` can replay
VERIFIABLE = frozenset({"arrow", "arrow-search", "definable-arrow", "stable-arrow",
                        "roelcke-witness", "convex-arrow", "stability", "amalgamation"})

# flags a decision shares with its `verify` call
_VERIFY_FLAGS = ("--age", "--a", "--b", "--c", "--z", "--parallel")


@dataclass(frozen=True)
class Decision:
    id: str
    argv: tuple[str, ...]
    rc: int
    verdict: str
    why: str
    # dotted path into the JSON report -> expected value
    invariants: dict = field(default_factory=dict)
    # a `--parallel 2` twin of a serial decision of the same workload
    parallel: bool = False

    @property
    def command(self) -> str:
        return self.argv[0]

    @property
    def verifiable(self) -> bool:
        return self.command in VERIFIABLE

    def verify_argv(self, cert: str) -> tuple[str, ...]:
        out = ["verify", cert]
        for flag, value in zip(self.argv, self.argv[1:]):
            if flag in _VERIFY_FLAGS:
                out += [flag, value]
        return tuple(out)


def _d(id, argv, rc, verdict, why, **invariants):
    return Decision(id, tuple(argv.split()), rc, verdict, why,
                    {k.replace("__", "."): v for k, v in invariants.items()})


# Instance sizes are chosen so that a 60-second run holds several passes
# (about 6 of `patterns`, 9 of `orderly`), and each decision's time in a
# run is its mean over the passes, so more passes give a steadier figure.
# Left out for that reason: `stability --age set --a P2 --z P3 --depth 3`
# (7-9 s alone), `enumerate` of graph_kfree:3 at n=8 (6-7 s; n=7 is also
# left out) and of tournaments at n=7 (2-3 s; n=6 stays).  Shrunk for that
# reason: the failing set arrow uses P7 (0.3 s, |Aut| = 5,040) rather than
# P8 (2-4 s, 50 MB), and the holding convex arrow C11 (1.3 s, 150 MB)
# rather than C12 (2.5-3 s, 260 MB).  Left out for steadiness: the failing
# `arrow` C2/C4/C9, whose counterexample search time depends on the vertex
# labeling of C9 by up to 40x across seeds (0.2 s to 8.9 s, and 38 s with
# --parallel 2), which no run length can average out; and the holding
# arrow C2/C3/C7, whose 2^21-coloring verify (2.2-3.4 s) made up nine
# tenths of the verify time and alone moved it by 20-30% between runs.  The
# holding arrow on C6 keeps the exhaustive verifier, serial and parallel.

PATTERNS = (
    _d("stability-graph-K1-K2-d3",
       "stability --age graph --a @K1 --z @K2 --depth 3", 0, "holds",
       "largest pattern-code load: pair_pattern_code, place_part and marked "
       "canonical labeling that mostly hits its cache"),
    _d("stability-kfree3-K1-K2-d3",
       "stability --age graph_kfree:3 --a @K1 --z @K2 --depth 3", 0, "holds",
       "same pair as above in a class with a forbidden K3: member() runs "
       "has_embedding; shares the cache key of the graph decision"),
    _d("stability-order-C2-C1-d4",
       "stability --age linear_order --a @C2 --z @C1 --depth 4", 0, "holds",
       "deeper host growth in a rigid class"),
    _d("stability-set-P1-P2-d4",
       "stability --age set --a @P1 --z @P2 --depth 4", 1, "fails",
       "stable verdict: exhausts every pattern pair; verify re-runs the decider",
       payload__pattern_pairs_checked=6),
    _d("definable-graph-K1-K2-K5-K2",
       "definable-arrow --age graph --a @K1 --b @K2 --c @K5 --z @K2", 0, "holds",
       "1,204 joint patterns of K5 and K2; verify re-enumerates them raw",
       payload__joint_patterns_checked=1204),
    _d("definable-graph-K1-K2-K4-K1",
       "definable-arrow --age graph --a @K1 --b @K2 --c @K4 --z @K1", 0, "holds",
       "small definable arrow with a one-vertex coordinate",
       payload__joint_patterns_checked=20),
    _d("stable-arrow-set-P1-P2-P4",
       "stable-arrow --age set --a @P1 --b @P2 --c @P4 --z @P1 --z @P1 --depth 4",
       0, "holds",
       "stability precondition on two coordinates, then joint patterns of three parts",
       payload__joint_patterns_checked=26),
    _d("roelcke-graph-K2-K3-K2",
       "roelcke-witness --age graph --a @K2 --b @K3 --z @K2", 0, "holds",
       "pattern-constant search over joint embeddings of B and Z"),
    _d("pattern-count-graph-K3-K2",
       "pattern-count --age graph --a @K3 --z @K2", 0, "holds",
       "pattern enumeration without a decider on top",
       payload__count=94),
    _d("amalgamation-graph-free-3",
       "amalgamation --age graph --property free-amalgamation --bound 3", 0, "holds",
       "placement with forced vertices over every instance up to size 3",
       payload__instances_checked=761),
    _d("amalgamation-kfree3-3",
       "amalgamation --age graph_kfree:3 --property amalgamation --bound 3", 0, "holds",
       "the same probe with member() pruning against a forbidden K3",
       payload__instances_checked=500),
)

ORDERLY = (
    _d("enumerate-graph-6", "enumerate --age graph --n 6", 0, "holds",
       "orderly generation, unmarked canonical search (OEIS A000088)",
       payload__count=156),
    _d("enumerate-tournament-6", "enumerate --age tournament --n 6", 0, "holds",
       "orderly generation in a total antisymmetric class (OEIS A000568)",
       payload__count=56),
    _d("arrow-set-P2-P3-P7",
       "arrow --age set --a @P2 --b @P3 --c @P7 --colors 2", 1, "fails",
       "|Aut(C)| = 5,040: automorphisms and lex-min pruning dominate"),
    _d("arrow-order-C2-C3-C6",
       "arrow --age linear_order --a @C2 --b @C3 --c @C6 --colors 2", 0, "holds",
       "smallest holding arrow (R(3,3) = 6): verify enumerates all 2^15 colorings"),
    _d("arrow-search-graph-K1-K3-6",
       "arrow-search --age graph --a @K1 --b @K3 --colors 2 --max-n 6", 0, "holds",
       "enumeration feeding the classical arrow over many candidates",
       payload__n=5),
    _d("convex-order-C1-C3-C11",
       "convex-arrow --a @C1 --b @C3 --c @C11 --epsilon 0.25", 0, "holds",
       "2^11-coloring LP build and the scipy import users pay per call",
       payload__value=9 / 41),
    _d("convex-order-C1-C2-C8",
       "convex-arrow --a @C1 --b @C2 --c @C8 --epsilon 0.1", 1, "fails",
       "smaller LP with a failing verdict",
       payload__value=1 / 7),
)


def _with_parallel2(decisions, ids):
    """The decisions, each named in `ids` followed by its `--parallel 2`
    twin: the program's parallel path.  Twins run only in the traced run,
    where their wall time is `parallel2.wall_s`."""
    out = []
    for d in decisions:
        out.append(d)
        if d.id in ids:
            out.append(replace(d, id=d.id + "-par2", argv=d.argv + ("--parallel", "2"),
                               why="with --parallel 2: " + d.why, parallel=True))
    return tuple(out)


# The twins are the decisions most likely to gain from parallelism.
WORKLOADS = {
    # pattern codes, placement and marked canonical labeling (cache hits)
    "patterns": _with_parallel2(PATTERNS, ("stability-graph-K1-K2-d3",
                                           "amalgamation-graph-free-3")),
    # orderly generation, classical arrows and the LP (cache misses)
    "orderly": _with_parallel2(ORDERLY, ("arrow-set-P2-P3-P7",
                                         "arrow-order-C2-C3-C6",
                                         "arrow-search-graph-K1-K3-6")),
}

# numeric invariants compare within this tolerance; counts compare exactly
VALUE_TOL = 1e-9
