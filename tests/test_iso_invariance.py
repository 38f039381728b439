"""Every decider's verdict must be invariant under relabeling its inputs:
the searches are symmetry-broken internally, so this guards against any
labeling leak in the pruning."""

import random

from arrowbench.ages import catalog_age
from arrowbench.arrows import (
    classical_arrow,
    convex_arrow,
    definable_arrow,
    roelcke_witness,
)
from arrowbench.patterns import pattern_count
from arrowbench.stability import stable_up_to
from arrowbench.structures import relabel

from util import cycle, graph, k_graph, nodes, path, random_permutation

GRAPHS = catalog_age("graph")


def _rl(rng, s):
    return relabel(s, random_permutation(rng, s.size))


def test_classical_arrow_relabel_invariant(seed=99):
    rng = random.Random(seed)
    base = classical_arrow(cycle(5), k_graph(1), k_graph(2), 2, nodes(20_000_000)).verdict
    for _ in range(6):
        got = classical_arrow(_rl(rng, cycle(5)), k_graph(1), _rl(rng, k_graph(2)),
                              2, nodes(20_000_000)).verdict
        assert got == base


def test_definable_arrow_relabel_invariant(seed=5):
    rng = random.Random(seed)
    for _ in range(4):
        cert = definable_arrow(_rl(rng, k_graph(4)), k_graph(1),
                               _rl(rng, k_graph(2)), k_graph(1), GRAPHS, nodes(2_000_000))
        assert cert.verdict == "holds"


def test_pattern_count_relabel_invariant(seed=7):
    rng = random.Random(seed)
    base = pattern_count(GRAPHS, path(3), k_graph(2), nodes(2_000_000))
    for _ in range(4):
        assert pattern_count(GRAPHS, _rl(rng, path(3)), _rl(rng, k_graph(2)),
                             nodes(2_000_000)) == base


def test_stability_relabel_invariant(seed=3):
    rng = random.Random(seed)
    for _ in range(2):
        report = stable_up_to(GRAPHS, k_graph(1), _rl(rng, k_graph(2)), depth=3, budget=nodes())
        assert report.stable is False
        assert report.witness.verify()


def test_convex_value_relabel_invariant(seed=11):
    rng = random.Random(seed)
    for _ in range(3):
        value = convex_arrow(_rl(rng, cycle(4)), k_graph(1), _rl(rng, k_graph(2)),
                             0.5, nodes()).payload["value"]
        assert abs(value) <= 1e-9


def test_roelcke_relabel_invariant(seed=13):
    rng = random.Random(seed)
    for _ in range(3):
        cert = roelcke_witness(GRAPHS, _rl(rng, path(3)), _rl(rng, k_graph(2)),
                               _rl(rng, graph(3, [])), budget=nodes())
        assert cert.holds
