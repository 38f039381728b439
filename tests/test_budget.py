"""Every bounded search spends a budget its caller passes: no search
gives `budget` a default, so no search runs under a cap of its own."""

import inspect
import time

import pytest

from arrowbench import ages, arrows, certificates, groups, patterns, stability, unions
from arrowbench.errors import ResourceLimitExceeded
from arrowbench.structures import Signature, Structure, canonical_labeling, embedding_maps
from arrowbench.unions import Budget

from util import chain, k_graph, pure_set

BOUNDED = (
    (unions, "place_part"), (unions, "place_parts"),
    (ages, "enumerate_structures"), (ages, "enumerate_up_to"),
    (ages, "amalgamation_probe"),
    (patterns, "iter_joint_embeddings"), (patterns, "joint_embeddings"),
    (patterns, "pattern_count"),
    (stability, "stable_up_to"), (stability, "unstable_witness"),
    (arrows, "classical_arrow"), (arrows, "arrow_search"), (arrows, "definable_arrow"),
    (arrows, "stable_arrow"), (arrows, "stability_precondition"), (arrows, "stability_search"),
    (arrows, "amalgamation_search"), (arrows, "roelcke_witness"), (arrows, "proximal_check"),
    (arrows, "convex_arrow"), (arrows, "exhaustive_classical_check"),
    (certificates, "verify_certificate"),
    (groups, "orbits_on_embeddings"), (groups, "invariant_partitions"),
    (groups, "coherent_partitions"),
)


@pytest.mark.parametrize("module,name", BOUNDED,
                         ids=[f"{m.__name__.split('.')[-1]}.{n}" for m, n in BOUNDED])
def test_bounded_search_requires_a_budget(module, name):
    param = inspect.signature(getattr(module, name)).parameters["budget"]
    assert param.default is inspect.Parameter.empty


def test_no_function_defaults_its_budget():
    for module in (unions, ages, patterns, stability, arrows, certificates, groups):
        for name, fn in vars(module).items():
            if inspect.isfunction(fn) and fn.__module__ == module.__name__:
                param = inspect.signature(fn).parameters.get("budget")
                assert param is None or param.default is inspect.Parameter.empty, name


def test_coherent_partitions_spend_per_partition_and_per_family():
    levels = [chain(2), chain(3)]
    budget = Budget(1_000, "coherent_partitions")
    report = groups.coherent_partitions(levels, chain(1), 2, budget)
    per_level = sum(len(embedding_maps(chain(1), f))
                    * len(groups.invariant_partitions(f, chain(1), 2, Budget(1_000)))
                    for f in levels)
    assert per_level == 2 * 2 + 3 * 4
    assert budget.used == per_level + len(levels) * len(report.families)


def test_exhaustive_check_refuses_before_it_enumerates():
    budget = Budget(2 ** 15 - 1, "verify")
    with pytest.raises(ResourceLimitExceeded, match="verify: node budget 32767 exceeded"):
        arrows.exhaustive_classical_check(chain(6), chain(2), chain(3), 2, budget)
    assert budget.used == 2 ** 15


def _expired(what):
    budget = Budget(1_000_000, what)
    budget.deadline = time.monotonic() - 1.0
    return budget


def test_orbits_check_the_deadline_after_the_group_is_listed():
    # the group was listed in time; the orbit partition still stops at the
    # deadline
    group = groups.automorphisms(pure_set(4), Budget(1_000_000))
    with pytest.raises(ResourceLimitExceeded, match="automorphisms: time budget exceeded"):
        groups.orbits_on_embeddings(pure_set(4), pure_set(2), group, _expired("automorphisms"))


class _ExpiresOnCheck(Budget):
    """A budget whose deadline passes at its `last`-th check."""

    def __init__(self, last=float("inf")):
        super().__init__(1_000_000, "orbits")
        self.last = last
        self.checks = 0

    def check_deadline(self):
        self.checks += 1
        if self.checks >= self.last:
            raise ResourceLimitExceeded("orbits: time budget exceeded")


def test_orbits_check_the_deadline_inside_one_orbit():
    # A has one embedding, the marked vertex, and Aut(host) is the
    # symmetric group on the other seven: the single orbit is the loop,
    # checked before group elements 1, 1,025, 2,049, 3,073 and 4,097
    marked = Signature((("u", 1),))
    host = Structure.make(marked, 8, {"u": [(0,)]})
    point = Structure.make(marked, 1, {"u": [(0,)]})
    group = groups.automorphisms(host, Budget(1_000_000))
    assert len(group) == 5040
    listing, whole = _ExpiresOnCheck(), _ExpiresOnCheck()
    embedding_maps(point, host, deadline=listing)
    groups.orbits_on_embeddings(host, point, group, whole)
    assert whole.checks == listing.checks + 5
    with pytest.raises(ResourceLimitExceeded, match="orbits: time budget exceeded"):
        groups.orbits_on_embeddings(host, point, group, _ExpiresOnCheck(whole.checks))


def test_canonical_labeling_checks_the_deadline_at_its_leaves():
    # K6 is not product-complete, so its search reaches a leaf
    with pytest.raises(ResourceLimitExceeded, match="enumerate_structures: time budget"):
        canonical_labeling(k_graph(6), budget=_expired("enumerate_structures"))
