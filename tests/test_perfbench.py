"""Smoke test of the benchmark's traced worker: the tracer wraps program
functions by name (`groups.automorphisms`, `patterns.joint_embeddings`,
`patterns.iter_joint_embeddings`, the kernels, ...) and counts what some
of them return or yield, so a traced run breaks when one of them is
renamed or changes its return type."""

import json
import os
import subprocess
import sys
import time

import pytest

from arrowbench.structures import serialize_structure

from util import k_graph

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
WORKER = os.path.join(PKG_ROOT, "perfbench", "worker.py")


def _traced(argv, inputs, tmp_path):
    job = {"argv": argv, "inputs": inputs, "name": "smoke", "trace": "full",
           "trace_dir": None, "spawned_at": time.clock_gettime(time.CLOCK_MONOTONIC)}
    env = {k: v for k, v in os.environ.items()
           if not k.startswith("ARROWBENCH_") and k != "PYTHONPATH"}
    env["PYTHONPATH"] = os.path.join(PKG_ROOT, "src")
    r = subprocess.run([sys.executable, WORKER, json.dumps(job)], capture_output=True,
                       text=True, env=env, cwd=tmp_path, timeout=120)
    assert r.returncode == 0, r.stderr
    result = json.loads(r.stdout.strip().splitlines()[-1])
    assert result["error"] is None, result["error"]
    assert result["rc"] == 0, result["stderr"]
    return result


@pytest.fixture
def graphs(tmp_path):
    paths = {}
    for n in (1, 2, 3, 4):
        p = tmp_path / f"K{n}.st"
        p.write_text(serialize_structure(k_graph(n)))
        paths[n] = str(p)
    return paths


def test_traced_definable_arrow_counts_patterns(graphs, tmp_path):
    # the arrow walks the placements, one per pattern, without listing them
    argv = ["definable-arrow", "--age", "graph", "--a", graphs[1], "--b", graphs[2],
            "--c", graphs[4], "--z", graphs[1], "--json", "--no-cache"]
    result = _traced(argv, [graphs[n] for n in (1, 2, 4)], tmp_path)
    checked = json.loads(result["stdout"])["payload"]["joint_patterns_checked"]
    assert result["trace"]["counters"]["patterns.iter_joint_embeddings.yields"] == checked == 20


def test_traced_pattern_listing_counts_patterns(graphs, tmp_path):
    argv = ["patterns", "--age", "graph", "--a", graphs[1], "--z", graphs[1], "--json",
            "--no-cache"]
    result = _traced(argv, [graphs[1]], tmp_path)
    count = json.loads(result["stdout"])["payload"]["count"]
    assert result["trace"]["counters"]["patterns.patterns_found"] == count == 3


def test_traced_orbits_counts_automorphisms(graphs, tmp_path):
    argv = ["orbits", "--host", graphs[3], "--a", graphs[1], "--json"]
    result = _traced(argv, [graphs[1], graphs[3]], tmp_path)
    assert json.loads(result["stdout"])["payload"]["aut_order"] == 6
    assert result["trace"]["counters"]["groups.aut_order_sum"] > 0


def test_traced_enumerate_counts_types_and_labelings(tmp_path):
    argv = ["enumerate", "--age", "graph", "--n", "4", "--json", "--no-cache"]
    result = _traced(argv, [], tmp_path)
    counters = result["trace"]["counters"]
    assert counters["enumerate.types"] == json.loads(result["stdout"])["payload"]["count"] == 11
    assert counters["enumerate.canon_calls"] > 0
