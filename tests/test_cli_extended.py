"""CLI coverage for the pattern arrows, group subcommands, search and
verification paths not exercised in the basic CLI tests, plus a parser
fuzz loop."""

import json
import os
import random
import string
import subprocess
import sys
import time

import pytest

from arrowbench.errors import ParseError
from arrowbench.structures import parse_structure, serialize_structure

from util import chain, cycle, graph, k_graph, path, pure_set

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args):
    env = dict(os.environ)
    env.pop("ARROWBENCH_CACHE_DIR", None)
    return subprocess.run([sys.executable, "-m", "arrowbench", *args],
                          capture_output=True, text=True, env=env, cwd=PKG_ROOT)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli_ext")
    paths = {"root": root}

    def write(name, s):
        p = root / name
        p.write_text(serialize_structure(s))
        paths[name.split(".")[0]] = str(p)

    write("s1.st", pure_set(1))
    write("s2.st", pure_set(2))
    write("s3.st", pure_set(3))
    write("s4.st", pure_set(4))
    write("pt.st", chain(1))
    write("c2.st", chain(2))
    write("c3.st", chain(3))
    write("k1.st", k_graph(1))
    write("k2.st", k_graph(2))
    write("k4.st", k_graph(4))
    write("p2.st", path(2))
    write("p3.st", path(3))
    write("p4.st", path(4))
    write("c4cyc.st", cycle(4))
    return paths


def test_definable_arrow_cli_and_verify(files):
    cert = str(files["root"] / "def.cert")
    r = run_cli(["definable-arrow", "--age", "set", "--a", files["s1"],
                 "--b", files["s2"], "--c", files["s3"], "--z", files["s1"],
                 "--certificate", cert])
    assert r.returncode == 0, r.stderr
    v = run_cli(["verify", cert, "--age", "set", "--a", files["s1"],
                 "--b", files["s2"], "--c", files["s3"], "--z", files["s1"]])
    assert v.returncode == 0 and "verified: true" in v.stdout
    # failing instance with offending witness
    cert2 = str(files["root"] / "def2.cert")
    r2 = run_cli(["definable-arrow", "--age", "linear_order", "--a", files["pt"],
                  "--b", files["c2"], "--c", files["c2"], "--z", files["pt"],
                  "--certificate", cert2])
    assert r2.returncode == 1
    v2 = run_cli(["verify", cert2, "--age", "linear_order", "--a", files["pt"],
                  "--b", files["c2"], "--c", files["c2"], "--z", files["pt"]])
    assert v2.returncode == 0 and "verified: true" in v2.stdout


def test_stable_arrow_cli(files):
    cert = str(files["root"] / "stable.cert")
    r = run_cli(["stable-arrow", "--age", "set", "--a", files["s1"],
                 "--b", files["s2"], "--c", files["s3"], "--z", files["s1"],
                 "--depth", "4", "--certificate", cert])
    assert r.returncode == 0, r.stderr
    v = run_cli(["verify", cert, "--age", "set", "--a", files["s1"],
                 "--b", files["s2"], "--c", files["s3"], "--z", files["s1"]])
    assert v.returncode == 0 and "verified: true" in v.stdout
    # unstable pair refused distinctly (usage-style exit)
    r2 = run_cli(["stable-arrow", "--age", "linear_order", "--a", files["pt"],
                  "--b", files["c2"], "--c", files["c3"], "--z", files["pt"],
                  "--depth", "4"])
    assert r2.returncode == 2
    assert "unstable" in r2.stderr


def test_arrow_search_cli_and_verify(files):
    cert = str(files["root"] / "search.cert")
    r = run_cli(["arrow-search", "--age", "set", "--a", files["s1"],
                 "--b", files["s2"], "--colors", "2", "--max-n", "4",
                 "--certificate", cert])
    assert r.returncode == 0, r.stderr
    doc = json.loads(open(cert).read())
    assert doc["payload"]["n"] == 3
    v = run_cli(["verify", cert, "--age", "set", "--a", files["s1"],
                 "--b", files["s2"]])
    assert v.returncode == 0 and "verified: true" in v.stdout


def test_amalgamation_cli_verify(files):
    cert = str(files["root"] / "amalg.cert")
    r = run_cli(["amalgamation", "--age", "linear_order", "--property",
                 "free-amalgamation", "--bound", "2", "--certificate", cert])
    assert r.returncode == 1
    v = run_cli(["verify", cert, "--age", "linear_order"])
    assert v.returncode == 0 and "verified: true" in v.stdout


def test_orbit_subcommands(files):
    r = run_cli(["orbits", "--host", files["c4cyc"], "--a", files["k1"], "--json"])
    doc = json.loads(r.stdout)
    assert doc["payload"]["aut_order"] == 8
    assert len(doc["payload"]["blocks"]) == 1
    r2 = run_cli(["invariant-partitions", "--host", files["p3"], "--a", files["k1"],
                  "--max-blocks", "3", "--json"])
    doc2 = json.loads(r2.stdout)
    assert doc2["payload"]["count"] == 2


def test_coherent_partitions_cli(files):
    chain_arg = ",".join([files["k2"], files["p3"]])
    # K2 is induced in P3 on {0,1}
    r = run_cli(["coherent-partitions", "--chain", chain_arg, "--a", files["k1"],
                 "--max-blocks", "2", "--json"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert doc["payload"]["family_count"] >= 1
    # non-nested chain is an input error
    bad = ",".join([files["c4cyc"], files["k4"]])
    r2 = run_cli(["coherent-partitions", "--chain", bad, "--a", files["k1"],
                  "--max-blocks", "2"])
    assert r2.returncode == 2


def test_coherent_partitions_exit_follows_the_verdict(files):
    # no invariant partition of the empty embedding set: no family at all
    r = run_cli(["coherent-partitions", "--chain", f"{files['pt']},{files['c2']}",
                 "--a", files["c3"], "--max-blocks", "2", "--json"])
    assert json.loads(r.stdout)["verdict"] == "fails"
    assert r.returncode == 1, r.stderr


def test_orbits_lists_the_group_once(files, capsys, monkeypatch):
    from arrowbench import cli, groups

    listed = []
    original = groups.automorphisms

    def counted(s, budget):
        listed.append(s)
        return original(s, budget)

    monkeypatch.setattr(groups, "automorphisms", counted)
    monkeypatch.setattr(cli, "automorphisms", counted)
    assert cli.main(["orbits", "--host", files["c4cyc"], "--a", files["k1"], "--json"]) == 0
    assert json.loads(capsys.readouterr().out)["payload"]["aut_order"] == 8
    assert len(listed) == 1


def test_orbits_listing_keeps_the_time_budget(tmp_path):
    # Aut(P10) has 3,628,800 elements; the listing checks the deadline
    # once per image of vertex 0
    for name, n in (("p10", 10), ("p2", 2)):
        (tmp_path / f"{name}.st").write_text(serialize_structure(pure_set(n)))
    start = time.monotonic()
    r = run_cli(["orbits", "--host", str(tmp_path / "p10.st"), "--a", str(tmp_path / "p2.st"),
                 "--time-budget", "1"])
    assert r.returncode == 3, r.stderr
    assert time.monotonic() - start < 5
    assert r.stderr == "resource limit: automorphisms: time budget exceeded\n"


@pytest.mark.parametrize("command", ["orbits", "coherent-partitions"])
def test_listings_of_embeddings_keep_the_time_budget(files, capsys, monkeypatch, command):
    # stand-ins for the group listings and the level partitions check no
    # deadline and leave no group element to apply, so only the listings
    # of the embeddings of A can stop the run: the base of the orbit
    # partition, and the base of each level of the chain
    from arrowbench import cli, groups

    budget = cli._budget

    def expired(args, what):
        b = budget(args, what)
        b.deadline = time.monotonic() - 1.0
        return b

    monkeypatch.setattr(cli, "_budget", expired)
    monkeypatch.setattr(groups, "automorphisms", lambda s, budget: ())
    monkeypatch.setattr(cli, "automorphisms", lambda s, budget: ())
    monkeypatch.setattr(groups, "invariant_partitions", lambda *args, **kwargs: [])
    args = (["--host", files["c4cyc"]] if command == "orbits"
            else ["--chain", f"{files['k1']},{files['p2']}", "--max-blocks", "2"])
    assert cli.main([command, *args, "--a", files["k1"], "--no-cache"]) == 3
    assert "time budget exceeded" in capsys.readouterr().err


def test_embeddings_cli(files):
    r = run_cli(["embeddings", "--a", files["k1"], "--b", files["p3"], "--json"])
    doc = json.loads(r.stdout)
    assert doc["payload"]["count"] == 3


def test_epsilon_flag_validation(files):
    r = run_cli(["convex-arrow", "--a", files["s1"], "--b", files["s2"],
                 "--c", files["s3"], "--epsilon", "1.5"])
    assert r.returncode == 2
    r2 = run_cli(["convex-arrow", "--a", files["s1"], "--b", files["s2"],
                  "--c", files["s3"], "--epsilon", "-0.1"])
    assert r2.returncode == 2


def test_age_file_flag(files, tmp_path):
    age = tmp_path / "tf.age"
    k3 = tmp_path / "k3.st"
    k3.write_text(serialize_structure(k_graph(3)))
    age.write_text("signature: edge/2\naxioms: edge irreflexive symmetric\n"
                   f"forbidden: {k3.name}\n")
    r = run_cli(["enumerate", "--age", str(age), "--n", "3", "--json"])
    doc = json.loads(r.stdout)
    assert doc["payload"]["count"] == 3  # triangle-free types on 3 vertices


def test_parser_fuzz_never_crashes(seed=2025):
    rng = random.Random(seed)
    alphabet = string.ascii_letters + string.digits + "(),:/ #\n-"
    for _ in range(300):
        text = "".join(rng.choice(alphabet) for _ in range(rng.randint(0, 120)))
        try:
            s = parse_structure(text)
        except ParseError:
            continue
        # anything that parses must round-trip to a fixed normal form
        normalized = serialize_structure(s)
        assert serialize_structure(parse_structure(normalized)) == normalized


def test_parse_rejects_junk_variants():
    bad_inputs = [
        "",
        "signature: edge/2",                      # no size
        "signature: edge/2\nsize: 2\nedge: (0 1)",
        "signature: edge/2\nsize: 2\nedge: 0,1",
        "signature: edge/зero\nsize: 1",
        "signature: edge/2\nsize: two",
        "signature: edge/2\nsize: 2\nother: (0,1)",
        "signature: edge/2\nsize: 2\nedge: (0,1)\nedge: (1,0)",
        "signature: edge/2 edge/2\nsize: 1",
    ]
    for text in bad_inputs:
        with pytest.raises(ParseError):
            parse_structure(text)


def test_cache_key_includes_the_age(files, tmp_path, capsys):
    from arrowbench import cli

    cache_dir = str(tmp_path / "cache")
    reports = []
    for age in ("graph", "graph_kfree:3"):
        code = cli.main(["stability", "--age", age, "--a", files["k1"], "--z", files["k2"],
                         "--depth", "3", "--json", "--cache-dir", cache_dir])
        assert code == 0
        reports.append(json.loads(capsys.readouterr().out))
    assert [r["age"] for r in reports] == ["graph", "graph_kfree:3"]
    assert len(os.listdir(cache_dir)) == 2


def test_stable_arrow_node_budget_reaches_stability_precondition(files, capsys):
    from arrowbench import cli

    code = cli.main(["stable-arrow", "--age", "set", "--a", files["s1"], "--b", files["s2"],
                     "--c", files["s4"], "--z", files["s1"], "--z", files["s1"],
                     "--depth", "4", "--no-cache", "--node-budget", "10"])
    assert code == 3
    assert "stability" in capsys.readouterr().err


def test_time_budget_does_not_outlive_main(files, capsys):
    from arrowbench import cli, unions

    code = cli.main(["pattern-count", "--age", "set", "--a", files["s1"], "--z", files["s1"],
                     "--time-budget", "5"])
    assert code == 0
    assert unions.Budget(10).deadline is None


def test_enumerate_node_budget_bounds_the_enumeration(capsys):
    from arrowbench import cli

    code = cli.main(["enumerate", "--age", "graph", "--n", "5", "--node-budget", "10"])
    assert code == 3
    assert "enumerate_structures: node budget 10 exceeded" in capsys.readouterr().err


@pytest.mark.parametrize("limit", [["--node-budget", "10"], ["--time-budget", "1e-6"]],
                         ids=["node-budget", "time-budget"])
def test_verify_rerun_obeys_the_run_budget(files, capsys, limit):
    # a stable verdict is verified by re-running the stability search
    from arrowbench import cli

    cert = str(files["root"] / "stable.cert")
    args = ["--age", "set", "--a", files["s1"], "--z", files["s2"]]
    assert cli.main(["stability", *args, "--depth", "4", "--no-cache",
                     "--certificate", cert]) == 1
    assert cli.main(["verify", cert, *args]) == 0
    capsys.readouterr()
    assert cli.main(["verify", cert, *args, *limit]) == 3
    assert "resource limit" in capsys.readouterr().err


def test_stable_arrow_rejects_depth_one(files, capsys):
    from arrowbench import cli

    code = cli.main(["stable-arrow", "--age", "graph", "--a", files["k1"], "--b", files["k2"],
                     "--c", files["k4"], "--z", files["k2"], "--depth", "1", "--no-cache"])
    assert code == 2
    assert "depth must be >= 2" in capsys.readouterr().err
