import json
import os
import subprocess
import sys

import pytest

from arrowbench.structures import serialize_structure

from util import chain, k_graph, pure_set

PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def run_cli(args, env_extra=None):
    env = dict(os.environ)
    env.pop("ARROWBENCH_CACHE_DIR", None)
    if env_extra:
        env.update(env_extra)
    return subprocess.run([sys.executable, "-m", "arrowbench", *args],
                          capture_output=True, text=True, env=env, cwd=PKG_ROOT)


@pytest.fixture(scope="module")
def files(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")

    def write(name, s):
        p = root / name
        p.write_text(serialize_structure(s))
        return str(p)

    return {
        "a2": write("a2.st", chain(2)),
        "b3": write("b3.st", chain(3)),
        "c5": write("c5.st", chain(5)),
        "c6": write("c6.st", chain(6)),
        "pt": write("pt.st", chain(1)),
        "k1": write("k1.st", k_graph(1)),
        "k2": write("k2.st", k_graph(2)),
        "root": root,
    }


def test_arrow_holds_exit_zero(files):
    r = run_cli(["arrow", "--age", "linear_order", "--a", files["a2"],
                 "--b", files["b3"], "--c", files["c6"], "--colors", "2"])
    assert r.returncode == 0, r.stderr
    assert "holds" in r.stdout


def test_arrow_fails_exit_one_with_certificate(files):
    cert_path = str(files["root"] / "c5.cert")
    r = run_cli(["arrow", "--age", "linear_order", "--a", files["a2"],
                 "--b", files["b3"], "--c", files["c5"], "--colors", "2",
                 "--certificate", cert_path])
    assert r.returncode == 1
    doc = json.loads(open(cert_path).read())
    assert doc["verdict"] == "fails"
    assert doc["payload"]["coloring"]


def test_missing_age_is_usage_error(files):
    r = run_cli(["arrow", "--a", files["a2"], "--b", files["b3"],
                 "--c", files["c6"], "--colors", "2"])
    assert r.returncode == 2


def test_missing_file_is_input_error(files):
    r = run_cli(["arrow", "--age", "linear_order", "--a", "/nonexistent.st",
                 "--b", files["b3"], "--c", files["c6"], "--colors", "2"])
    assert r.returncode == 2


def test_resource_limit_exit_three(files):
    r = run_cli(["stability", "--age", "linear_order", "--a", files["pt"],
                 "--z", files["pt"], "--depth", "5", "--node-budget", "10"])
    assert r.returncode == 3


def test_verify_round_trip(files):
    cert_path = str(files["root"] / "v.cert")
    run_cli(["arrow", "--age", "linear_order", "--a", files["a2"],
             "--b", files["b3"], "--c", files["c6"], "--colors", "2",
             "--certificate", cert_path])
    r = run_cli(["verify", cert_path, "--age", "linear_order", "--a", files["a2"],
                 "--b", files["b3"], "--c", files["c6"]])
    assert r.returncode == 0
    assert "verified: true" in r.stdout
    wrong = run_cli(["verify", cert_path, "--age", "linear_order", "--a", files["a2"],
                     "--b", files["b3"], "--c", files["c5"]])
    assert wrong.returncode == 2  # digest mismatch


def test_json_reports_are_byte_identical(files):
    args = ["arrow", "--age", "linear_order", "--a", files["a2"],
            "--b", files["b3"], "--c", files["c6"], "--colors", "2", "--json"]
    outs = [run_cli(args).stdout for _ in range(3)]
    assert outs[0] == outs[1] == outs[2]
    par = [run_cli(args + ["--parallel", "4"]).stdout for _ in range(3)]
    assert par[0] == par[1] == par[2] == outs[0]


def test_parallel_keeps_the_node_budget(files):
    args = ["arrow", "--age", "linear_order", "--a", files["a2"],
            "--b", files["b3"], "--c", files["c6"], "--colors", "2",
            "--node-budget", "400"]
    for extra in ([], ["--parallel", "2"]):
        r = run_cli(args + extra)
        assert r.returncode == 3, (extra, r.stdout)
        assert "classical_arrow" in r.stderr


def test_cache_transparency(files, tmp_path):
    cache_dir = str(tmp_path / "cache")
    args = ["pattern-count", "--age", "linear_order", "--a", files["a2"],
            "--z", files["pt"], "--json"]
    fresh = run_cli(args)
    assert fresh.returncode == 0
    # pattern-count is not cached (informational), exercise a cached op
    args = ["arrow", "--age", "linear_order", "--a", files["a2"],
            "--b", files["b3"], "--c", files["c6"], "--colors", "2", "--json"]
    first = run_cli(args, env_extra={"ARROWBENCH_CACHE_DIR": cache_dir})
    second = run_cli(args, env_extra={"ARROWBENCH_CACHE_DIR": cache_dir})
    uncached = run_cli(args)
    assert first.stdout == second.stdout == uncached.stdout
    assert os.listdir(cache_dir)
    nocache = run_cli(args + ["--no-cache"], env_extra={"ARROWBENCH_CACHE_DIR": cache_dir})
    assert nocache.stdout == first.stdout


def test_parse_normalizes(files, tmp_path):
    messy = tmp_path / "messy.st"
    messy.write_text("# hi\nsignature: lt/2\nsize: 2\nlt: (0,1)\n")
    r = run_cli(["parse", str(messy)])
    assert r.returncode == 0
    assert r.stdout == "signature: lt/2\nsize: 2\nlt: (0,1)\n"


def test_parse_error_exit_two(tmp_path):
    bad = tmp_path / "bad.st"
    bad.write_text("size: 3\n")
    r = run_cli(["parse", str(bad)])
    assert r.returncode == 2


def test_enumerate_and_pattern_count(files):
    r = run_cli(["enumerate", "--age", "graph", "--n", "3", "--json"])
    doc = json.loads(r.stdout)
    assert doc["payload"]["count"] == 4
    r = run_cli(["pattern-count", "--age", "graph", "--a", files["k1"],
                 "--z", files["k1"]])
    assert r.stdout.strip() == "3"


def test_stability_cli_witness_and_verify(files):
    cert_path = str(files["root"] / "w.cert")
    r = run_cli(["stability", "--age", "linear_order", "--a", files["pt"],
                 "--z", files["pt"], "--depth", "4", "--certificate", cert_path])
    assert r.returncode == 0
    v = run_cli(["verify", cert_path, "--age", "linear_order", "--a", files["pt"],
                 "--z", files["pt"]])
    assert v.returncode == 0 and "verified: true" in v.stdout


def test_proximal_pipeline(files, tmp_path):
    u5 = tmp_path / "u5.st"
    u5.write_text(serialize_structure(chain(5)))
    col = tmp_path / "const.col"
    col.write_text("colors: 2\n" + "".join(f"({v}) -> 1\n" for v in range(5)))
    check_cert = str(tmp_path / "check.cert")
    r = run_cli(["proximal-check", "--age", "linear_order", "--universe", str(u5),
                 "--a", files["pt"], "--coloring", str(col), "--d-max", "2",
                 "--certificate", check_cert])
    assert r.returncode == 0, r.stderr
    r2 = run_cli(["proximal-arrow", "--age", "linear_order", "--universe", str(u5),
                  "--a", files["pt"], "--b", files["a2"], "--coloring", str(col),
                  "--check", check_cert])
    assert r2.returncode == 0, r2.stderr
    v = run_cli(["verify", check_cert, "--age", "linear_order", "--universe", str(u5),
                 "--a", files["pt"], "--coloring", str(col)])
    assert v.returncode == 0 and "verified: true" in v.stdout


def test_convex_cli(files, tmp_path):
    paths = {}
    for name, n in (("s1", 1), ("s2", 2), ("s4", 4)):
        p = tmp_path / f"{name}.st"
        p.write_text(serialize_structure(pure_set(n)))
        paths[name] = str(p)
    r = run_cli(["convex-arrow", "--a", paths["s1"], "--b", paths["s2"],
                 "--c", paths["s4"], "--epsilon", "0.3", "--json"])
    assert r.returncode == 0, r.stderr
    doc = json.loads(r.stdout)
    assert abs(doc["payload"]["value"]) <= 1e-9


def test_amalgamation_cli():
    r = run_cli(["amalgamation", "--age", "graph", "--property",
                 "free-amalgamation", "--bound", "2"])
    assert r.returncode == 0
    r = run_cli(["amalgamation", "--age", "linear_order", "--property",
                 "free-amalgamation", "--bound", "2"])
    assert r.returncode == 1
