"""Acceptance gate: one test per criterion, each printing a PASS line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  Every expected value is either trivially forced, produced by the
brute-force oracle coded here (independent of the package's search
paths), or pinned by an explicit construction.
"""

import itertools
import json
import os
import random
import subprocess
import sys
import time

from arrowbench import certificates
from arrowbench.ages import catalog_age, enumerate_up_to
from arrowbench.arrows import (
    classical_arrow,
    convex_arrow,
    convex_minimax_oracle,
    definable_arrow,
)
from arrowbench.patterns import free_join, pair_pattern_code, pattern_count
from arrowbench.structures import (
    canonical_form,
    embedding_maps,
    relabel,
    serialize_structure,
)

from util import (
    brute_embeddings,
    chain,
    k_graph,
    pure_set,
    random_permutation,
    random_structure,
)

GRAPHS = catalog_age("graph")
ORDERS = catalog_age("linear_order")
SETS = catalog_age("set")
PKG_ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))


def _pass(n, text):
    print(f"ACCEPTANCE {n} PASS: {text}")


# ---------------------------------------------------------------------------
# 1. classical arrow on linear orders, with exhaustive oracle and verify


def oracle_classical_bitmask(c, a, b, k):
    assert k == 2
    domain = brute_embeddings(a, c)
    index = {m: i for i, m in enumerate(domain)}
    emb_ab = brute_embeddings(a, b)
    masks = []
    for bm in brute_embeddings(b, c):
        mask = 0
        for am in emb_ab:
            mask |= 1 << index[tuple(bm[x] for x in am)]
        masks.append(mask)
    n = len(domain)
    for chi in range(1 << n):
        if not any((chi & m) == 0 or (chi & m) == m for m in masks):
            return False
    return True


def test_criterion_1_classical_arrow_orders(tmp_path):
    a, b = chain(2), chain(3)
    files = {}
    for name, s in (("a2", a), ("b3", b), ("c5", chain(5)), ("c6", chain(6))):
        p = tmp_path / f"{name}.st"
        p.write_text(serialize_structure(s))
        files[name] = str(p)
    env = dict(os.environ)
    env.pop("ARROWBENCH_CACHE_DIR", None)

    def cli(*args):
        return subprocess.run([sys.executable, "-m", "arrowbench", *args],
                              capture_output=True, text=True, env=env, cwd=PKG_ROOT)

    results = {}
    for cname, want in (("c6", 0), ("c5", 1)):
        cert_path = str(tmp_path / f"{cname}.cert")
        t0 = time.monotonic()
        r = cli("arrow", "--age", "linear_order", "--a", files["a2"],
                "--b", files["b3"], "--c", files[cname], "--colors", "2",
                "--certificate", cert_path)
        elapsed = time.monotonic() - t0
        assert r.returncode == want, r.stderr
        assert elapsed < 10.0
        v = cli("verify", cert_path, "--age", "linear_order", "--a", files["a2"],
                "--b", files["b3"], "--c", files[cname])
        assert v.returncode == 0 and "verified: true" in v.stdout
        results[cname] = elapsed
    # exhaustive oracle: all 2^15 and 2^10 colorings agree with the verdicts
    assert oracle_classical_bitmask(chain(6), a, b, 2) is True
    assert oracle_classical_bitmask(chain(5), a, b, 2) is False
    _pass(1, f"arrow: 6-chain holds ({results['c6']:.2f}s), 5-chain fails "
             f"({results['c5']:.2f}s), certificates verify, verdicts equal "
             "the exhaustive oracle")


# ---------------------------------------------------------------------------
# 2. free amalgamation => pattern-constant witness on graphs


def test_criterion_2_roelcke_sweep_graphs(tmp_path, capsys):
    from arrowbench import cli

    reps = enumerate_up_to(GRAPHS, 3)
    assert len(reps) == 7
    paths = []
    for i, s in enumerate(reps):
        p = tmp_path / f"g{i}.st"
        p.write_text(serialize_structure(s))
        paths.append(str(p))
    t0 = time.monotonic()
    checked = 0
    for ai, a_s in enumerate(reps):
        for bi, b_s in enumerate(reps):
            emb_ab = embedding_maps(a_s, b_s)
            for zi, z_s in enumerate(reps):
                code = cli.main(["roelcke-witness", "--age", "graph",
                                 "--a", paths[ai], "--b", paths[bi],
                                 "--z", paths[zi], "--json"])
                assert code == 0, (ai, bi, zi)
                checked += 1
                # the free join is a valid witness
                u, (b_map, z_map) = free_join([b_s, z_s])
                codes = {pair_pattern_code(u, tuple(b_map[am[i]] for i in range(len(am))),
                                           z_map)
                         for am in emb_ab}
                assert len(codes) <= 1, (ai, bi, zi)
    elapsed = time.monotonic() - t0
    capsys.readouterr()
    assert elapsed < 60.0
    _pass(2, f"roelcke-witness succeeded on all {checked} (A,B,Z) graph triples "
             f"of size <= 3 in {elapsed:.1f}s; the free join is always a valid witness")


# ---------------------------------------------------------------------------
# 3. pattern counts


def test_criterion_3_pattern_counts(tmp_path, capsys):
    from arrowbench import cli

    cases = [("graph", k_graph(1), k_graph(1), 3),
             ("linear_order", chain(1), chain(1), 3),
             ("set", pure_set(1), pure_set(1), 2)]
    for i, (age, a, z, want) in enumerate(cases):
        pa = tmp_path / f"a{i}.st"
        pz = tmp_path / f"z{i}.st"
        pa.write_text(serialize_structure(a))
        pz.write_text(serialize_structure(z))
        assert cli.main(["pattern-count", "--age", age, "--a", str(pa),
                         "--z", str(pz)]) == 0
        out = capsys.readouterr().out
        assert out.strip() == str(want), (age, out)
    from math import comb, factorial

    for m in range(1, 4):
        for k in range(1, 4):
            want = sum(comb(m, j) * comb(k, j) * factorial(j)
                       for j in range(min(m, k) + 1))
            got = pattern_count(SETS, pure_set(m), pure_set(k))
            assert got == want, (m, k, got, want)
    _pass(3, "pattern-count returns 3/3/2 on graphs/orders/sets points and the "
             "pure-set closed form matches exactly for |A|,|Z| <= 3")


# ---------------------------------------------------------------------------
# 4. stability witnesses at depth 6 with replay and truncations


def test_criterion_4_stability_depth6(tmp_path, capsys):
    from arrowbench import cli
    from arrowbench.stability import UnstableWitness
    from arrowbench.structures import Embedding, parse_structure

    for age, spec, a, z, label in (("linear_order", ORDERS, chain(1), chain(1),
                                    "linear orders"),
                                   ("graph", GRAPHS, k_graph(1), k_graph(1),
                                    "graphs")):
        pa = tmp_path / f"{age}_a.st"
        pz = tmp_path / f"{age}_z.st"
        pa.write_text(serialize_structure(a))
        pz.write_text(serialize_structure(z))
        cert_path = tmp_path / f"{age}.cert"
        code = cli.main(["stability", "--age", age, "--a", str(pa),
                         "--z", str(pz), "--depth", "6",
                         "--certificate", str(cert_path)])
        capsys.readouterr()
        assert code == 0, label
        doc = json.loads(cert_path.read_text())
        payload = doc["payload"]
        host = parse_structure(payload["host"])
        w = UnstableWitness(
            payload["depth"], host,
            tuple(Embedding(a, host, tuple(m)) for m in payload["a_maps"]),
            tuple(Embedding(z, host, tuple(m)) for m in payload["z_maps"]),
            bytes.fromhex(payload["tau_lt"]), bytes.fromhex(payload["tau_gt"]))
        assert w.verify(), label
        for d in range(2, 6):
            assert w.truncate(d).verify(), (label, d)
    _pass(4, "stability finds depth-6 unstable witnesses for (pt,pt) in linear "
             "orders and graphs; pattern replay verifies them and every "
             "truncation to depths 2..5")


# ---------------------------------------------------------------------------
# 5. definable arrow: pure-set sweep and the K4 instance, vs oracles


def pure_set_pattern_key(a_map, z_map):
    return frozenset((i, j) for i, x in enumerate(a_map)
                     for j, y in enumerate(z_map) if x == y)


def oracle_definable_pure_sets(c_n, a_n, b_n, z_n):
    c_verts = list(range(c_n))
    for overlap in range(min(c_n, z_n) + 1):
        for c_chosen in itertools.permutations(c_verts, overlap):
            for z_chosen in itertools.combinations(range(z_n), overlap):
                z_map = [None] * z_n
                fresh = c_n
                for zc, cv in zip(z_chosen, c_chosen):
                    z_map[zc] = cv
                for i in range(z_n):
                    if z_map[i] is None:
                        z_map[i] = fresh
                        fresh += 1
                ok_b = False
                for b_img in itertools.permutations(c_verts, b_n):
                    keys = set()
                    for a_img in itertools.permutations(b_img, a_n):
                        keys.add(pure_set_pattern_key(a_img, z_map))
                        if len(keys) > 1:
                            break
                    if len(keys) <= 1:
                        ok_b = True
                        break
                if not ok_b:
                    return False
    return True


def graph_point_pattern(u, a_v, z_v):
    if a_v == z_v:
        return "equal"
    return "edge" if (a_v, z_v) in set(u.rel("edge")) else "non-edge"


def oracle_definable_k4_point():
    """Hand enumeration for K4 -> (K2)^{K1}_{K1} over graphs: for every
    graph U on <= 5 vertices carrying K4 and a point with union support,
    some edge of the K4 sees a constant point pattern."""
    k4 = k_graph(4)
    pairs5 = list(itertools.combinations(range(5), 2))
    universes = [k4]
    for bits in itertools.product((0, 1), repeat=4):
        edges = [(u, 4) for u, bit in zip(range(4), bits) if bit]
        from util import graph as mk_graph

        universes.append(mk_graph(5, list(itertools.combinations(range(4), 2)) + edges))
    for u in universes:
        for c_map in brute_embeddings(k4, u):
            for z_v in range(u.size):
                if set(c_map) | {z_v} != set(range(u.size)):
                    continue
                ok = False
                for (x, y) in itertools.permutations(range(4), 2):
                    pa = graph_point_pattern(u, c_map[x], z_v)
                    pb = graph_point_pattern(u, c_map[y], z_v)
                    if pa == pb and (x, y) in set(k4.rel("edge")):
                        ok = True
                        break
                if not ok:
                    return False
    return True


def test_criterion_5_definable_arrows():
    for a_n in range(1, 4):
        for b_n in range(1, 4):
            for z_n in range(1, 4):
                c_n = b_n + z_n
                cert = definable_arrow(pure_set(c_n), pure_set(a_n),
                                       pure_set(b_n), pure_set(z_n), SETS)
                assert cert.holds, (a_n, b_n, z_n)
                assert oracle_definable_pure_sets(c_n, a_n, b_n, z_n), (a_n, b_n, z_n)
    cert = definable_arrow(k_graph(4), k_graph(1), k_graph(2), k_graph(1), GRAPHS)
    assert cert.holds
    assert oracle_definable_k4_point()
    _pass(5, "pure sets hold with |C|=|B|+|Z| for all |A|,|B|,|Z| <= 3 and "
             "graphs K4 -> (K2)^K1_K1 holds, both matching exhaustive "
             "joint-embedding oracles")


# ---------------------------------------------------------------------------
# 6. convex arrow: LP value vs exhaustive minimax, epsilon >= 1


def test_criterion_6_convex_arrow():
    c, a, b = pure_set(4), pure_set(1), pure_set(2)
    cert = convex_arrow(c, a, b, 0.3)
    oracle = convex_minimax_oracle(c, a, b)
    assert abs(cert.payload["value"] - oracle) <= 1e-6
    assert cert.holds
    # uniform-combination argument pins the value at exactly 0: equal
    # first/second marginals kill the oscillation for every coloring
    assert abs(cert.payload["value"]) <= 1e-6
    for inst in ((pure_set(4), pure_set(1), pure_set(2)),
                 (chain(4), chain(2), chain(3)),
                 (k_graph(3), k_graph(1), k_graph(2)),
                 (chain(2), chain(1), chain(2))):
        assert convex_arrow(inst[0], inst[1], inst[2], 1.0).holds, inst
    _pass(6, "4-set game value matches the exhaustive {0,1}-coloring minimax "
             "within 1e-6 and every epsilon >= 1 instance holds")


# ---------------------------------------------------------------------------
# 7. property suites


def test_criterion_7_property_suites(tmp_path):
    rng = random.Random(20250807)
    # canonical relabeling invariance: 50 structures x 10 relabelings = 500
    failures = 0
    for _ in range(50):
        s = random_structure(rng, max_size=6)
        base = canonical_form(s)
        for _ in range(10):
            perm = random_permutation(rng, s.size)
            if canonical_form(relabel(s, perm)) != base:
                failures += 1
    assert failures == 0
    # embedding-count formulas for sets and orders up to size 7
    for na in range(1, 5):
        for nb in range(na, 8):
            ff = 1
            for i in range(na):
                ff *= nb - i
            binom = ff
            for i in range(2, na + 1):
                binom //= i
            assert len(embedding_maps(pure_set(na), pure_set(nb))) == ff
            assert len(embedding_maps(chain(na), chain(nb))) == binom
    # arrow monotonicity and color monotonicity on 20 random small instances,
    # with every emitted certificate passing verify
    emitted = []
    spot = 0
    while spot < 20:
        kind = rng.choice(["order", "set"])
        k = rng.randint(2, 3)
        if kind == "order":
            spec, mk = ORDERS, chain
        else:
            spec, mk = SETS, pure_set
        a_n = rng.randint(1, 2)
        b_n = rng.randint(a_n, 3)
        c_n = rng.randint(b_n, 5)
        a, b, c, c_big = mk(a_n), mk(b_n), mk(c_n), mk(c_n + 1)
        if len(embedding_maps(a, c_big)) > 16:
            continue
        spot += 1
        cert = classical_arrow(c, a, b, k)
        cert_big = classical_arrow(c_big, a, b, k)
        if cert.holds and not cert.degenerate:
            assert cert_big.holds, (kind, a_n, b_n, c_n, k)
            assert classical_arrow(c, a, b, k - 1).holds
        emitted.append((cert, {"a": a, "b": b, "c": c}, {"colors": k}))
        emitted.append((cert_big, {"a": a, "b": b, "c": c_big}, {"colors": k}))
    for cert, inputs, params in emitted:
        doc = certificates.envelope(cert, inputs, None, params)
        path = tmp_path / "spot.cert"
        certificates.write_certificate(doc, str(path))
        loaded = certificates.load_certificate(str(path))
        spec = ORDERS if "lt" in inputs["a"].signature.key() else SETS
        assert certificates.verify_certificate(loaded, inputs, spec)
    _pass(7, "500 relabelings over 50 random structures, embedding-count "
             "formulas to size 7, 20 monotonicity spot checks, and every "
             "emitted certificate passed verify")


# ---------------------------------------------------------------------------
# 8. byte-identical reports


def test_criterion_8_determinism(tmp_path):
    a2 = tmp_path / "a2.st"
    b3 = tmp_path / "b3.st"
    c6 = tmp_path / "c6.st"
    a2.write_text(serialize_structure(chain(2)))
    b3.write_text(serialize_structure(chain(3)))
    c6.write_text(serialize_structure(chain(6)))
    env = dict(os.environ)
    env.pop("ARROWBENCH_CACHE_DIR", None)

    def run(extra):
        return subprocess.run(
            [sys.executable, "-m", "arrowbench", "arrow", "--age", "linear_order",
             "--a", str(a2), "--b", str(b3), "--c", str(c6), "--colors", "2",
             "--json", *extra],
            capture_output=True, text=True, env=env, cwd=PKG_ROOT).stdout

    plain = [run([]) for _ in range(3)]
    assert plain[0] == plain[1] == plain[2]
    parallel = [run(["--parallel", "4"]) for _ in range(3)]
    assert parallel[0] == parallel[1] == parallel[2] == plain[0]
    assert json.loads(plain[0])["verdict"] == "holds"
    _pass(8, "fixed invocations repeated 3x, sequential and with --parallel 4, "
             "produced byte-identical machine reports")
