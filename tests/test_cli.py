import argparse
import contextlib
import io
import itertools
import json
import os
import re
import subprocess
import sys
import tempfile

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from arrowbench import certificates, cli
from arrowbench.structures import relabel, serialize_structure

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


@pytest.mark.parametrize("command,flags", [
    ("pattern-count", ["--a", "k1"]),
    ("definable-arrow", ["--a", "k1", "--b", "k2", "--c", "k2"]),
    ("roelcke-witness", ["--a", "k1", "--b", "k2"]),
    ("stability", ["--a", "k1", "--depth", "3"]),
])
def test_one_coordinate_subcommands_refuse_a_second_z(files, capsys, command, flags):
    argv = [command, "--age", "graph", *(files.get(f, f) for f in flags),
            "--z", files["k1"], "--z", files["k2"], "--no-cache"]
    assert cli.main(argv) == 2
    assert "--z given 2 times" in capsys.readouterr().err


def test_convex_arrow_takes_no_age(files, capsys):
    argv = ["convex-arrow", "--a", files["a2"], "--b", files["b3"], "--c", files["c6"],
            "--epsilon", "0.6", "--no-cache"]
    with pytest.raises(SystemExit) as e:
        cli.main(argv + ["--age", "linear_order"])
    assert e.value.code == 2
    assert "unrecognized arguments: --age" in capsys.readouterr().err
    assert cli.main(argv) == 0


def test_proximal_arrow_takes_no_age(files, tmp_path, capsys):
    col = tmp_path / "const.col"
    col.write_text("colors: 2\n" + "".join(f"({v}) -> 1\n" for v in range(6)))
    check = str(tmp_path / "check.cert")
    base = ["--universe", files["c6"], "--a", files["pt"], "--coloring", str(col)]
    assert cli.main(["proximal-check", "--age", "linear_order", *base, "--d-max", "1",
                     "--certificate", check]) == 0
    argv = ["proximal-arrow", *base, "--b", files["a2"], "--check", check, "--json"]
    with pytest.raises(SystemExit) as e:
        cli.main(argv + ["--age", "graph"])
    assert e.value.code == 2
    assert "unrecognized arguments: --age" in capsys.readouterr().err
    assert cli.main(argv) == 0
    assert json.loads(capsys.readouterr().out)["age"] is None


def _paths(files, tmp_path):
    """The module's files plus pure sets p1-p3, a one-colour coloring
    `col` of b3's points and a passing proximal-check certificate `check`
    of it, for argv tokens to name."""
    paths = {**files, "col": str(tmp_path / "const.col"), "check": str(tmp_path / "check.cert")}
    for n in (1, 2, 3):
        paths[f"p{n}"] = str(tmp_path / f"p{n}.st")
        (tmp_path / f"p{n}.st").write_text(serialize_structure(pure_set(n)))
    (tmp_path / "const.col").write_text("colors: 1\n(0) -> 0\n(1) -> 0\n(2) -> 0\n")
    assert cli.main(["proximal-check", "--age", "linear_order", "--universe", files["b3"],
                     "--a", files["pt"], "--coloring", paths["col"], "--d-max", "1",
                     "--certificate", paths["check"]]) == 0
    return paths


def _argv(paths, text):
    """`text` split, each name in `paths` (also inside a comma list) its path."""
    return [",".join(paths.get(n, n) for n in token.split(",")) for token in text.split()]


# one decision per verifiable operation, and the age its verifier reads
# (None: it reads none); linear orders are unstable, so stable-arrow runs
# over pure sets
_VERIFY_AGE = (
    ("arrow", "--age linear_order --a pt --b a2 --c b3 --colors 2", "--a pt --b a2 --c b3",
     None),
    ("arrow-search", "--age linear_order --a pt --b a2 --colors 2 --max-n 3", "--a pt --b a2",
     "linear_order"),
    ("definable-arrow", "--age linear_order --a pt --b a2 --c b3 --z pt",
     "--a pt --b a2 --c b3 --z pt", "linear_order"),
    ("stable-arrow", "--age set --a p1 --b p2 --c p3 --z p1 --depth 4",
     "--a p1 --b p2 --c p3 --z p1", "set"),
    ("roelcke-witness", "--age linear_order --a pt --b a2 --z pt", "--a pt --b a2 --z pt",
     "linear_order"),
    ("stability", "--age linear_order --a pt --z pt --depth 3", "--a pt --z pt",
     "linear_order"),
    ("amalgamation", "--age linear_order --property amalgamation --bound 2", "",
     "linear_order"),
    ("convex-arrow", "--a pt --b a2 --c b3 --epsilon 0.6", "--a pt --b a2 --c b3", None),
    ("proximal-check", "--age linear_order --universe b3 --a pt --coloring col --d-max 1",
     "--universe b3 --a pt --coloring col", "linear_order"),
    ("proximal-arrow", "--universe b3 --a pt --coloring col --b a2 --check check",
     "--universe b3 --a pt --coloring col --b a2", None),
)


@pytest.mark.parametrize("command,flags,verify_flags,age", _VERIFY_AGE,
                         ids=[c for c, _, _, _ in _VERIFY_AGE])
def test_verify_needs_the_age_its_verifier_reads(files, tmp_path, capsys, command, flags,
                                                 verify_flags, age):
    paths = _paths(files, tmp_path)
    cert = str(tmp_path / "c.cert")
    assert cli.main([command, *_argv(paths, flags), "--certificate", cert, "--no-cache"]) in (0, 1)
    verify = ["verify", cert, *_argv(paths, verify_flags)]
    capsys.readouterr()
    if age is None:
        assert cli.main(verify) == 0
        assert capsys.readouterr().out == "verified: true\n"
        return
    assert cli.main(verify) == 2
    assert capsys.readouterr().err == f"error: {command} verification needs --age\n"
    assert cli.main(verify + ["--age", age]) == 0


@pytest.mark.parametrize("text,line", [
    ("colors: two\n(0) -> 0\n", 1),
    ("colors: 2\n(0) -> x\n", 2),
    ("colors: 2\n# one point\n(a) -> 1\n", 3),
])
def test_malformed_coloring_file_is_a_parse_error(files, tmp_path, capsys, text, line):
    col = tmp_path / "bad.col"
    col.write_text(text)
    assert cli.main(["proximal-check", "--age", "linear_order", "--universe", files["pt"],
                     "--a", files["pt"], "--coloring", str(col), "--d-max", "1"]) == 2
    err = capsys.readouterr().err
    assert err.startswith("error: not a number in ") and err.endswith(f"at line {line}\n")


def test_every_verifier_is_a_subcommand():
    # each row declares the params that its subcommand records, and
    # payload fields and independent checks only under kinds a
    # certificate has, so that a misspelt kind can neither skip its
    # checks nor fall back to a re-run; every decider has a verifier
    kinds = {"holds", "fails", "degenerate holds", "degenerate fails"}
    assert set(certificates._VERIFIERS) <= set(cli._COMMANDS)
    assert set(certificates.DECIDERS) <= set(certificates._VERIFIERS)
    for op, (checks, reads, params, payload) in certificates._VERIFIERS.items():
        assert set(checks) <= kinds, op
        assert set(reads) <= {"age", "coloring"}
        assert set(payload) <= kinds | {""}, op
        flags = [token.strip("[].") for token in cli._COMMANDS[op][2].split()]
        assert {name.rstrip("?") for name in params} == {
            flag.lstrip("-").replace("-", "_") for flag in flags
            if flag not in cli._FILE_FLAGS}, op


def test_the_readme_route_table_matches_the_verifiers():
    # a kind re-runs exactly where _VERIFIERS names no independent check
    kinds = ("holds", "fails", "degenerate holds", "degenerate fails")
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md")) as fh:
        lines = fh.read().splitlines()
    start = lines.index("| operation | `holds` | `fails` | degenerate `holds` "
                        "| degenerate `fails` |") + 2
    rows = {}
    for line in itertools.takewhile(lambda line: line.startswith("|"), lines[start:]):
        op, *cells = (cell.strip() for cell in line.strip("|").split("|"))
        rows[op.strip("`")] = cells
    assert set(rows) == set(certificates._VERIFIERS)
    for op, (checks, _, _, _) in certificates._VERIFIERS.items():
        assert [cell == "re-run" for cell in rows[op]] == [
            kind not in checks for kind in kinds], op


def _argument_records(name):
    """(option strings, dest, required, default, type, action, choices,
    help) of each argument of subcommand `name`, in order."""
    ap = cli._parser([name])
    sub = next(a for a in ap._actions if isinstance(a, argparse._SubParsersAction))
    return [[list(a.option_strings), a.dest, a.required, a.default,
             a.type.__name__ if a.type else None, type(a).__name__,
             list(a.choices) if a.choices else None, a.help]
            for a in sub.choices[name]._actions]


def test_subcommand_arguments_match_the_snapshot():
    # the snapshot was taken from the parser that declared each subcommand
    # by hand; since then --age is required by the subcommands that read
    # it, and convex-arrow and proximal-arrow, which never read it, take none
    with open(os.path.join(os.path.dirname(__file__), "cli_arguments.json")) as fh:
        want = json.load(fh)
    age_required = {"enumerate", "patterns", "pattern-count", "arrow", "arrow-search",
                    "definable-arrow", "stable-arrow", "roelcke-witness", "stability",
                    "proximal-check", "amalgamation"}
    for name, records in want.items():
        for r in records:
            if r[0] == ["--age"] and name in age_required:
                r[2] = True
        if name in ("convex-arrow", "proximal-arrow"):
            records.remove(next(r for r in records if r[0] == ["--age"]))
    assert list(cli._COMMANDS) == list(want)
    for name in cli._COMMANDS:
        assert _argument_records(name) == want[name], name


def test_readme_lists_every_subcommand():
    with open(os.path.join(PKG_ROOT, "README.md")) as fh:
        readme = fh.read()
    listing = readme[readme.index("Subcommands:"):].split("\n\n")[0]
    assert re.findall(r"`([a-z-]+)`", listing) == list(cli._COMMANDS)


def test_a_call_adds_only_its_subcommands_arguments(files, monkeypatch, capsys):
    calls = []
    add = argparse._ActionsContainer.add_argument
    monkeypatch.setattr(argparse._ActionsContainer, "add_argument",
                        lambda self, *a, **k: calls.append(a) or add(self, *a, **k))
    assert cli.main(["parse", files["a2"]]) == 0
    # --help and --version of the top level, then parse's own
    assert len(calls) == 11
    calls.clear()
    cli.main(["verify", str(files["root"] / "missing.cert"), "--a", files["a2"]])
    assert len(calls) == 18
    capsys.readouterr()


def test_missing_file_is_input_error(files):
    r = run_cli(["arrow", "--age", "linear_order", "--a", "/nonexistent.st",
                 "--b", files["b3"], "--c", files["c6"], "--colors", "2"])
    assert r.returncode == 2


def test_unreadable_age_files_are_input_errors(files, tmp_path, capsys):
    # a missing forbidden file, and an --age naming a directory
    missing = tmp_path / "missing.st"
    age = tmp_path / "kfree.age"
    age.write_text(f"signature: edge/2\nforbidden: {missing}\n")
    for source, path in ((str(age), str(missing)), (str(tmp_path), str(tmp_path))):
        assert cli.main(["enumerate", "--age", source, "--n", "2"]) == 2
        assert capsys.readouterr().err.startswith(f"error: cannot read {path}: ")


def test_verify_refuses_a_document_that_is_not_an_object(tmp_path, capsys):
    cert = tmp_path / "list.cert"
    cert.write_text("[1]\n")
    assert cli.main(["verify", str(cert)]) == 2
    assert capsys.readouterr().err == "error: certificate is not a JSON object\n"


def test_verify_names_an_input_it_needs(files, tmp_path, capsys):
    cert = tmp_path / "arrow.cert"
    assert cli.main(["arrow", "--age", "linear_order", "--a", files["a2"], "--b", files["b3"],
                     "--c", files["c6"], "--colors", "2", "--certificate", str(cert),
                     "--no-cache"]) == 0
    doc = json.loads(cert.read_text())
    doc["inputs"] = {}
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), "--b", files["b3"], "--c", files["c6"]]) == 2
    assert capsys.readouterr().err == "error: verification needs input 'a': not provided\n"


@pytest.mark.parametrize("op,inputs,edit,error", [
    ("arrow", "--a a2 --b b3 --c c5", lambda doc: doc.update(payload={}),
     "lacks field payload.coloring"),
    ("definable-arrow", "--a pt --b a2 --c b3 --z pt", lambda doc: doc.update(payload={}),
     "lacks field payload.offending"),
    ("definable-arrow", "--a pt --b a2 --c b3 --z pt",
     lambda doc: doc["payload"]["offending"].pop("z_maps"),
     "lacks field payload.offending.z_maps"),
    ("arrow", "--a a2 --b b3 --c c5", lambda doc: doc.update(payload=[]),
     "field payload is not a JSON object"),
    ("arrow", "--a a2 --b b3 --c c5", lambda doc: doc.update(params=[]),
     "field params is not a JSON object"),
    ("arrow", "--a a2 --b b3 --c c5", lambda doc: doc.update(inputs=[]),
     "field inputs is not a JSON object"),
    ("arrow", "--a a2 --b b3 --c c5", lambda doc: doc.update(operation=["arrow"]),
     "field operation is not a JSON string"),
])
def test_verify_names_a_field_the_certificate_lacks(files, tmp_path, capsys, op, inputs,
                                                    edit, error):
    # a failing certificate with a payload field removed, or an envelope
    # field of the wrong JSON type, is malformed (exit 2), not `verified:
    # false` (exit 1) or a KeyError or TypeError traceback
    flags = ["--age", "linear_order", *(files.get(w, w) for w in inputs.split())]
    extra = ["--colors", "2"] if op == "arrow" else []
    cert = tmp_path / "fail.cert"
    assert cli.main([op, *flags, *extra, "--certificate", str(cert), "--no-cache"]) == 1
    doc = json.loads(cert.read_text())
    edit(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), *flags]) == 2
    assert capsys.readouterr().err == f"error: certificate {error}\n"


def _amalgamation_cert(tmp_path, age, which, rc):
    """The certificate document of a bound-2 probe, and its path."""
    cert = tmp_path / "amalgamation.cert"
    assert cli.main(["amalgamation", "--age", age, "--property", which, "--bound", "2",
                     "--certificate", str(cert), "--no-cache"]) == rc
    return json.loads(cert.read_text()), cert


@pytest.mark.parametrize("field,forged", [("holds_up_to", 7), ("instances_checked", 99999)])
def test_verify_compares_a_holding_amalgamation_payload(tmp_path, capsys, field, forged):
    # a holding probe is verified by a re-run, whose report must be the
    # one the certificate records
    doc, cert = _amalgamation_cert(tmp_path, "graph", "free-amalgamation", 0)
    assert cli.main(["verify", str(cert), "--age", "graph"]) == 0
    doc["payload"][field] = forged
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), "--age", "graph"]) == 1
    assert capsys.readouterr().out == "verified: false\n"


@pytest.mark.parametrize("edit,field,name", [
    (lambda p: p["counterexample"].update(f="x"), "counterexample.f", "list of integers"),
    (lambda p: p["counterexample"].update(b=5), "counterexample.b", "string"),
    (lambda p: p.update(counterexample=[]), "counterexample", "object"),
])
def test_verify_names_a_malformed_amalgamation_counterexample(tmp_path, capsys, edit, field,
                                                             name):
    # exit 2 naming the field, not a TypeError or AttributeError traceback
    doc, cert = _amalgamation_cert(tmp_path, "linear_order", "free-amalgamation", 1)
    edit(doc["payload"])
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), "--age", "linear_order"]) == 2
    assert capsys.readouterr().err == (
        f"error: certificate field payload.{field} is not a JSON {name}\n")


@pytest.mark.parametrize("decision,edit,error", [
    ("arrow --age linear_order --a a2 --b b3 --c c5 --colors 2",
     lambda doc: doc["payload"].update(coloring="x"), "payload.coloring is not a JSON list"),
    ("arrow --age linear_order --a a2 --b b3 --c c5 --colors 2",
     lambda doc: doc["payload"].update(coloring=[[0, 1]]),
     "payload.coloring[0][0] is not a JSON list of integers"),
    ("arrow --age linear_order --a a2 --b b3 --c c6 --colors 2",
     lambda doc: doc.update(verdict="bogus"), 'verdict is not a JSON "holds" or "fails"'),
    ("stability --age set --a p1 --z p1 --depth 3", lambda doc: doc["payload"].update(host=5),
     "payload.host is not a JSON string"),
    ("stability --age set --a p1 --z p1 --depth 3",
     lambda doc: doc["payload"].update(tau_lt="zz"),
     "payload.tau_lt is not a JSON string of hex digits"),
    ("convex-arrow --a pt --b a2 --c c5 --epsilon 0.5",
     lambda doc: doc["payload"].update(value="0.5"), "payload.value is not a JSON number"),
    ("convex-arrow --a pt --b a2 --c c5 --epsilon 0.5", lambda doc: doc.update(degenerate="no"),
     "degenerate is not a JSON boolean"),
])
def test_verify_names_a_mistyped_field(files, tmp_path, capsys, decision, edit, error):
    # each was a traceback (exit 1), `verified: false` or, for the
    # verdict, `verified: true`
    paths = _paths(files, tmp_path)
    cert = tmp_path / "c.cert"
    assert cli.main([*_argv(paths, decision), "--certificate", str(cert), "--no-cache"]) in (0, 1)
    doc = json.loads(cert.read_text())
    edit(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    # verify takes the decision's flags but the last, a param
    assert cli.main(["verify", str(cert), *_argv(paths, decision)[1:-2]]) == 2
    assert capsys.readouterr().err == f"error: certificate field {error}\n"


# a decision, its verify flags and the path of a structure-text field of
# its certificate's payload
_STRUCTURE_FIELDS = (
    ("stability --age set --a p1 --z p1 --depth 3", "--age set --a p1 --z p1", "host"),
    ("arrow-search --age linear_order --a pt --b a2 --colors 2 --max-n 3",
     "--age linear_order --a pt --b a2", "c"),
    ("roelcke-witness --age linear_order --a pt --b a2 --z pt",
     "--age linear_order --a pt --b a2 --z pt", "u"),
    ("definable-arrow --age linear_order --a pt --b a2 --c b3 --z pt",
     "--age linear_order --a pt --b a2 --c b3 --z pt", "offending.u"),
    *(("amalgamation --age linear_order --property free-amalgamation --bound 2",
       "--age linear_order", f"counterexample.{x}") for x in "abc"),
)


@pytest.mark.parametrize("decision,verify_flags,field", _STRUCTURE_FIELDS,
                         ids=[f for _, _, f in _STRUCTURE_FIELDS])
@pytest.mark.parametrize("text,error", [
    ("x", "is not a structure: expected 'key: value', got 'x' at line 1"),
    (serialize_structure(k_graph(2)), "is not in the age's signature"),
], ids=["unparsed", "signature"])
def test_verify_names_a_structure_field_that_does_not_parse(files, tmp_path, capsys, decision,
                                                           verify_flags, field, text, error):
    # exit 2 naming the field, not the parser's or member()'s message alone
    paths = _paths(files, tmp_path)
    cert = tmp_path / "c.cert"
    assert cli.main([*_argv(paths, decision), "--certificate", str(cert), "--no-cache"]) in (0, 1)
    doc = json.loads(cert.read_text())
    *outer, last = field.split(".")
    holder = doc["payload"]
    for key in outer:
        holder = holder[key]
    holder[last] = text
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), *_argv(paths, verify_flags)]) == 2
    assert capsys.readouterr().err == f"error: certificate field payload.{field} {error}\n"


@pytest.mark.parametrize("witness_depth,params", [
    (2, {"depth": 5}), (3, {"depth": 1}), (3, {"max_host": 1})])
def test_verify_holds_a_witness_to_the_params_it_records(files, tmp_path, capsys,
                                                        witness_depth, params):
    # the decider writes a witness at its params' depth, which is >= 2,
    # on a host within their host bound
    paths = _paths(files, tmp_path)
    cert = tmp_path / "unstable.cert"
    flags = _argv(paths, "--age set --a p1 --z p1")
    assert cli.main(["stability", *flags, "--depth", str(witness_depth), "--certificate",
                     str(cert), "--no-cache"]) == 0
    assert cli.main(["verify", str(cert), *flags]) == 0
    doc = json.loads(cert.read_text())
    doc["params"].update(params)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), *flags]) == 1
    assert capsys.readouterr().out == "verified: false\n"


@pytest.mark.parametrize("edit", [
    # the counterexample (|B| = 2) lies past the bound
    lambda doc: doc["params"].update(bound=1),
    lambda doc: doc["payload"].update(instances_checked=99999),
    lambda doc: doc["payload"].update(search_cap="every completion"),
])
def test_verify_compares_a_failing_amalgamation_payload(tmp_path, capsys, edit):
    doc, cert = _amalgamation_cert(tmp_path, "linear_order", "free-amalgamation", 1)
    assert cli.main(["verify", str(cert), "--age", "linear_order"]) == 0
    edit(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), "--age", "linear_order"]) == 1
    assert capsys.readouterr().out == "verified: false\n"


# a decision, its verify flags and a forgery that verify once let
# through: a re-run was compared on hand-picked fields only, and a
# coloring's colors were not held to its number of colors
_FORGERIES = (
    ("definable-arrow --age graph --a k1 --b k2 --c k4 --z k1",
     "--age graph --a k1 --b k2 --c k4 --z k1",
     lambda doc: doc["payload"].update(joint_patterns_checked=99999)),
    ("arrow-search --age graph --a k1 --b k2 --colors 2 --max-n 2", "--age graph --a k1 --b k2",
     lambda doc: doc.update(reason="no witness C up to size 50",
                            payload=dict(doc["payload"], max_n=50))),
    ("roelcke-witness --age graph --a k1 --b k2 --z k1 --max-n 2",
     "--age graph --a k1 --b k2 --z k1",
     lambda doc: doc["payload"].update(candidates_checked=99999)),
    # degenerate: no copy of K4 in K2
    ("arrow --age graph --a k1 --b k4 --c k2 --colors 2", "--a k1 --b k4 --c k2",
     lambda doc: doc["payload"].update(copy_count=5)),
    # C6 -/-> (C3)^C2_3; recorded as a 2-coloring, the same coloring would
    # certify C6 -/-> (C3)^C2_2, against R(3,3) = 6
    *(("arrow --age linear_order --a a2 --b b3 --c c6 --colors 3", "--a a2 --b b3 --c c6", edit)
      for edit in (lambda doc: (doc["params"].update(colors=2), doc["payload"].update(k=2)),
                   lambda doc: doc["params"].update(colors=2),
                   lambda doc: doc["payload"].update(k=2))),
    # the counts that an independent route re-derives: C6 -> (C3)^C2_2
    *(("arrow --age linear_order --a a2 --b b3 --c c6 --colors 2", "--a a2 --b b3 --c c6", edit)
      for edit in (lambda doc: doc["payload"].update(domain_size=16),
                   lambda doc: doc["payload"].update(copy_count=21))),
    # K3 is the least graph whose 2-colored vertices span a monochromatic edge
    *(("arrow-search --age graph --a k1 --b k2 --colors 2 --max-n 4", "--age graph --a k1 --b k2",
       edit)
      for edit in (lambda doc: doc["payload"].update(n=2),
                   lambda doc: doc["payload"]["inner"].update(copy_count=4),
                   lambda doc: doc["payload"]["inner"].update(k=1))),
    ("convex-arrow --a pt --b a2 --c c6 --epsilon 0.5", "--a pt --b a2 --c c6",
     lambda doc: doc["payload"].update(epsilon=0.9)),
)


@pytest.mark.parametrize("decision,verify_flags,edit", _FORGERIES, ids=[
    "definable-arrow", "arrow-search", "roelcke-witness", "degenerate-arrow",
    "arrow-colors-and-k", "arrow-colors", "arrow-k", "arrow-domain-size", "arrow-copy-count",
    "arrow-search-n", "arrow-search-inner-copy-count", "arrow-search-inner-k",
    "convex-epsilon"])
def test_verify_refuses_a_forged_certificate(files, tmp_path, capsys, decision, verify_flags,
                                             edit):
    paths = {**files, "k4": str(tmp_path / "k4.st")}
    (tmp_path / "k4.st").write_text(serialize_structure(k_graph(4)))
    cert = tmp_path / "c.cert"
    assert cli.main([*_argv(paths, decision), "--certificate", str(cert), "--no-cache"]) in (0, 1)
    assert cli.main(["verify", str(cert), *_argv(paths, verify_flags)]) == 0
    doc = json.loads(cert.read_text())
    edit(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), *_argv(paths, verify_flags)]) == 1
    assert capsys.readouterr().out == "verified: false\n"


@pytest.mark.parametrize("edit", [
    lambda doc: doc["params"].update(depth=9),
    lambda doc: doc["params"].update(max_host=11),
    lambda doc: doc["payload"].update(max_host=11),
    lambda doc: doc["payload"].update(pattern_pairs_checked=5),
    lambda doc: doc["payload"].update(nodes=1),
])
def test_verify_compares_a_stable_payload_with_the_search_its_params_ask_for(
        files, tmp_path, capsys, edit):
    paths = _paths(files, tmp_path)
    cert = tmp_path / "stable.cert"
    flags = _argv(paths, "--age set --a p1 --z p2")
    assert cli.main(["stability", *flags, "--depth", "4", "--certificate", str(cert),
                     "--no-cache"]) == 1
    assert cli.main(["verify", str(cert), *flags]) == 0
    doc = json.loads(cert.read_text())
    assert doc["payload"]["max_host"] == 12
    edit(doc)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), *flags]) == 1
    assert capsys.readouterr().out == "verified: false\n"


def test_verify_refuses_a_degenerate_failing_proximal_arrow(files, tmp_path, capsys):
    # a kind that its decider never writes and that has no independent
    # check re-runs, and proximal-arrow has no decider to re-run
    paths = _paths(files, tmp_path)
    cert = tmp_path / "c.cert"
    flags = _argv(paths, "--universe b3 --a pt --coloring col --b a2")
    assert cli.main(["proximal-arrow", *flags, "--check", paths["check"], "--certificate",
                     str(cert)]) == 0
    doc = json.loads(cert.read_text())
    doc.update(verdict="fails", degenerate=True)
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), *flags]) == 1
    assert capsys.readouterr().out == "verified: false\n"


def test_verify_refuses_a_stable_claim_on_an_unstable_pair(files, tmp_path, capsys):
    # P1/P1 is unstable at depth 3 over sets; a forged stable payload
    # that records the re-run's own host bound and count is still refused
    paths = _paths(files, tmp_path)
    cert = tmp_path / "unstable.cert"
    flags = _argv(paths, "--age set --a p1 --z p1")
    assert cli.main(["stability", *flags, "--depth", "3", "--certificate", str(cert),
                     "--no-cache"]) == 0
    doc = json.loads(cert.read_text())
    doc.update(verdict="fails", payload={"depth": 3, "stable_up_to": False, "max_host": 6,
                                         "nodes": 0, "pattern_pairs_checked": 2})
    cert.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["verify", str(cert), *flags]) == 1
    assert capsys.readouterr().out == "verified: false\n"


@pytest.mark.parametrize("edit,error", [
    (lambda doc: doc.pop("payload"), "certificate lacks field payload"),
    (lambda doc: doc.update(payload=[]), "certificate field payload is not a JSON object"),
    # proximal-arrow takes no --age, so the check's own must be there
    (lambda doc: doc.update(age=None), "proximal-check certificate records no age"),
])
def test_proximal_arrow_refuses_a_malformed_check(files, tmp_path, capsys, edit, error):
    # the check is read as `verify` reads a certificate: a malformed one
    # exits 2 naming the field, not with a KeyError or TypeError traceback
    col = tmp_path / "const.col"
    col.write_text("colors: 2\n" + "".join(f"({v}) -> 1\n" for v in range(6)))
    check = tmp_path / "check.cert"
    base = ["--universe", files["c6"], "--a", files["pt"], "--coloring", str(col)]
    assert cli.main(["proximal-check", "--age", "linear_order", *base, "--d-max", "1",
                     "--certificate", str(check)]) == 0
    doc = json.loads(check.read_text())
    edit(doc)
    check.write_text(json.dumps(doc))
    capsys.readouterr()
    assert cli.main(["proximal-arrow", *base, "--b", files["a2"], "--check", str(check)]) == 2
    assert capsys.readouterr().err == f"error: {error}\n"


def test_proximal_arrow_refuses_a_forged_check(tmp_path, capsys):
    # (0,1,1) on the 3-set fails the proximal check; its certificate
    # edited to claim `holds` passes every refusal but does not verify
    for name, s in (("u", pure_set(3)), ("a", pure_set(1)), ("b", pure_set(2))):
        (tmp_path / f"{name}.st").write_text(serialize_structure(s))
    (tmp_path / "col").write_text("colors: 2\n(0) -> 0\n(1) -> 1\n(2) -> 1\n")
    base = [f"--{flag}={tmp_path / name}"
            for flag, name in (("universe", "u.st"), ("a", "a.st"), ("coloring", "col"))]
    check = tmp_path / "check.cert"
    assert cli.main(["proximal-check", "--age", "set", *base, "--d-max", "3",
                     "--certificate", str(check)]) == 1
    doc = json.loads(check.read_text())
    doc["verdict"] = "holds"
    check.write_text(certificates.dumps(doc))
    capsys.readouterr()
    assert cli.main(["proximal-arrow", *base, f"--b={tmp_path / 'b.st'}",
                     f"--check={check}"]) == 2
    assert capsys.readouterr().err == "error: proximal-check certificate does not verify\n"
    assert cli.main(["verify", str(check), "--age", "set", *base]) == 1


def test_proximal_arrow_reads_the_age_file_of_a_check_made_elsewhere(files, tmp_path, capsys,
                                                                     monkeypatch):
    # the check records its age file by absolute path, so proximal-arrow
    # reads the same age from any working directory
    made, elsewhere = tmp_path / "made", tmp_path / "elsewhere"
    made.mkdir()
    elsewhere.mkdir()
    (made / "my.age").write_text("age: linear_order\n")
    col = tmp_path / "const.col"
    col.write_text("colors: 2\n" + "".join(f"({v}) -> 1\n" for v in range(6)))
    check = tmp_path / "check.cert"
    base = ["--universe", files["c6"], "--a", files["pt"], "--coloring", str(col)]
    monkeypatch.chdir(made)
    assert cli.main(["proximal-check", "--age", "my.age", *base, "--d-max", "1",
                     "--certificate", str(check)]) == 0
    assert json.loads(check.read_text())["age"] == str(made / "my.age")
    monkeypatch.chdir(elsewhere)
    capsys.readouterr()
    assert cli.main(["proximal-arrow", *base, "--b", files["a2"], "--check", str(check)]) == 0
    assert capsys.readouterr().out.startswith("proximal-arrow: holds\n")


def test_resource_limit_exit_three(files):
    r = run_cli(["stability", "--age", "linear_order", "--a", files["pt"],
                 "--z", files["pt"], "--depth", "5", "--node-budget", "10"])
    assert r.returncode == 3


def test_stability_budget_exit_names_the_pattern_pairs_decided(files):
    r = run_cli(["stability", "--age", "linear_order", "--a", files["pt"],
                 "--z", files["pt"], "--depth", "5", "--node-budget", "200", "--no-cache"])
    assert r.returncode == 3
    assert ("stability search: node budget 200 exceeded after deciding 1 of 6 "
            "pattern pairs") in r.stderr, r.stderr


def test_verify_budget_exit_in_the_pair_search_names_verify(files):
    # the re-run of a stable verdict runs out inside the pattern-pair
    # search; its exit names the budget of `verify`, as every other does
    p1, p2 = files["root"] / "p1.st", files["root"] / "p2.st"
    p1.write_text(serialize_structure(pure_set(1)))
    p2.write_text(serialize_structure(pure_set(2)))
    cert_path = str(files["root"] / "stable.cert")
    args = ["--age", "set", "--a", str(p1), "--z", str(p2)]
    r = run_cli(["stability", *args, "--depth", "4", "--certificate", cert_path, "--no-cache"])
    assert r.returncode == 1, r.stderr  # stable
    r = run_cli(["verify", cert_path, *args, "--node-budget", "500"])
    assert r.returncode == 3
    assert ("verify: node budget 500 exceeded after deciding 3 of 6 pattern pairs"
            in r.stderr), r.stderr


def test_stability_budget_exit_names_the_pattern_enumeration(files):
    # the budget runs out while the patterns are listed, before any pair
    r = run_cli(["stability", "--age", "linear_order", "--a", files["a2"],
                 "--z", files["pt"], "--depth", "4", "--node-budget", "10", "--no-cache"])
    assert r.returncode == 3
    assert ("stability search: node budget 10 exceeded in joint_embeddings"
            in r.stderr), r.stderr


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
    convex = ["convex-arrow", "--a", files["a2"], "--b", files["b3"],
              "--c", files["c6"], "--epsilon", "0.6", "--json"]
    for argv in (args, convex):
        outs = [run_cli(argv).stdout for _ in range(3)]
        assert outs[0] and outs[0] == outs[1] == outs[2]
        par = [run_cli(argv + ["--parallel", "4"]).stdout for _ in range(3)]
        assert par[0] == par[1] == par[2] == outs[0]


def test_parallel_keeps_the_node_budget(files):
    args = ["arrow", "--age", "linear_order", "--a", files["a2"],
            "--b", files["b3"], "--c", files["c6"], "--colors", "2",
            "--node-budget", "400"]
    for extra in ([], ["--parallel", "2"]):
        r = run_cli(args + extra)
        assert r.returncode == 3, (extra, r.stdout)
        assert "classical_arrow" in r.stderr


def test_every_search_obeys_the_node_budget(files, tmp_path):
    # 5 partitions of the 3 embeddings of a point into C3: 15 nodes
    invariant = ["invariant-partitions", "--host", files["b3"], "--a", files["pt"],
                 "--max-blocks", "3"]
    coherent = ["coherent-partitions", "--chain", f"{files['a2']},{files['b3']}",
                "--a", files["pt"], "--max-blocks", "2"]
    for argv in (invariant, coherent):
        assert run_cli(argv).returncode == 0
        r = run_cli(argv + ["--node-budget", "5"])
        assert r.returncode == 3, (argv[0], r.stdout)
        assert f"{argv[0].replace('-', '_')}: node budget 5 exceeded" in r.stderr
    # the exhaustive re-check of a holding arrow enumerates 2^15 colorings
    cert_path = str(tmp_path / "holds.cert")
    run_cli(["arrow", "--age", "linear_order", "--a", files["a2"], "--b", files["b3"],
             "--c", files["c6"], "--colors", "2", "--certificate", cert_path])
    verify = ["verify", cert_path, "--age", "linear_order", "--a", files["a2"],
              "--b", files["b3"], "--c", files["c6"]]
    assert "verified: true" in run_cli(verify).stdout
    r = run_cli(verify + ["--node-budget", "10"])
    assert r.returncode == 3, r.stdout
    assert "verify: node budget 10 exceeded" in r.stderr


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
    # a hit prints the human lines of a fresh run, witness included
    for human in (["stability", "--age", "linear_order", "--a", files["pt"],
                   "--z", files["pt"], "--depth", "4"],
                  ["convex-arrow", "--a", files["a2"], "--b", files["b3"],
                   "--c", files["c6"], "--epsilon", "0.6"]):
        fresh = run_cli(human + ["--no-cache"])
        stored = run_cli(human, env_extra={"ARROWBENCH_CACHE_DIR": cache_dir})
        hit = run_cli(human, env_extra={"ARROWBENCH_CACHE_DIR": cache_dir})
        assert fresh.returncode == stored.returncode == hit.returncode == 0
        assert fresh.stdout == stored.stdout == hit.stdout, human[0]


# one small decision per subcommand but verify, and the params of its report
_PARAMS = {
    "parse": ("a2", {}),
    "enumerate": ("--age graph --n 2", {"n": 2}),
    "embeddings": ("--a pt --b a2", {}),
    "patterns": ("--age linear_order --a pt --z pt --z pt", {}),
    "pattern-count": ("--age linear_order --a pt --z pt", {}),
    "arrow": ("--age linear_order --a pt --b a2 --c b3 --colors 2", {"colors": 2}),
    "arrow-search": ("--age linear_order --a pt --b a2 --colors 2 --max-n 3",
                     {"colors": 2, "max_n": 3}),
    "definable-arrow": ("--age linear_order --a pt --b a2 --c b3 --z pt", {}),
    "stable-arrow": ("--age set --a p1 --b p2 --c p3 --z p1 --depth 4",
                     {"depth": 4, "max_host": None}),
    "roelcke-witness": ("--age linear_order --a pt --b a2 --z pt", {"max_n": None}),
    "stability": ("--age linear_order --a pt --z pt --depth 2 --max-host 3",
                  {"depth": 2, "max_host": 3}),
    "proximal-check": ("--age linear_order --universe b3 --a pt --coloring col --d-max 1",
                       {"d_max": 1}),
    "proximal-arrow": ("--universe b3 --a pt --b a2 --coloring col --check check", {}),
    "convex-arrow": ("--a pt --b a2 --c b3 --epsilon 0.6", {"epsilon": 0.6}),
    "orbits": ("--host b3 --a pt", {}),
    "invariant-partitions": ("--host b3 --a pt --max-blocks 2", {"max_blocks": 2}),
    "coherent-partitions": ("--chain a2,b3 --a pt --max-blocks 2", {"max_blocks": 2}),
    "amalgamation": ("--age linear_order --property amalgamation --bound 2",
                     {"property": "amalgamation", "bound": 2}),
}

# the flags that name files rather than params
_FILE_FLAGS = {"infile", "cert", "--a", "--b", "--c", "--host", "--universe", "--z", "--chain",
               "--coloring", "--check"}


@pytest.mark.parametrize("command", [c for c in cli._COMMANDS if c != "verify"])
def test_report_params_are_the_value_flags(files, tmp_path, capsys, command):
    # a report's params are exactly its subcommand's value flags, by dest
    flags, params = _PARAMS[command]
    own = cli._COMMANDS[command][2]
    value_flags = {t.strip("[].") for t in own.split()} - _FILE_FLAGS
    assert set(params) == {f.lstrip("-").replace("-", "_") for f in value_flags}
    argv = [command, *_argv(_paths(files, tmp_path), flags), "--json", "--no-cache"]
    capsys.readouterr()
    assert cli.main(argv) in (0, 1)
    assert json.loads(capsys.readouterr().out)["params"] == params


# per cached decider: a decision, a flag and two values of it; each value
# flag of the subcommand is varied, and definable-arrow, which has none,
# varies its age
_CACHE_VARIANTS = (
    ("arrow --age linear_order --a pt --b a2 --c b3", "--colors", "2", "3"),
    ("arrow-search --age linear_order --a pt --b a2 --max-n 3", "--colors", "2", "3"),
    ("arrow-search --age linear_order --a pt --b a2 --colors 2", "--max-n", "2", "3"),
    ("definable-arrow --a k1 --b k2 --c k2 --z k1", "--age", "graph", "graph_kfree:3"),
    ("stable-arrow --age set --a p1 --b p2 --c p3 --z p1", "--depth", "4", "5"),
    ("stable-arrow --age set --a p1 --b p2 --c p3 --z p1 --depth 4", "--max-host", "3", "4"),
    ("roelcke-witness --age linear_order --a pt --b a2 --z pt", "--max-n", "2", "3"),
    ("stability --age linear_order --a pt --z pt", "--depth", "2", "3"),
    ("stability --age linear_order --a pt --z pt --depth 3", "--max-host", "2", "3"),
    ("convex-arrow --a pt --b a2 --c b3", "--epsilon", "0.6", "0.5"),
)


def test_cache_variants_vary_every_value_flag():
    for command in cli._CACHED:
        varied = {flag for argv, flag, _, _ in _CACHE_VARIANTS if argv.split()[0] == command}
        want = {"--" + p.replace("_", "-") for p in _PARAMS[command][1]}
        assert varied == (want or {"--age"}), command


@pytest.mark.parametrize("argv,flag,first,second", _CACHE_VARIANTS,
                         ids=[f"{a.split()[0]}{f}" for a, f, _, _ in _CACHE_VARIANTS])
def test_every_value_flag_reaches_the_cache_key(files, tmp_path, capsys, argv, flag, first,
                                                second):
    # two runs that share a cache and differ in one flag: the second is
    # decided afresh, reports its own flag and leaves a second entry
    paths = _paths(files, tmp_path)
    cache_dir = str(tmp_path / "cache")
    reports = []
    for value in (first, second):
        capsys.readouterr()
        assert cli.main([*_argv(paths, argv), flag, value, "--json", "--cache-dir",
                         cache_dir]) in (0, 1)
        reports.append(json.loads(capsys.readouterr().out))
    assert len(os.listdir(cache_dir)) == 2
    assert cli.main([*_argv(paths, argv), flag, second, "--json", "--no-cache"]) in (0, 1)
    assert reports[1] == json.loads(capsys.readouterr().out) != reports[0]


def test_cache_keeps_relabelings_apart(files, tmp_path):
    # a failing report's coloring is written over its run's labeling of
    # C, so a relabeled C gets its own entry and a certificate it verifies
    cache_dir = str(tmp_path / "cache")
    reversed_c5 = tmp_path / "c5_reversed.st"
    reversed_c5.write_text(serialize_structure(relabel(chain(5), [4, 3, 2, 1, 0])))
    for c5 in (files["c5"], str(reversed_c5)):
        cert = str(tmp_path / "c5.cert")
        inputs = ["--age", "linear_order", "--a", files["a2"], "--b", files["b3"],
                  "--c", c5]
        r = run_cli(["arrow", *inputs, "--colors", "2", "--cache-dir", cache_dir,
                     "--certificate", cert])
        assert r.returncode == 1, r.stderr
        assert "verified: true" in run_cli(["verify", cert, *inputs]).stdout
    assert len(os.listdir(cache_dir)) == 2


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
    r2 = run_cli(["proximal-arrow", "--universe", str(u5),
                  "--a", files["pt"], "--b", files["a2"], "--coloring", str(col),
                  "--check", check_cert])
    assert r2.returncode == 0, r2.stderr
    v = run_cli(["verify", check_cert, "--age", "linear_order", "--universe", str(u5),
                 "--a", files["pt"], "--coloring", str(col)])
    assert v.returncode == 0 and "verified: true" in v.stdout


def _main_output(argv):
    """cli.main(argv) in this process: (exit code, stdout, stderr)."""
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue(), err.getvalue()


def _coloring_text(kind, values):
    header = "colors: 2\n" if kind == "indexed" else "range: real\n"
    return header + "".join(f"({v}) -> {x!r}\n" for v, x in enumerate(values))


_VALUES = {"indexed": st.integers(0, 1),
           "real": st.one_of(st.sampled_from([0.0, 0.5, 0.5 + 1e-10, 1.0]),
                             st.floats(0, 1))}


@settings(max_examples=25, deadline=None)
@given(age=st.sampled_from(["linear_order", "set"]), kind=st.sampled_from(["indexed", "real"]),
       d_max=st.integers(1, 2), data=st.data())
def test_coloring_certificates_replay(age, kind, d_max, data):
    # a generated proximal-check certificate, and the proximal-arrow one
    # when the check holds, verify; a coloring changed in one value does not
    n = data.draw(st.integers(1, 5), label="n")
    values = data.draw(st.lists(_VALUES[kind], min_size=n, max_size=n), label="values")
    make = chain if age == "linear_order" else pure_set
    with tempfile.TemporaryDirectory() as d:
        paths = {name: os.path.join(d, name) for name in ("u", "a", "b", "col", "bad", "check",
                                                           "arrow")}
        for name, s in (("u", make(n)), ("a", make(1)), ("b", make(2))):
            with open(paths[name], "w") as fh:
                fh.write(serialize_structure(s))
        i = data.draw(st.integers(0, n - 1), label="changed")
        changed = list(values)
        changed[i] = (1 - values[i]) if kind == "indexed" else (1.0 if values[i] < 0.5 else 0.0)
        for name, vals in (("col", values), ("bad", changed)):
            with open(paths[name], "w") as fh:
                fh.write(_coloring_text(kind, vals))
        base = ["--universe", paths["u"], "--a", paths["a"]]
        rc, _, _ = _main_output(["proximal-check", "--age", age, *base, "--coloring",
                                 paths["col"], "--d-max", str(d_max),
                                 "--certificate", paths["check"]])
        assert rc in (0, 1)
        arrow = ["proximal-arrow", *base, "--b", paths["b"], "--coloring", paths["col"],
                 "--check", paths["check"], "--certificate", paths["arrow"]]
        replays = [(paths["check"], ["--age", age])]
        if rc == 0:
            assert _main_output(arrow)[0] in (0, 1)
            replays.append((paths["arrow"], ["--b", paths["b"]]))
        else:
            assert _main_output(arrow)[0] == 2
        for cert, flags in replays:
            verify = ["verify", cert, *base, *flags, "--coloring"]
            assert _main_output(verify + [paths["col"]])[:2] == (0, "verified: true\n")
            rc, _, err = _main_output(verify + [paths["bad"]])
            assert rc == 2 and err == "error: coloring digest mismatch\n"


@st.composite
def _decisions(draw):
    """A decision of a verifiable operation on small drawn inputs:
    (argvs, verify flags, structures, coloring values).  The last argv
    writes the certificate `cert`; the tokens a, b, c, z, pt, u, col and
    check name the files that _run_decision writes."""
    op = draw(st.sampled_from(sorted(certificates._VERIFIERS)))
    # stable-arrow needs stable coordinates: pure sets at depth 4
    age = "set" if op == "stable-arrow" else draw(st.sampled_from(["linear_order", "set"]))
    make = chain if age == "linear_order" else pure_set
    n = {name: draw(st.integers(1, top), label=name)
         for name, top in (("a", 2), ("b", 3), ("c", 4), ("z", 2))}
    if op == "convex-arrow":
        n["c"] = max(n["b"], n["c"])  # a copy of B in C
    if op == "stable-arrow":
        n["a"] = 1
    values = draw(st.lists(st.integers(0, 1), min_size=1, max_size=4), label="coloring")
    if op == "proximal-arrow":
        values = values[:1] * len(values)  # constant, so that the check at --d-max 1 passes
    structures = {name: make(size) for name, size in n.items()}
    structures.update(pt=make(1), u=make(len(values)))
    k = draw(st.integers(1, 2), label="k")
    max_host = draw(st.sampled_from(["", " --max-host 8"]), label="max_host")
    zs = " --z z" * draw(st.integers(0, 2), label="coordinates")
    check = f"--universe u --a pt --coloring col --d-max {k if op == 'proximal-check' else 1}"
    flags, verify = {
        "arrow": (f"--a a --b b --c c --colors {k}", "--a a --b b --c c"),
        "arrow-search": (f"--a a --b b --colors {k} --max-n {max(n['b'], 3)}", "--a a --b b"),
        "definable-arrow": ("--a a --b b --c c --z z", "--a a --b b --c c --z z"),
        "stable-arrow": (f"--a a --b b --c c{zs} --depth 4{max_host}", f"--a a --b b --c c{zs}"),
        "roelcke-witness": ("--a a --b b --z z" + draw(st.sampled_from(["", " --max-n 3"])),
                            "--a a --b b --z z"),
        # depth 4 can be stable, and is quick with a one-point A
        "stability": (f"--a a --z z --depth {k + 1 + (n['a'] == 1)}{max_host}", "--a a --z z"),
        "amalgamation": (f"--property {draw(st.sampled_from(cli._FLAGS['--property']['choices']))}"
                         f" --bound {k + 1}", ""),
        "convex-arrow": (f"--a a --b b --c c --epsilon {0.5 * k}", "--a a --b b --c c"),
        "proximal-check": (check, "--universe u --a pt --coloring col"),
        "proximal-arrow": ("--universe u --a pt --b b --coloring col --check check",
                           "--universe u --a pt --b b --coloring col"),
    }[op]
    decide = f"{op}{f' --age {age}' if cli._COMMANDS[op][3] else ''} {flags}"
    argvs = [f"proximal-check --age {age} {check} --certificate check"] * (op == "proximal-arrow")
    argvs.append(decide + " --certificate cert --no-cache")
    return argvs, f"--age {age} {verify}", structures, values


def _run_decision(decision, directory):
    """Run the argvs of a drawn decision in `directory`: the certificate
    document, its path and the argv that verifies it."""
    argvs, verify, structures, values = decision
    paths = {name: os.path.join(directory, name)
             for name in (*structures, "col", "check", "cert")}
    for name, s in structures.items():
        with open(paths[name], "w") as fh:
            fh.write(serialize_structure(s))
    with open(paths["col"], "w") as fh:
        fh.write(_coloring_text("indexed", values))
    for argv in argvs:
        assert _main_output(_argv(paths, argv))[0] in (0, 1), argv
    with open(paths["cert"]) as fh:
        doc = json.load(fh)
    return doc, paths["cert"], ["verify", paths["cert"], *_argv(paths, verify)]


@settings(max_examples=100, deadline=None)
@given(_decisions())
def test_every_decided_certificate_has_its_declared_shape(decision):
    # and verifies: a re-run compared with the whole certificate must not
    # refuse what the decider wrote
    with tempfile.TemporaryDirectory() as d:
        doc, path, verify = _run_decision(decision, d)
        assert certificates.load_certificate(path) == doc
        assert _main_output(verify)[:2] == (0, "verified: true\n")


def _declared_fields(value, shape, path=()):
    """(path, shape, optional) of every field that `shape` declares and
    `value` has, at any depth."""
    if isinstance(shape, dict):
        for key, item in shape.items():
            field = key.rstrip("?")
            if field in value:
                yield path + (field,), item, field != key
                yield from _declared_fields(value[field], item, path + (field,))
    elif isinstance(shape, list):
        items = [shape[0]] * len(value) if shape[-1] is ... else shape
        for i, (item, item_shape) in enumerate(zip(value, items)):
            yield from _declared_fields(item, item_shape, path + (i,))


def _json_types(shape) -> set:
    """The Python types of the JSON values that `shape` admits."""
    if isinstance(shape, tuple):
        return set().union(*map(_json_types, shape))
    if isinstance(shape, (dict, list)):
        return {type(shape)}
    return {str} if shape in (str, bytes) or isinstance(shape, str) else {
        float: {int, float}, None: {type(None)}}.get(shape, {shape})


_JSON_VALUES = ("x", 7, 0.5, True, None, [], [1], {})


@settings(max_examples=150, deadline=None)
@given(_decisions(), st.data())
def test_verify_refuses_a_deleted_or_retyped_declared_field(decision, data):
    # whatever declared field goes or changes its JSON type, verify exits
    # 2 naming it, before any re-check: never 1 and never a traceback
    with tempfile.TemporaryDirectory() as d:
        doc, path, verify = _run_decision(decision, d)
        _, _, params, payload = certificates._VERIFIERS[doc["operation"]]
        kind = ("degenerate " if doc["degenerate"] else "") + doc["verdict"]
        shape = {**certificates._DOCUMENT, "params": params,
                 "payload": {**payload.get(kind, {}), **payload.get("", {})}}
        field, field_shape, optional = data.draw(
            st.sampled_from(list(_declared_fields(doc, shape))), label="field")
        parent = doc
        for step in field[:-1]:
            parent = parent[step]
        if not optional and data.draw(st.booleans(), label="delete"):
            del parent[field[-1]]
        else:
            parent[field[-1]] = data.draw(st.sampled_from(
                [v for v in _JSON_VALUES if type(v) not in _json_types(field_shape)]),
                label="value")
        with open(path, "w") as fh:
            json.dump(doc, fh)
        rc, out, err = _main_output(verify)
        assert rc == 2 and err.startswith("error: certificate "), (field, rc, out, err)


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


def test_convex_cli_past_vertex_enumeration(files):
    # 15 A-copies: 2^15 {0,1}-colorings, which the compact LP never lists
    cert_path = str(files["root"] / "convex-c6.cert")
    r = run_cli(["convex-arrow", "--a", files["a2"], "--b", files["b3"],
                 "--c", files["c6"], "--epsilon", "0.6", "--json",
                 "--certificate", cert_path])
    assert r.returncode == 0, r.stderr
    assert abs(json.loads(r.stdout)["payload"]["value"] - 9 / 16) <= 1e-9
    v = run_cli(["verify", cert_path, "--a", files["a2"], "--b", files["b3"],
                 "--c", files["c6"]])
    assert v.returncode == 0 and "verified: true" in v.stdout, v.stderr


def test_convex_cli_node_budget_bounds_the_lp(tmp_path):
    paths = []
    for n in (1, 3, 11):
        p = tmp_path / f"c{n}.st"
        p.write_text(serialize_structure(chain(n)))
        paths.append(str(p))
    r = run_cli(["convex-arrow", "--a", paths[0], "--b", paths[1], "--c", paths[2],
                 "--epsilon", "0.25", "--node-budget", "5", "--no-cache"])
    assert r.returncode == 3, r.stderr
    assert "convex LP" in r.stderr


def test_convex_cli_does_not_import_scipy(files):
    code = ("import sys; from arrowbench.cli import main; "
            f"code = main(['convex-arrow', '--a', {files['a2']!r}, '--b', {files['b3']!r}, "
            f"'--c', {files['c6']!r}, '--epsilon', '0.6', '--no-cache']); "
            "assert code == 0, code; assert 'scipy' not in sys.modules; "
            "assert 'numpy' not in sys.modules")
    r = subprocess.run([sys.executable, "-c", code], capture_output=True, text=True,
                       cwd=PKG_ROOT)
    assert r.returncode == 0, r.stderr


def test_amalgamation_cli():
    r = run_cli(["amalgamation", "--age", "graph", "--property",
                 "free-amalgamation", "--bound", "2"])
    assert r.returncode == 0
    r = run_cli(["amalgamation", "--age", "linear_order", "--property",
                 "free-amalgamation", "--bound", "2"])
    assert r.returncode == 1


# sha256 of the --json report of fast decisions: a speed-up must leave
# every report byte-identical, node counts included
_PINNED_REPORTS = (
    ("stability --age set --a P1 --z P2 --depth 4", 1,
     "dc542e231cbea7283ba838213ade33865c06daa7d6e0d5149a9b190d9c1c54cf"),
    ("stability --age linear_order --a C2 --z C1 --depth 4", 0,
     "d4fdf6e6a6b792c35609a06222d9d135ae1f5286bee65c9f701084ee389ef17c"),
    ("amalgamation --age graph_kfree:3 --property amalgamation --bound 3", 0,
     "39816a291a5aa8d3421c747eecc3e59e4cac1c922f7717e8c945673c7c069500"),
    # one completion search per symmetry orbit: a holding probe, a failing
    # one and the bound-4 graphs (25,549 instances in 1,762 orbits)
    ("amalgamation --age graph --property free-amalgamation --bound 3", 0,
     "04bbf5ca3392c16a8ba480f67b75ca6ca21e7d4c13e3cfa412859501f02be499"),
    ("amalgamation --age linear_order --property free-amalgamation --bound 3", 1,
     "34dd3c4f6c6f662002bb2fc620ef5578ca37b9495bdc35537e575dde8b1dd48b"),
    ("amalgamation --age graph --property free-amalgamation --bound 4", 0,
     "6e44e97ba50b94f96599f43c04afa06fec03c8ff6e50e86b751488e1d0fb5047"),
    ("arrow --age linear_order --a C2 --b C3 --c C6 --colors 2", 0,
     "5f802cadd83752372e7d5d70bd4af0e1423d3adf1bc28f526eb791b2f0e086eb"),
    # the lex-leader prune under |Aut(C)| = 5,040 and 720
    ("arrow --age set --a P2 --b P3 --c P7 --colors 2", 1,
     "d23f96e222404f7a47e079a7bd2dccaa5e26b192911f9f2b5b4248b04a9633ae"),
    ("arrow --age graph --a K1 --b K3 --c K6 --colors 2", 0,
     "dd4c2c6aea612df602860a1e16900aa70f0ec850e1b26e7687b3df10f84d74f0"),
    # canonical codes in hex and their digests
    ("enumerate --age graph --n 5", 0,
     "db23b18e3510879a12e92fd084b898cfc576f1448bea82438611cbd75ba49360"),
    ("enumerate --age tournament --n 5", 0,
     "7eb250958fdf16e237ebe3715ce9c6e2ef394c947773e38a18f656e490ae6098"),
    # the enumerations of the benchmark's orderly workload
    ("enumerate --age graph --n 6", 0,
     "b77c3cc3b50b0afa56f4b7eef198ac72c33eb9999c3ff8ff4450baf66fc0bde2"),
    ("enumerate --age tournament --n 6", 0,
     "a830b8f254390d6575a6de618c2ebad54b100e76bb2a9c0986864fa2719b5ae2"),
    ("arrow-search --age graph --a K1 --b K3 --colors 2 --max-n 6", 0,
     "f953d48d3ad4c79890793f88a44564d9c2d2b587e929018a0d10f046bd933375"),
    # the pattern-constant arrows, the convex LP and pattern listing
    ("definable-arrow --age graph --a K1 --b K2 --c K5 --z K2", 0,
     "95b77d60598965c8230d1fffd8aca4bbe1508e0617d862a88bc7ee2fef157042"),
    ("stable-arrow --age set --a P1 --b P2 --c P4 --z P1 --z P1 --depth 4", 0,
     "4597bd734e2ee66160c3e5e2108315f2e20874c2fc8637b52a1f30505d6ca823"),
    ("roelcke-witness --age graph --a K2 --b K3 --z K2", 0,
     "5ef7a58ff45986b953163582ea18caaa779b6d3d53b5aa08314a44c2598d3617"),
    ("convex-arrow --a C1 --b C2 --c C8 --epsilon 0.1", 1,
     "1727d78365ea6b766edd7d999d5f6b2f0979e2658dfa1cc2d34c12dc20bdceca"),
    ("patterns --age graph --a K1 --z K2", 0,
     "bbce0f7b00afc396423a7ed8c4ad7ab2399bc4f56779320ed183796cf64de079"),
    # a failing pattern arrow's least-coded witness, and a pattern count
    ("definable-arrow --age linear_order --a C1 --b C2 --c C4 --z C2", 1,
     "f8717c18fe71341c4d5429222c695e15f10a220eff102fb1d5b3b2c8162dcbd3"),
    ("pattern-count --age graph --a K3 --z K2", 0,
     "4a072122d8a8746aa42f86ae3863c1ec25e9982742e8915b350bafa745c17fe6"),
    # 122 coherent families along a chain of orders
    ("coherent-partitions --chain C2,C3,C4 --a C2 --max-blocks 3", 0,
     "5b46071e0aad0c806d2b0988674918ba0ef9bd3e46ecc4848ea8767ffe0b1252"),
)


@pytest.mark.parametrize("argv,rc,digest", _PINNED_REPORTS)
def test_report_digests_are_pinned(argv, rc, digest, tmp_path):
    import hashlib

    inputs = {"P1": pure_set(1), "P2": pure_set(2), "P3": pure_set(3), "P4": pure_set(4),
              "P7": pure_set(7), "C1": chain(1), "C2": chain(2), "C3": chain(3),
              "C4": chain(4), "C6": chain(6), "C8": chain(8), "K1": k_graph(1),
              "K2": k_graph(2), "K3": k_graph(3), "K5": k_graph(5), "K6": k_graph(6)}
    args = []
    for tok in argv.split():
        names = tok.split(",")  # --chain takes a comma-separated list
        for i, name in enumerate(names):
            if name in inputs:
                path = tmp_path / f"{name}.st"
                path.write_text(serialize_structure(inputs[name]))
                names[i] = str(path)
        args.append(",".join(names))
    r = run_cli(args + ["--json", "--no-cache"])
    assert r.returncode == rc, r.stderr
    assert hashlib.sha256(r.stdout.encode()).hexdigest() == digest, r.stdout
