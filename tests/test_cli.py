import hashlib
import json
import os
import re
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

import treeconn as tc
from treeconn import cli
from treeconn.cli import export_dot, main


def run_cli(capsys, *argv):
    code = main(list(argv))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_enum_counts(capsys):
    assert run_cli(capsys, "enum", "embeddings", "chain2", "chain3", "--count")[:2] == (0, "2\n")
    assert run_cli(capsys, "enum", "rigid", "chain3", "chain2", "--count")[:2] == (0, "3\n")
    assert run_cli(capsys, "enum", "conn", "chain2", "chain3", "--count")[:2] == (0, "4\n")


def test_enum_listing_is_json_lines(capsys):
    code, out, _ = run_cli(capsys, "enum", "conn", "chain2", "chain3")
    assert code == 0
    lines = out.strip().splitlines()
    assert len(lines) == 4
    recs = [json.loads(line) for line in lines]
    assert all(rec["category"] == "conn" for rec in recs)
    keys = [(tuple(r["surj"]), tuple(r["emb"])) for r in recs]
    assert keys == sorted(keys)


def test_tree_argument_forms(tmp_path, capsys):
    p = tmp_path / "t.json"
    p.write_text(json.dumps(tc.tree_to_record(tc.chain(3))))
    assert run_cli(capsys, "enum", "embeddings", "chain2", str(p), "--count")[1] == "2\n"
    assert run_cli(capsys, "enum", "embeddings", "(())", "((()))", "--count")[1] == "2\n"
    # Tree and forest files may also hold parenthesis text.
    tree, forest = tmp_path / "t.txt", tmp_path / "f.txt"
    tree.write_text("((()))\n")
    forest.write_text("()(())\n")
    assert run_cli(capsys, "enum", "embeddings", "chain2", str(tree), "--count")[:2] == (0, "2\n")
    assert run_cli(capsys, "construct", "add-root", str(forest))[:2] == (0, "(()(()))\n")


def test_construct_commands(tmp_path, capsys):
    code, out, _ = run_cli(capsys, "construct", "plus-leaf", "chain2")
    assert (code, out) == (0, "((()))\n")
    code, out, _ = run_cli(capsys, "construct", "add-root", "empty")
    assert (code, out) == (0, "()\n")
    code, out, err = run_cli(capsys, "construct", "doubling", "chain2")
    rec = json.loads(out)
    assert rec["tree"] == {"n": 4, "parent": [None, 0, 1, 1]}
    assert rec["surjection"] == [0, 1, 1, 1]
    assert rec["doubles"] == [[1, 2, 3]]
    assert len(rec["embeddings"]) == 2  # one per subset of the marked set
    assert err.strip() == "((()()))"  # rendered shape of the doubled tree
    code, out, _ = run_cli(
        capsys, "construct", "graft", "chain2", "()", "()", "--at", "0,1"
    )
    assert json.loads(out)["tree"]["n"] == 4


def test_arrow_exit_codes(tmp_path, capsys):
    cert_path = tmp_path / "cert.json"
    code = main(["arrow", "chain2", "chain3", "chain6", "--cat", "incinj", "-r", "2",
                 "--out", str(cert_path)])
    assert code == 0
    assert json.loads(cert_path.read_text())["verdict"] == "arrows"
    code = main(["arrow", "chain2", "chain3", "chain5", "--cat", "incinj", "-r", "2",
                 "--out", str(cert_path)])
    assert code == 1
    rec = json.loads(cert_path.read_text())
    assert rec["verdict"] == "fails" and rec["coloring"] is not None
    capsys.readouterr()


def test_degree_command(capsys):
    code, out, _ = run_cli(
        capsys, "degree", "chain2", "chain2", "chain2", "--cat", "conn", "-r", "2",
    )
    assert code == 0
    assert json.loads(out)["k"] == 1


def test_verify_commands(capsys):
    code, out, _ = run_cli(capsys, "verify", "lower-bound", "chain2", "--witness", "self")
    assert code == 0 and "pass" in out
    code, out, _ = run_cli(capsys, "verify", "lower-bound", "chain2", "--witness", "double")
    assert code == 0
    code, out, _ = run_cli(capsys, "verify", "no-ramsey", "chain2", "--vertex", "1")
    assert code == 0 and "pass" in out
    # --vertex defaults to 1.
    assert run_cli(capsys, "verify", "no-ramsey", "chain2") == (code, out, "")


def test_input_and_budget_exit_codes(capsys):
    code, _, err = run_cli(capsys, "enum", "embeddings", "((", "chain3")
    assert code == 3 and "parse error" in err
    # Neither a file, a literal nor chainK.
    code, out, err = run_cli(capsys, "enum", "embeddings", "chain2", "chain")
    assert (code, out, err) == (3, "", "error: cannot resolve tree argument 'chain'\n")
    code, _, err = run_cli(capsys, "--budget-max-vertices", "3",
                           "enum", "conn", "chain2", "chain4", "--count")
    assert code == 2 and "budget" in err


def test_no_ramsey_with_no_outer_morphism_fails(capsys):
    # chain2 is smaller than doubling(chain2): Hom(T, witness) is empty, so
    # nothing was checked and the report must not pass.
    code, out, _ = run_cli(capsys, "verify", "no-ramsey", "chain2", "--vertex", "1",
                           "--witness", "chain2")
    assert (code, out) == (1, "two-coloring-separation: FAIL (0 checks, direct)\n")


def test_usage_errors_exit_3(capsys):
    # A missing argument, and a budget flag after the subcommand (the budget
    # flags belong before it).
    code, _, err = run_cli(capsys, "arrow", "chain2")
    assert code == 3 and "usage:" in err
    code, _, err = run_cli(capsys, "arrow", "chain2", "chain3", "chain5", "--cat", "incinj",
                           "-r", "2", "--budget-time", "20")
    assert code == 3 and "unrecognized arguments: --budget-time" in err
    # No command enumerates trees, so there is no --budget-max-tree flag.
    code, out, err = run_cli(capsys, "--budget-max-tree", "1", "enum", "emb", "chain2", "chain3")
    assert (code, out) == (3, "") and "usage:" in err
    for argv in (["--help"], ["arrow", "--help"]):
        code, out, _ = run_cli(capsys, *argv)
        assert code == 0 and out.startswith("usage: treeconn")


@pytest.mark.parametrize("kind", ["doubling", "plus-leaf", "star", "graft"])
def test_construct_without_a_tree_names_it(capsys, kind):
    code, out, err = run_cli(capsys, "construct", kind)
    assert (code, out, err) == (3, "", f"error: construct {kind} needs a tree argument\n")


@pytest.mark.parametrize("extra", ["second-input", "at"])
@pytest.mark.parametrize("kind", ["doubling", "plus-leaf", "star", "add-root"])
def test_construct_refuses_extra_arguments(capsys, kind, extra):
    # Only graft takes more than one tree, or anchors; a two-tree forest
    # for add-root is the single argument "()()".
    tree = "()" if kind == "add-root" else "chain2"
    inputs = [tree, tree] if extra == "second-input" else [tree, "--at", "0"]
    code, out, err = run_cli(capsys, "construct", kind, *inputs)
    assert (code, out) == (3, "")
    assert err == f"error: construct {kind} takes one argument and no --at\n"


@pytest.mark.parametrize("argv, message", [
    ("export chain3 --dot --json", "argument --json: not allowed with argument --dot"),
    ("export chain3 --json --labels {table}", "error: --labels applies only to export --dot"),
    ("verify lower-bound chain2 --vertex 7", "error: --vertex applies only to verify no-ramsey"),
])
def test_flags_that_do_not_apply_exit_3(tmp_path, capsys, argv, message):
    # Each of these once exited 0 and dropped a flag without a word.
    table = tmp_path / "table.json"
    table.write_text(json.dumps(tc.doubling_tree(tc.chain(2)).to_record()))
    code, out, err = run_cli(capsys, *shlex.split(argv.format(table=table)))
    assert (code, out) == (3, "") and message in err


GOOD_RECORD = tc.connection_to_record(tc.doubling_tree(tc.chain(2)).connection_for({1}))


@pytest.mark.parametrize("command, record, field", [
    ("invariant", {"category": "conn"}, "'source'"),
    ("invariant", [1], "'category'"),
    ("invariant", dict(GOOD_RECORD, target={"n": 1}), "'parent'"),
    ("invariant", dict(GOOD_RECORD, surj=3), "'surj'"),
    ("invariant", dict(GOOD_RECORD, emb=[[0], 1]), "'emb'"),
    ("invariant", dict(GOOD_RECORD, domain_top="2"), "'domain_top'"),
    ("invariant", dict(GOOD_RECORD, domain_top=True), "'domain_top'"),
    ("invariant", dict(GOOD_RECORD, surj=[0, 1, True, 1]), "'surj'"),
    ("invariant", dict(GOOD_RECORD, emb=[0, True]), "'emb'"),
    ("invariant", dict(GOOD_RECORD, source={"n": 2, "parent": [None, False]}), "'parent'"),
    ("invariant", dict(GOOD_RECORD, source={"n": True, "parent": [None]}), "'n'"),
    ("invariant", dict(GOOD_RECORD, category="bogus"), "unknown category tag 'bogus'"),
    ("functor", None, "'category'"),
    ("tree", {"parent": 5}, "'parent'"),
    ("tree", {"parent": [None, "0"], "n": 2}, "'parent'"),
    ("forest", {"n": 0}, "'parent'"),
    ("config", [1], "--config"),
    ("config", {"max_hom": "5"}, "max_hom"),
    ("config", {"max_nodes": True}, "max_nodes"),
    ("config", {"time_cap": "1"}, "time_cap"),
    ("config", {"mode": "quick"}, "mode"),
    ("labels", [1], "--labels"),
    ("labels", {"vertex_map": 5}, "'vertex_map'"),
    ("labels", {"doubles": [5]}, "'doubles'"),
    ("labels", {"vertex_map": ["0", 1.5]}, "'vertex_map'"),
    ("labels", {"vertex_map": [1.5]}, "'vertex_map'"),
    ("labels", {"vertex_map": [0, True]}, "'vertex_map'"),
    ("labels", {"doubles": [["x\"y", 1, 2]]}, "'doubles'"),
    ("labels", {"doubles": [[1, 2, False]]}, "'doubles'"),
], ids=["no-source", "not-an-object", "target-without-parent", "surj-not-a-list", "emb-nested",
        "domain-top-string", "domain-top-bool", "surj-bool-entry", "emb-bool-entry",
        "parent-bool-entry", "n-bool", "unknown-category", "null", "tree-parent-int",
        "tree-parent-string-entry", "forest-without-parent", "config-not-an-object",
        "config-limit-string", "config-limit-bool", "config-time-cap-string", "config-mode",
        "labels-not-an-object", "labels-vertex-map-int", "labels-doubles-int",
        "labels-vertex-map-string", "labels-vertex-map-float", "labels-vertex-map-bool",
        "labels-doubles-string-base", "labels-doubles-bool"])
def test_malformed_records_exit_3(tmp_path, capsys, command, record, field):
    # A record of the wrong shape is bad input (3), not a failed check (1).
    path = tmp_path / "rec.json"
    path.write_text(json.dumps(record))
    argv = {"invariant": ["invariant", json.dumps(record)],
            "functor": ["functor", "strong", json.dumps(record)],
            "tree": ["enum", "emb", "chain1", str(path), "--count"],
            "forest": ["construct", "add-root", str(path)],
            "config": ["--config", str(path), "enum", "emb", "chain2", "chain3", "--count"],
            "labels": ["export", "(())", "--dot", "--labels", str(path)]}[command]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and field in err


def test_export_dot_round_trip(capsys):
    t = tc.parse_tree("(()())")
    dot = export_dot(t)
    lines = dot.splitlines()
    assert lines[0] == "digraph tree {"
    edges = [ln for ln in lines if "->" in ln]
    assert edges == ["  n0 -> n1;", "  n0 -> n2;"]
    # Re-run is byte-identical.
    assert export_dot(t) == dot
    code, out, _ = run_cli(capsys, "export", "(()())", "--dot")
    assert code == 0 and out.strip() == dot
    code, out, _ = run_cli(capsys, "export", "chain1", "--dot")
    assert code == 0
    assert out.count("label") == 1 and "->" not in out


def test_export_labels(tmp_path, capsys):
    table = tmp_path / "table.json"
    rec = tc.doubling_tree(tc.chain(2)).to_record()
    table.write_text(json.dumps(rec))
    code, out, _ = run_cli(capsys, "export", "((()()))", "--dot", "--labels", str(table))
    assert code == 0
    assert 'n2 [label="1.1"]' in out
    assert 'n3 [label="1.2"]' in out


@pytest.mark.parametrize("table, field", [
    ({"vertex_map": [0, 99], "doubles": [[1, -5, 40]]}, "'vertex_map' names vertex 99"),
    ({"vertex_map": [0, 1], "doubles": [[1, -5, 40]]}, "'doubles' names vertex -5"),
    ({"doubles": [[1, 2, 4]]}, "'doubles' names vertex 4"),
], ids=["vertex-map", "doubles-negative", "doubles-past-the-end"])
def test_export_labels_outside_the_tree_exit_3(tmp_path, capsys, table, field):
    # A table for another tree would label the wrong vertices or none.
    path = tmp_path / "t.json"
    path.write_text(json.dumps(table))
    code, out, err = run_cli(capsys, "export", "((()()))", "--dot", "--labels", str(path))
    assert (code, out) == (3, "")
    assert err.startswith("error: ") and field in err and "4-vertex tree" in err


def test_invariant_and_functor_commands(tmp_path, capsys):
    dbl = tc.doubling_tree(tc.chain(2))
    rec = json.dumps(tc.connection_to_record(dbl.connection_for({1})))
    code, out, _ = run_cli(capsys, "invariant", rec)
    assert (code, out.strip()) == (0, "[1]")
    path = tmp_path / "m.json"
    path.write_text(rec)
    code, out, _ = run_cli(capsys, "functor", "strong", str(path))
    assert code == 0
    payload = json.loads(out)
    assert payload["before"]["domain_top"] is None
    assert payload["after"]["domain_top"] == 2
    assert payload["after"]["surj"] == [0, 1, 1]
    code, out, _ = run_cli(capsys, "functor", "prune", json.dumps(payload["after"]))
    assert code == 0
    assert json.loads(out)["bits"] == [1]
    code, out, _ = run_cli(capsys, "functor", "lower", json.dumps(payload["after"]))
    assert code == 0
    assert json.loads(out)["after"]["emb"] == [0, 1]


@pytest.mark.parametrize("category", [tc.RIGID, tc.EMB, tc.INC_INJ, tc.CONN_LINEAR, tc.CONN_ROOT])
def test_invariant_refuses_categories_without_disagreement_sets(capsys, category):
    rec = tc.connection_to_record(tc.enumerate_hom(category, tc.chain(2), tc.chain(3))[0])
    code, out, err = run_cli(capsys, "invariant", json.dumps(rec))
    assert (code, out) == (3, "")
    assert err == ("error: disagreement sets are defined for conn and psc morphisms, "
                   f"not {category}\n")


def test_unknown_names_its_limit_on_stderr(capsys):
    for flags, command, limit in ((["--budget-max-nodes", "1"], "arrow", "max_nodes"),
                                  (["--budget-max-hom", "3"], "degree", "max_hom")):
        argv = [command, "chain2", "chain3", "chain6", "--cat", "incinj", "-r", "2"]
        code, out, err = run_cli(capsys, *flags, *argv)
        explored = 1 if limit == "max_nodes" else 0
        assert (code, err) == (2, f"unknown: {limit}\n")
        assert out == f'{{"coloring":null,"explored":{explored},"k":null,"r":2,"verdict":"unknown"}}\n'


def test_config_file_flags_win(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_vertices": 3, "mode": "fast"}))
    code, _, _ = run_cli(capsys, "--config", str(cfg),
                         "enum", "conn", "chain2", "chain4", "--count")
    assert code == 2  # config bound applies
    code, out, _ = run_cli(capsys, "--config", str(cfg), "--budget-max-vertices", "8",
                           "enum", "conn", "chain2", "chain4", "--count")
    assert code == 0  # flag overrides config


def test_config_file_unknown_key_is_an_error(tmp_path, capsys):
    cfg = tmp_path / "cfg.json"
    cfg.write_text(json.dumps({"max_hom_": 1, "mode": "fast"}))
    code, out, err = run_cli(capsys, "--config", str(cfg), "--mode", "canonical",
                             "enum", "conn", "chain2", "chain3", "--count")
    assert code == 3
    assert "max_hom_" in err and out == ""
    cfg.write_text(json.dumps({"max_hom": 1, "mode": "fast"}))
    code, _, err = run_cli(capsys, "--config", str(cfg), "--mode", "canonical",
                           "enum", "conn", "chain2", "chain3", "--count")
    assert code == 2  # the limit the file sets applies


def test_parser_is_built_once(capsys):
    cli.build_parser.cache_clear()
    for _ in range(2):
        assert run_cli(capsys, "enum", "conn", "chain2", "chain3", "--count")[:2] == (0, "4\n")
    info = cli.build_parser.cache_info()
    assert (info.misses, info.hits) == (1, 1)


# (argv, exit code, sha256 prefix of stdout) of the README examples and of
# every command form, pinned so that refactors keep the output byte-identical.
# --help is left out: its text varies across Python versions.
PINNED_OUTPUT = [
    ("enum embeddings chain2 chain3 --count", 0, "53c234e5e8472b6a"),
    ("enum embeddings chain2 chain3", 0, "69fb48b261346708"),
    ("enum emb chain2 (()())", 0, "362cfa180681ba41"),
    ("enum emb chain2 (()()) --count", 0, "53c234e5e8472b6a"),
    ("enum incinj chain2 (()())", 0, "ac864d9c5e78fab1"),
    ("enum incinj chain2 (()()) --count", 0, "1121cfccd5913f0a"),
    ("enum rigid chain3 chain2", 0, "4dd3599d3c71e6f2"),
    ("enum rigid chain3 chain2 --count", 0, "1121cfccd5913f0a"),
    ("enum conn chain2 chain3", 0, "ac54ea4c156c90d4"),
    ("enum conn chain2 chain3 --count", 0, "7de1555df0c27003"),
    ("enum conn-root chain2 ((()()))", 0, "0e3f8accd6368afc"),
    ("enum conn-root chain2 ((()())) --count", 0, "a1fb50e6c86fae16"),
    ("enum psc chain2 ((()()))", 0, "c4f1b294391a93be"),
    ("enum psc chain2 ((()())) --count", 0, "06e9d52c1720fca4"),
    ("construct doubling chain2", 0, "5eb3dc85c8389bc9"),
    ("construct plus-leaf chain2", 0, "b7851839dfe11670"),
    ("construct star chain2", 0, "7e3bfe69b8d6f7eb"),
    ("construct add-root ()(())", 0, "aba77d419c3529f2"),
    ("construct graft chain2 () () --at 0,1", 0, "23a423222410fb26"),
    ("arrow chain2 chain3 chain6 --cat incinj -r 2", 0, "ebc33160864410b5"),
    ("arrow chain2 chain3 chain5 --cat incinj -r 2", 1, "619cabaa6d0d8ac4"),
    ("arrow chain2 ((()())) (((()())(()()))) --cat conn -r 2", 1, "7e88e5727831bf52"),
    ("--mode fast arrow chain2 ((()())) (((()())(()()))) --cat conn -r 2", 1,
     "92575d1563f202cf"),
    ("--budget-max-nodes 1 arrow chain2 chain3 chain6 --cat incinj -r 2", 2, "d97ca1f4dae3d787"),
    ("degree chain2 ((()())) ((()())) --cat conn -r 2", 0, "f0b2584b103c0fc4"),
    ("degree chain2 ((()())) (((()())(()()))) --cat conn -r 2", 0, "8e991aef374568c2"),
    ("--mode fast degree chain2 ((()())) (((()())(()()))) --cat conn -r 2", 0,
     "232890b37840662b"),
    ("--budget-max-hom 3 degree chain2 chain3 chain6 --cat incinj -r 2", 2, "2757308f81454a84"),
    ("verify lower-bound chain2 --witness self", 0, "6749c44a6c14d260"),
    ("verify no-ramsey chain2 --vertex 1 --witness double", 0, "6362ae6396e5f152"),
    ("export (()())", 0, "7e3bfe69b8d6f7eb"),
    ("export (()()) --json", 0, "44062b56cccec365"),
    ("export (()()) --dot", 0, "e650e908f9e96da0"),
    ("export ((()())) --dot --labels table.json", 0, "e23e85d166ccc105"),
]


def test_pinned_output(tmp_path, monkeypatch, capsys):
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "doubling", "chain2", "--out", "table.json"]) == 0
    capsys.readouterr()
    got = []
    for line, _, _ in PINNED_OUTPUT:
        code, out, _ = run_cli(capsys, *shlex.split(line))
        got.append((line, code, hashlib.sha256(out.encode()).hexdigest()[:16]))
    assert got == PINNED_OUTPUT


def _readme_commands():
    """(argv, comment) for each ``treeconn`` line of the README's CLI block."""
    text = (Path(__file__).resolve().parents[1] / "README.md").read_text()
    block = text.split("## CLI", 1)[1].split("```sh\n", 1)[1].split("```", 1)[0]
    return [(shlex.split(line, comments=True)[1:], line.partition(" # ")[2].strip())
            for line in block.splitlines() if line.startswith("treeconn ")]


def test_readme_cli_examples_hold(tmp_path, monkeypatch, capsys):
    # Each README example runs without an input error, and what its comment
    # states holds: an exit code ("exit 1") or the whole output ("2").
    monkeypatch.chdir(tmp_path)
    assert main(["construct", "doubling", "chain2", "--out", "table.json"]) == 0
    capsys.readouterr()
    commands = _readme_commands()
    assert len(commands) >= 10
    for argv, comment in commands:
        code, out, _ = run_cli(capsys, *argv)
        assert code != 3, argv
        stated = re.match(r"exit (\d)", comment)
        if stated:
            assert code == int(stated.group(1)), argv
        elif comment and " " not in comment:
            assert (code, out) == (0, comment + "\n"), argv


def test_console_entry_point():
    # The child imports the treeconn under test, installed or not.
    src = str(Path(tc.__file__).parents[1])
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, (src, os.environ.get("PYTHONPATH")))))
    proc = subprocess.run(
        [sys.executable, "-m", "treeconn", "enum", "conn", "chain2", "chain3", "--count"],
        capture_output=True,
        text=True,
        env=env,
    )
    assert proc.returncode == 0
    assert proc.stdout.strip() == "4"
