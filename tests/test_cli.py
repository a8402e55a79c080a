"""End-to-end CLI behavior: outputs, exit codes, determinism."""

import ast
import contextlib
import dataclasses
import io
import json
import os
import pathlib
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import kappatools
from kappatools import cli, orientations, verify
from kappatools.cli import build_parser, main
from kappatools.corpus import cycle_graph, path_graph
from kappatools.errors import InternalInvariantError
from kappatools.graphs import Multigraph

C5_TEXT = "5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n"
TREE_TEXT = "4 3\n0 1\n1 2\n1 3\n"


@pytest.fixture
def c5_file(tmp_path):
    path = tmp_path / "c5.txt"
    path.write_text(C5_TEXT)
    return str(path)


@pytest.fixture
def tree_file(tmp_path):
    path = tmp_path / "tree.txt"
    path.write_text(TREE_TEXT)
    return str(path)


def run_cli(capsys, *args):
    code = main(list(args))
    captured = capsys.readouterr()
    return code, captured.out, captured.err


def test_kappa_prints_value(capsys, c5_file):
    code, out, _ = run_cli(capsys, "kappa", c5_file)
    assert code == 0
    assert out == "4\n"


def test_kappa_trace_json(capsys, c5_file):
    code, out, _ = run_cli(capsys, "kappa", c5_file, "--trace", "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["schema"] == 1
    assert payload["command"] == "kappa"
    assert payload["value"] == 4
    trace = payload["trace"]
    assert trace[0]["rule"] == "recursion"
    # each distinct node is listed once, and each miss of the memo is one
    assert len({node["key"] for node in trace}) == len(trace) == payload["cache"]["misses"]


def test_eval_tree_at_1_0(capsys, tree_file):
    code, out, _ = run_cli(capsys, "eval", tree_file, "--point", "1", "0")
    assert code == 0
    assert out == "1\n"


def test_eval_at_y0_has_no_edge_cap(capsys, tmp_path):
    # K9 has 36 edges, past the polynomial's cap of 30; y = 0 runs the
    # kappa engine, which needs none
    path = tmp_path / "k9.txt"
    path.write_text(Multigraph(9, tuple((a, b) for b in range(9) for a in range(b))).to_edge_list_text())
    code, out, _ = run_cli(capsys, "eval", str(path), "--point", "1", "0")
    assert (code, out) == (0, "40320\n")
    code, _, err = run_cli(capsys, "eval", str(path), "--point", "1", "1")
    assert code == 3 and "graph has 36 edges" in err, err


def test_alpha_both_routes(capsys, c5_file):
    code, out, _ = run_cli(capsys, "alpha", c5_file)
    assert code == 0
    assert out == "bruteforce 30\ntutte 30\n"


def test_tutte_text(capsys, c5_file):
    code, out, _ = run_cli(capsys, "tutte", c5_file)
    assert code == 0
    assert out == "x^4 + x^3 + x^2 + x + y\n"


def test_classes_listing(capsys, c5_file):
    code, out, _ = run_cli(capsys, "classes", c5_file)
    assert code == 0
    lines = out.splitlines()
    assert lines[0] == "classes 4"
    assert len(lines) == 5


def test_transversal_listing(capsys, c5_file):
    code, out, _ = run_cli(capsys, "transversal", c5_file, "--vertex", "0")
    assert code == 0
    assert out.splitlines()[0] == "count 4"


def test_collapse_report_and_dot(capsys, c5_file):
    code, out, _ = run_cli(capsys, "collapse", c5_file, "--edge", "1")
    assert code == 0
    assert "graph collapse {" in out
    assert "VIOLATED" not in out


def test_nu_closed_path_per_class(capsys, c5_file):
    path = json.dumps({"vertices": [0, 1, 2, 3, 4], "closed": True})
    code, out, _ = run_cli(capsys, "nu", c5_file, "--path", path, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    values = sorted(item["nu"] for item in payload["per_class"])
    assert values == [-3, -1, 1, 3]


@pytest.mark.parametrize(
    "edges, code, values",
    [(None, 0, [1, -1]), ([1, 2, 3], 0, [1, -1]), ([0, 1, 2], 2, None)],
)
def test_nu_closed_path_edges_name_input_edge_lines(capsys, tmp_path, edges, code, values):
    # edge 1 is parallel to edge 0: [1, 2, 3] is a valid choice of input
    # lines, while [0, 1, 2] puts edge 1 on the step 1-2; simplify(g)
    # numbers the edges differently and once got both wrong
    path = tmp_path / "doubled.txt"
    path.write_text("3 4\n0 1\n0 1\n1 2\n0 2\n")
    spec = {"vertices": [0, 1, 2], "closed": True}
    if edges is not None:
        spec["edges"] = edges
    got, out, err = run_cli(capsys, "nu", str(path), "--path", json.dumps(spec), "--format", "json")
    assert got == code
    if values is None:
        assert err.startswith("error: edge 1 does not join 1 and 2")
    else:
        payload = json.loads(out)
        assert [item["nu"] for item in payload["per_class"]] == values
        assert payload["path"] == spec


@pytest.mark.parametrize(
    "change, code",
    [
        ({}, 0),
        ({"edges": [0, 1, 2]}, 0),
        ({"closed": "false"}, 2),
        ({"closed": 1}, 2),
        ({"closed": None}, 2),
        ({"vertices": [0, 1.9, 2]}, 2),
        ({"vertices": "012"}, 2),
        ({"vertices": [0, True, 2]}, 2),
        ({"edges": [0, 1.9, 2]}, 2),
        ({"edges": "012"}, 2),
        ({"edges": [0, True, 2]}, 2),
        ({"edges": None}, 2),
    ],
)
def test_nu_path_spec_is_read_without_coercion(capsys, tmp_path, change, code):
    path = tmp_path / "triangle.txt"
    path.write_text("3 3\n0 1\n1 2\n0 2\n")
    spec = {"vertices": [0, 1, 2], "closed": True, **change}
    got, out, err = run_cli(capsys, "nu", str(path), "--path", json.dumps(spec))
    assert got == code
    if code == 0:
        assert out == "class 0 representative 0: 1\nclass 1 representative 1: -1\n"
    else:
        assert err.startswith("error: malformed path spec:")


def test_nu_open_path_per_orientation(capsys, tree_file):
    path = json.dumps({"vertices": [0, 1, 2]})
    code, out, _ = run_cli(capsys, "nu", tree_file, "--path", path)
    assert code == 0
    assert len(out.splitlines()) == 8  # alpha of a 3-edge tree


def test_verify_single_graph(capsys, c5_file):
    code, out, _ = run_cli(capsys, "verify", c5_file)
    assert code == 0
    assert out.splitlines()[-1] == "graphs 1 failures 0"


def test_verify_catches_a_class_key_that_merges_classes(capsys, monkeypatch, tmp_path):
    # The partition and the cut classes share one ν grouping, so a broken
    # key breaks both alike; the click closure is the leg that tells.
    grouped = orientations._nu_classes

    def merged(s):
        first, second, *rest = grouped(s)
        return (tuple(sorted(first + second)), *rest)

    monkeypatch.setattr(orientations, "_nu_classes", merged)
    path = tmp_path / "k4.txt"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    code, out, _ = run_cli(capsys, "verify", str(path), "--format", "json")
    assert code == 4
    checks = json.loads(out)["graphs"][0]["checks"]
    assert checks["cut_equivalence"] == {"ok": False}


def verify_checks(capsys, path):
    code, out, _ = run_cli(capsys, "verify", path, "--format", "json")
    return code, json.loads(out)["graphs"][0]["checks"]


def test_verify_catches_a_class_count_one_too_high(capsys, monkeypatch, c5_file):
    engine = verify.kappa

    def one_too_high(g):
        result = engine(g)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(verify, "kappa", one_too_high)
    code, checks = verify_checks(capsys, c5_file)
    assert code == 4
    assert checks["kappa_triple"]["ok"] is False
    assert all(c["ok"] for name, c in checks.items() if name != "kappa_triple")


def test_verify_reports_the_recursion_apart_from_the_engine(capsys, monkeypatch, c5_file):
    recursion = verify.kappa_with_trace

    def one_too_high(g):
        result = recursion(g)
        return dataclasses.replace(result, value=result.value + 1)

    monkeypatch.setattr(verify, "kappa_with_trace", one_too_high)
    code, checks = verify_checks(capsys, c5_file)
    assert code == 4
    triple = checks["kappa_triple"]
    assert (triple["bruteforce"], triple["recursion"], triple["engine"], triple["tutte_1_0"]) == (4, 5, 4, 4)
    assert triple["ok"] is False


def test_verify_catches_a_transversal_that_misses_a_class(capsys, monkeypatch, c5_file):
    found = verify._unique_source_masks
    monkeypatch.setattr(verify, "_unique_source_masks", lambda g, v: found(g, v)[1:])
    code, checks = verify_checks(capsys, c5_file)
    assert code == 4
    assert checks["transversal"] == {"ok": False, "skipped": False}
    assert all(c["ok"] for name, c in checks.items() if name != "transversal")


def test_verify_catches_a_normalization_to_the_wrong_class(capsys, monkeypatch, c5_file):
    normalize = verify._normalize_bits

    def to_first_class(g, bits, v):
        first = orientations.kappa_partition_bruteforce(g).classes[0][0]
        return normalize(g, first, v)

    monkeypatch.setattr(verify, "_normalize_bits", to_first_class)
    code, checks = verify_checks(capsys, c5_file)
    assert code == 4
    assert checks["transversal"] == {"ok": False, "skipped": False}


def test_verify_and_collapse_peel_none_of_the_librarys_own_masks(capsys, monkeypatch, tmp_path):
    # `_peels` checks a mask from outside; verify and collapse hand the
    # mask cores only masks the library produced, so neither calls it.
    peels = orientations._peels
    calls = []

    def counted(*args):
        calls.append(args)
        return peels(*args)

    monkeypatch.setattr(orientations, "_peels", counted)
    path = tmp_path / "k4.txt"
    path.write_text("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n")
    for argv in (["verify", str(path)], ["collapse", str(path), "--edge", "0"]):
        code, _, _ = run_cli(capsys, *argv)
        assert (argv[0], code, len(calls)) == (argv[0], 0, 0)


def test_nu_closed_path_through_two_parallel_edges(capsys, tmp_path):
    # Edges 0 and 1 join 0 and 1: the path walks one forward and the other
    # back, so every class reads 0.  simplify(g) merges the two copies, and
    # the path was once rejected there as using edge 0 twice.
    path = tmp_path / "doubled.txt"
    path.write_text("3 4\n0 1\n0 1\n1 2\n0 2\n")
    for vertices in ([0, 1], [0, 1, 0]):
        spec = {"vertices": vertices, "closed": True, "edges": [0, 1]}
        code, out, err = run_cli(capsys, "nu", str(path), "--path", json.dumps(spec), "--format", "json")
        assert (code, err) == (0, "")
        payload = json.loads(out)
        assert [item["nu"] for item in payload["per_class"]] == [0, 0]
        assert [item["representative"] for item in payload["per_class"]] == ["0", "1"]


def test_alpha_reports_a_mismatch_as_exit_4(capsys, monkeypatch, c5_file):
    evaluate = cli.tutte_eval
    monkeypatch.setattr(cli, "tutte_eval", lambda g, x, y: evaluate(g, x, y) + 1)
    code, out, _ = run_cli(capsys, "alpha", c5_file)
    assert code == 4
    assert out == "bruteforce 30\ntutte 31\nMISMATCH\n"


def test_internal_invariant_error_in_a_handler_is_exit_4(capsys, monkeypatch, c5_file):
    def broken(g):
        raise InternalInvariantError("broken on purpose")

    monkeypatch.setattr(cli, "kappa", broken)
    code, out, err = run_cli(capsys, "kappa", c5_file)
    assert code == 4
    assert out == ""
    assert err == "error: broken on purpose\n"


@pytest.mark.parametrize(
    "spec, message",
    [
        ("[0, 1]", "malformed path spec"),
        ('{"closed": true}', "malformed path spec"),
        ('{"vertices": [2, 2], "closed": true}', "at least two distinct vertices"),
        ('{"vertices": [0, 7]}', "path vertex 7 out of range"),
        ('{"vertices": [0, 1, 2], "edges": [0]}', "edge_choice has 1 entries for 2 steps"),
        ('{"vertices": [0, 1], "closed": true}', "path uses edge 0 twice"),
        ('{"vertices": [0, 1, 2], "close": true}', "unknown key 'close'"),
        ("null", "path spec must be a JSON object"),
        ('"abc"', "path spec must be a JSON object"),
    ],
)
def test_nu_rejects_an_invalid_path_spec(capsys, c5_file, spec, message):
    code, out, err = run_cli(capsys, "nu", c5_file, "--path", spec)
    assert code == 2
    assert out == ""
    assert err.startswith("error: ") and message in err


@pytest.mark.parametrize(
    "header, message",
    [("x 1", "non-integer header"), ("3 -1", "negative counts"), ("-3 0", "negative counts")],
)
def test_bad_header_counts_are_exit_2(capsys, monkeypatch, header, message):
    monkeypatch.setattr("sys.stdin", io.StringIO(f"{header}\n"))
    code, out, err = run_cli(capsys, "kappa", "-")
    assert code == 2
    assert out == ""
    assert "line 1" in err and message in err


def test_verify_ignores_isolated_vertices(capsys, tmp_path):
    # cut classes were once a closure over all 2^(n-1) vertex bipartitions,
    # isolated vertices too; now they group by ν on fundamental cycles
    path = tmp_path / "edge40.txt"
    path.write_text("40 1\n0 1\n")
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "graphs 1 failures 0"


def test_verify_tries_cuts_per_component(capsys, tmp_path):
    # the closure over cuts once tried 2^23 bipartitions of the 24 touched
    # vertices, and later 1 per component; a forest has no cycle to read
    path = tmp_path / "matching12.txt"
    path.write_text("24 12\n" + "".join(f"{2 * i} {2 * i + 1}\n" for i in range(12)))
    code, out, _ = run_cli(capsys, "verify", str(path))
    assert code == 0
    assert out.splitlines()[-1] == "graphs 1 failures 0"


def test_verify_random_corpus_is_deterministic(capsys):
    args = ("verify", "--random-corpus", "6", "--seed", "3", "--format", "json")
    code1, out1, _ = run_cli(capsys, *args)
    code2, out2, _ = run_cli(capsys, *args)
    assert code1 == code2 == 0
    assert out1 == out2
    payload = json.loads(out1)
    assert payload["summary"] == {"graphs": 6, "failures": 0}
    assert all(entry["ok"] for entry in payload["graphs"])


def test_verify_random_corpus_respects_the_cap(capsys):
    args = ("verify", "--random-corpus", "25", "--seed", "1", "--cap", "12")
    code, out, _ = run_cli(capsys, *args, "--format", "json")
    assert code == 0
    payload = json.loads(out)
    assert payload["summary"] == {"graphs": 25, "failures": 0}
    assert all(len(entry["edges"]) <= 12 for entry in payload["graphs"])
    assert "m <= 12" in payload["input"]["random_corpus"]["generator"]


@pytest.mark.parametrize("count", ["0", "-3"])
def test_verify_random_corpus_needs_a_positive_count(capsys, monkeypatch, count):
    # A graph on stdin: a count of 0 must not fall through to reading it.
    monkeypatch.setattr("sys.stdin", io.StringIO(C5_TEXT))
    code, out, err = run_cli(capsys, "verify", "--random-corpus", count)
    assert code == 2
    assert out == ""
    assert "--random-corpus" in err


def test_kappa_on_a_long_cycle(capsys, tmp_path):
    n = 500
    path = tmp_path / "c500.txt"
    path.write_text(cycle_graph(n).to_edge_list_text())
    code, out, _ = run_cli(capsys, "kappa", str(path))
    assert code == 0
    assert out == f"{n - 1}\n"


def test_absurd_vertex_count_is_exit_2(capsys, monkeypatch):
    # header only: the graph is rejected before anything is allocated
    monkeypatch.setattr("sys.stdin", io.StringIO("1000000000 0\n"))
    code, _, err = run_cli(capsys, "kappa", "-")
    assert code == 2
    assert "line 1" in err


def test_parse_error_exit_2_with_line(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("3 2\n0 1\n0 zebra\n")
    code, _, err = run_cli(capsys, "kappa", str(bad))
    assert code == 2
    assert "line 3" in err


def test_cap_exceeded_exit_3(capsys, c5_file):
    code, _, err = run_cli(capsys, "classes", c5_file, "--cap", "2")
    assert code == 3
    assert "cap of 2" in err


def test_env_cap_override(capsys, c5_file, monkeypatch):
    monkeypatch.setenv("KAPPA_BRUTE_CAP", "2")
    code, _, _ = run_cli(capsys, "classes", c5_file)
    assert code == 3
    # explicit flag wins over the environment
    code, _, _ = run_cli(capsys, "classes", c5_file, "--cap", "10")
    assert code == 0


def test_bad_env_cap_is_exit_2(capsys, c5_file, monkeypatch):
    monkeypatch.setenv("KAPPA_BRUTE_CAP", "three")
    code, _, err = run_cli(capsys, "classes", c5_file)
    assert code == 2
    assert "KAPPA_BRUTE_CAP" in err
    # kappa takes no brute-force cap, so it does not read the variable
    code, out, _ = run_cli(capsys, "kappa", c5_file)
    assert code == 0
    assert out == "4\n"


def test_stdin_input(capsys, monkeypatch):
    monkeypatch.setattr("sys.stdin", io.StringIO(C5_TEXT))
    code, out, _ = run_cli(capsys, "kappa", "-")
    assert code == 0
    assert out == "4\n"


def test_json_reports_carry_input_hash(capsys, c5_file):
    code, out, _ = run_cli(capsys, "kappa", c5_file, "--format", "json")
    payload = json.loads(out)
    assert payload["input"]["path"] == c5_file
    assert len(payload["input"]["sha256"]) == 64


def test_input_file_is_not_modified(capsys, c5_file):
    before = pathlib.Path(c5_file).read_text()
    run_cli(capsys, "verify", c5_file)
    run_cli(capsys, "collapse", c5_file, "--edge", "0")
    assert pathlib.Path(c5_file).read_text() == before


def test_vertex_out_of_range_is_exit_2(capsys, c5_file):
    code, _, err = run_cli(capsys, "transversal", c5_file, "--vertex", "9")
    assert code == 2
    assert "out of range" in err


def test_argparse_enforces_point_usage_and_main_the_cap(capsys, c5_file):
    with pytest.raises(SystemExit) as exc:
        main(["eval", c5_file])
    assert exc.value.code == 2
    with pytest.raises(SystemExit) as exc:
        main(["kappa", c5_file, "--point", "1", "0"])
    assert exc.value.code == 2
    code, _, err = run_cli(capsys, "classes", c5_file, "--cap", "0")
    assert code == 2
    assert "at least 1" in err


BRUTE_FORCE_ARGS = {
    "alpha": [],
    "classes": [],
    "transversal": ["--vertex", "0"],
    "collapse": ["--edge", "0"],
    "nu": ["--path", '{"vertices": [0, 1]}'],
    "verify": [],
}


def test_cap_only_on_brute_force_commands_and_seed_only_on_verify(capsys, c5_file):
    for command, extra in BRUTE_FORCE_ARGS.items():
        code, _, _ = run_cli(capsys, command, c5_file, *extra, "--cap", "10")
        assert code == 0, command
    for argv in (
        ["kappa", c5_file, "--cap", "10"],
        ["tutte", c5_file, "--cap", "10"],
        ["eval", c5_file, "--point", "1", "0", "--cap", "10"],
        ["classes", c5_file, "--seed", "1"],
    ):
        with pytest.raises(SystemExit) as exc:
            main(argv)
        assert exc.value.code == 2, argv
    capsys.readouterr()


def test_main_can_be_called_repeatedly_in_one_process(capsys, c5_file, monkeypatch):
    with pytest.raises(SystemExit) as exc:
        main(["eval", c5_file])
    assert exc.value.code == 2
    code, _, _ = run_cli(capsys, "classes", c5_file, "--cap", "2")
    assert code == 3
    # the 2 of the last call does not leak into this one
    code, out, _ = run_cli(capsys, "classes", c5_file)
    assert code == 0
    assert out.startswith("classes 4\n")
    # the variable is read per call, not when the parser is built
    monkeypatch.setenv("KAPPA_BRUTE_CAP", "2")
    code, _, _ = run_cli(capsys, "classes", c5_file)
    assert code == 3
    helps = []
    for _ in range(2):
        with pytest.raises(SystemExit) as exc:
            main(["--help"])
        assert exc.value.code == 0
        helps.append(capsys.readouterr().out)
    assert helps[0] == helps[1]
    assert helps[0].startswith("usage: kappatools")
    assert build_parser() is build_parser()


def test_handlers_look_up_engines_when_they_run(capsys, c5_file, monkeypatch):
    assert run_cli(capsys, "kappa", c5_file)[0] == 0
    calls = []
    engine = cli.kappa

    def counting_kappa(g):
        calls.append(g.m)
        return engine(g)

    monkeypatch.setattr(cli, "kappa", counting_kappa)
    code, out, _ = run_cli(capsys, "kappa", c5_file)
    assert (code, out) == (0, "4\n")
    assert calls == [5]


def test_cli_imports_no_private_name_of_the_package():
    # The CLI parses and prints; a check that needs a private core of the
    # library belongs in the library, next to that core.
    tree = ast.parse(pathlib.Path(cli.__file__).read_text(encoding="utf-8"))
    private = [
        f"{node.module}.{alias.name}"
        for node in ast.walk(tree)
        if isinstance(node, ast.ImportFrom) and node.level > 0
        for alias in node.names
        if alias.name.startswith("_")
    ]
    assert private == []


def test_non_utf8_file_is_exit_2(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_bytes(b"\xff\xfe 1\n")
    code, _, err = run_cli(capsys, "kappa", str(bad))
    assert code == 2
    assert err.startswith("error:")


def test_undecodable_stdin_is_exit_2(capsys, monkeypatch):
    # a stdin decoded with surrogateescape hands undecodable bytes on as lone
    # surrogates, which cannot be encoded for the input hash
    monkeypatch.setattr("sys.stdin", io.StringIO("\udcff"))
    code, _, err = run_cli(capsys, "kappa", "-")
    assert code == 2
    assert err.startswith("error:")


def theta_graph(paths, length):
    """`paths` internally disjoint paths of `length` edges between 0 and 1."""
    edges = []
    n = 2
    for _ in range(paths):
        prev = 0
        for _ in range(length - 1):
            edges.append((prev, n))
            prev = n
            n += 1
        edges.append((prev, 1))
    return Multigraph(n, tuple(edges))


def test_kappa_on_long_series_paths(capsys, tmp_path):
    # sparse pieces go to the frontier sum, which does not recurse
    theta = tmp_path / "theta.txt"
    theta.write_text(theta_graph(3, 500).to_edge_list_text())
    code, out, _ = run_cli(capsys, "kappa", str(theta))
    assert code == 0
    assert out == "748501\n"


def test_too_deep_recursion_is_exit_3(capsys, tmp_path):
    theta = tmp_path / "theta.txt"
    theta.write_text(theta_graph(3, 200).to_edge_list_text())
    code, out, _ = run_cli(capsys, "kappa", str(theta))
    assert code == 0
    assert out == "119401\n"

    # the mask search spends one Python frame per free edge
    path = tmp_path / "p1200.txt"
    path.write_text(path_graph(1201).to_edge_list_text())
    code, out, err = run_cli(capsys, "alpha", str(path), "--cap", "2000")
    assert code == 3
    assert out == ""
    assert err.startswith("error: recursion too deep")


@pytest.mark.parametrize("n", [1200, 20000])
def test_trace_of_a_block_too_large_for_the_recursion_limit_is_exit_3_at_once(
    capsys, tmp_path, n
):
    cycle = tmp_path / f"c{n}.txt"
    cycle.write_text(cycle_graph(n).to_edge_list_text())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kappa", str(cycle), "--trace")
    assert time.perf_counter() - start < 1
    assert code == 3
    assert out == ""
    assert err.startswith(f"error: trace's largest block has {n} edges, exceeding the cap of")


def test_trace_over_the_node_cap_is_exit_3(capsys, tmp_path):
    # grid 6x6 passes 10,000 distinct nodes after about a second
    cols = 6
    edges = [(v, v + 1) for v in range(36) if v % cols != cols - 1]
    edges += [(v, v + cols) for v in range(36 - cols)]
    grid = tmp_path / "grid6x6.txt"
    grid.write_text(Multigraph(36, tuple(edges)).to_edge_list_text())
    start = time.perf_counter()
    code, out, err = run_cli(capsys, "kappa", str(grid), "--trace", "--format", "json")
    assert time.perf_counter() - start < 5
    assert code == 3
    assert out == ""
    assert "trace has 10001 nodes, exceeding the cap of 10000" in err


COMMANDS = ("kappa", "alpha", "tutte", "eval", "classes", "transversal", "collapse", "nu", "verify")


def test_reader_closing_the_pipe_is_exit_1_without_traceback(tmp_path):
    # C14's JSON report (about 260 kB) outgrows a pipe's buffer, so the
    # write is still under way when the reader leaves.
    path = tmp_path / "c14.txt"
    path.write_text(cycle_graph(14).to_edge_list_text())
    src = os.path.dirname(os.path.dirname(kappatools.__file__))
    proc = subprocess.Popen(
        [sys.executable, "-m", "kappatools", "classes", str(path), "--format", "json"],
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": src},
    )
    assert len(proc.stdout.read(600)) == 600
    proc.stdout.close()
    with proc.stderr:
        err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@st.composite
def edge_list_bytes(draw):
    """A valid edge list with parallels and maybe a loop, one corrupted by a
    junk line, or arbitrary bytes."""
    kind = draw(st.sampled_from(("valid", "valid", "corrupt", "bytes")))
    if kind == "bytes":
        return draw(st.binary(max_size=40))
    n = draw(st.integers(2, 6))
    vertex = st.integers(0, n - 1)
    edges = draw(st.lists(st.tuples(vertex, vertex).filter(lambda e: e[0] != e[1]), max_size=7))
    if draw(st.integers(0, 3)) == 0:
        v = draw(vertex)
        edges.insert(draw(st.integers(0, len(edges))), (v, v))
    lines = [f"{n} {len(edges)}"] + [f"{a} {b}" for a, b in edges]
    if kind == "corrupt":
        junk = st.one_of(st.text(max_size=6), st.sampled_from(["-1 0", f"0 {n}", "1", "2 1 0"]))
        lines.insert(draw(st.integers(0, len(lines))), draw(junk))
    return "\n".join(lines).encode("utf-8", "surrogatepass")


@st.composite
def command_flags(draw):
    command = draw(st.sampled_from(COMMANDS))
    small = st.integers(-1, 7)
    flags = []
    if command == "kappa" and draw(st.booleans()):
        flags.append("--trace")
    elif command == "eval":
        flags += ["--point", str(draw(small)), str(draw(small))]
    elif command == "transversal":
        flags.append(f"--vertex={draw(small)}")
    elif command == "collapse":
        flags.append(f"--edge={draw(small)}")
    elif command == "nu":
        path = {"vertices": draw(st.lists(small, max_size=5)), "closed": draw(st.booleans())}
        flags.append(f"--path={draw(st.one_of(st.just(json.dumps(path)), st.text(max_size=8)))}")
    elif command == "verify" and draw(st.booleans()):
        flags.append(f"--seed={draw(small)}")
    if draw(st.booleans()):
        flags += ["--format", "json"]
    return command, flags


@settings(max_examples=100, deadline=None)
@given(data=edge_list_bytes(), cli=command_flags())
def test_fuzzed_input_exits_with_a_documented_code(tmp_path_factory, data, cli):
    path = tmp_path_factory.mktemp("fuzz") / "g.txt"
    path.write_bytes(data)
    command, flags = cli
    with contextlib.redirect_stdout(io.StringIO()), contextlib.redirect_stderr(io.StringIO()):
        code = main([command, str(path), *flags])
    assert code in (0, 2, 3, 4)
