"""CLI reports stay byte-identical across refactors.

`tests/data/cli_reports.json` maps each run, "<graph>: <argv>", to its
exit code and the sha256 of its stdout and of its stderr.  Every graph is
fed on stdin, so JSON reports name their input "-".  After a change that
is meant to alter a report, rewrite the file with

    PYTHONPATH=src python tests/test_cli_reports.py
"""

import contextlib
import hashlib
import io
import json
import os
import sys
from pathlib import Path

import pytest

from kappatools.cli import CAP_ENV_VAR, main

DATA = Path(__file__).parent / "data" / "cli_reports.json"

# name -> (edge-list text, open path spec, closed path spec)
GRAPHS = {
    "C5": ("5 5\n0 1\n1 2\n2 3\n3 4\n0 4\n", {"vertices": [0, 1, 2]},
           {"vertices": [0, 1, 2, 3, 4], "closed": True}),
    "K4": ("4 6\n0 1\n0 2\n0 3\n1 2\n1 3\n2 3\n", {"vertices": [0, 1, 2, 3]},
           {"vertices": [0, 1, 2], "closed": True}),
    "prism": ("6 9\n0 1\n1 2\n0 2\n3 4\n4 5\n3 5\n0 3\n1 4\n2 5\n",
              {"vertices": [0, 1, 4]}, {"vertices": [0, 1, 4, 3, 0], "closed": True}),
    "parallels": ("3 5\n0 1\n0 1\n1 2\n0 2\n1 2\n", {"vertices": [2, 0, 1], "edges": [3, 1]},
                  {"vertices": [0, 1, 2], "closed": True, "edges": [0, 4, 3]}),
    "loop": ("3 4\n0 1\n1 2\n0 2\n1 1\n", {"vertices": [0, 1, 2]},
             {"vertices": [0, 1, 2], "closed": True}),
    "isolated": ("5 3\n0 1\n1 2\n0 2\n", {"vertices": [0, 1, 2]},
                 {"vertices": [0, 1, 2], "closed": True}),
}

CORPUS_RUNS = (
    ["verify", "--corpus", "small", "--seed", "7", "--format", "json"],
    ["verify", "--random-corpus", "10", "--seed", "3"],
    ["verify", "--random-corpus", "10", "--seed", "3", "--format", "json"],
)


def runs(name):
    """(argv, stdin text) of every recorded run on one graph, or on "corpus"."""
    if name == "corpus":
        return [(argv, "") for argv in CORPUS_RUNS]
    text, open_path, closed_path = GRAPHS[name]
    m = int(text.split()[1])
    commands = [
        ["kappa"], ["kappa", "--trace"], ["alpha"], ["tutte"],
        ["eval", "--point", "1", "0"], ["eval", "--point", "2", "1"],
        ["classes"], ["transversal", "--vertex", "0"],
        *(["collapse", "--edge", str(e)] for e in range(m)),
        ["nu", "--path", json.dumps(open_path)],
        ["nu", "--path", json.dumps(closed_path)],
        ["verify"],
    ]
    return [
        (argv[:1] + ["-"] + argv[1:] + fmt, text)
        for argv in commands
        for fmt in ([], ["--format", "json"])
    ]


def digest(argv, stdin_text=""):
    """[exit code, sha256 of stdout, sha256 of stderr] of one in-process run."""
    out, err = io.StringIO(), io.StringIO()
    saved = sys.stdin
    sys.stdin = io.StringIO(stdin_text)
    try:
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = main(argv)
    finally:
        sys.stdin = saved
    return [code, sha256(out.getvalue()), sha256(err.getvalue())]


def sha256(text):
    return hashlib.sha256(text.encode()).hexdigest()


def key(name, argv):
    return f"{name}: {' '.join(argv)}"


NAMES = [*GRAPHS, "corpus"]


@pytest.fixture(scope="module")
def expected():
    return json.loads(DATA.read_text())


@pytest.mark.parametrize("name", NAMES)
def test_reports_match_recorded_digests(name, expected, monkeypatch):
    monkeypatch.delenv(CAP_ENV_VAR, raising=False)
    changed = [
        key(name, argv) for argv, text in runs(name) if digest(argv, text) != expected[key(name, argv)]
    ]
    assert changed == []


def test_every_recorded_run_is_still_run(expected):
    assert expected.keys() == {key(name, argv) for name in NAMES for argv, _ in runs(name)}


if __name__ == "__main__":
    os.environ.pop(CAP_ENV_VAR, None)
    table = {key(name, argv): digest(argv, text) for name in NAMES for argv, text in runs(name)}
    body = ",\n".join(f"  {json.dumps(k)}: {json.dumps(v)}" for k, v in sorted(table.items()))
    DATA.parent.mkdir(exist_ok=True)
    DATA.write_text("{\n" + body + "\n}\n")
    print(f"wrote {len(table)} runs to {DATA}")
