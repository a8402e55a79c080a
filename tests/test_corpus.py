"""Graph families and the seeded G(n, p) draw behind `verify --random-corpus`."""

import json
import random
import re

import pytest

from kappatools.cli import main
from kappatools.corpus import cycle_graph, random_gnp_graph


def test_cycle_needs_three_vertices():
    with pytest.raises(ValueError):
        cycle_graph(2)


def test_gnp_rejects_a_negative_edge_bound():
    with pytest.raises(ValueError):
        random_gnp_graph(random.Random(0), -1)


def test_gnp_draws_stay_inside_the_ranges_verify_reports(capsys):
    assert main(["verify", "--random-corpus", "1", "--format", "json"]) == 0
    text = json.loads(capsys.readouterr().out)["input"]["random_corpus"]["generator"]
    ranges = re.fullmatch(
        r"gnp, n uniform in (\d+)\.\.(\d+), p uniform in ([\d.]+)\.\.([\d.]+),"
        r" conditioned on m <= \d+",
        text,
    )
    assert ranges, text
    n_low, n_high = int(ranges[1]), int(ranges[2])
    p_low, p_high = float(ranges[3]), float(ranges[4])
    for seed in range(300):
        g, params = random_gnp_graph(random.Random(seed), 20)
        assert params["model"] == "gnp"
        assert params["n"] == g.n_vertices
        assert n_low <= params["n"] <= n_high
        assert p_low <= params["p"] <= p_high
        assert g.m <= 20
