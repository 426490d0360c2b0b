"""The ladder of hard instances in ``ladder.json``: every stored coloring is
re-checked on its own, and every entry is run under a fixed node budget,
which must give the stored verdict or ``unknown: max_nodes``."""

import json
from pathlib import Path

import numpy as np

import treeconn as tc
from treeconn.cli import load_tree

LADDER = json.loads((Path(__file__).parent / "ladder.json").read_text())["entries"]


def _instance(entry):
    return (*(load_tree(entry[name]) for name in "STV"), entry["category"])


def test_ladder_colorings_are_bad():
    # Each copy of Hom(S, T) sees at least two colors, counted directly on
    # the copy rows: a stored coloring is its own proof.
    for entry in (e for e in LADDER if e["expect"] == "fails"):
        fam = tc.copy_family(*_instance(entry))
        coloring = np.array(entry["coloring"])
        assert coloring.shape == (fam.n_items,) and set(coloring) <= set(range(entry["r"]))
        seen = coloring[fam.rows]
        assert (seen != seen[:, :1]).any(axis=1).all(), entry["V"]


def test_ladder_under_a_node_budget():
    budget = tc.Budget(max_nodes=5000)
    settled = 0
    for entry in LADDER:
        S, T, V, category = _instance(entry)
        cert = tc.arrow_check(S, T, V, entry["r"], category, budget, entry["mode"])
        assert cert.verdict == entry["expect"] or (cert.verdict, cert.limit) == (
            "unknown", "max_nodes"), (entry["V"], cert.verdict)
        settled += cert.verdict == entry["expect"]
    print(f"settled {settled} of {len(LADDER)}")
