"""The ladder of hard instances in ``ladder.json``: every stored coloring is
re-checked on its own, and every entry is run under a fixed node budget,
which must give the stored verdict or degree, or ``unknown: max_nodes``."""

import json
from pathlib import Path

import numpy as np

import treeconn as tc
from treeconn.cli import load_tree

_FILE = json.loads((Path(__file__).parent / "ladder.json").read_text())
LADDER, DEGREES = _FILE["entries"], _FILE["degrees"]


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


def test_ladder_degree_witnesses():
    # Under a stored witness every copy sees at least the stored degree (or
    # lower bound) of colors, counted directly on the copy rows.
    for entry in DEGREES:
        fam = tc.copy_family(*_instance(entry))
        witness = np.array(entry["witness"])
        assert witness.shape == (fam.n_items,) and set(witness) <= set(range(entry["r"]))
        seen = np.sort(witness[fam.rows], axis=1)
        fewest = 1 + (seen[:, 1:] != seen[:, :-1]).sum(axis=1).min()
        assert fewest >= entry.get("degree", entry.get("at_least")), entry["V"]


def test_ladder_degrees_under_a_node_budget():
    budget = tc.Budget(max_nodes=5000)
    settled = 0
    for entry in DEGREES:
        S, T, V, category = _instance(entry)
        k, cert = tc.degree_at_witness(S, T, V, entry["r"], category, budget, entry["mode"])
        if k is None:
            assert (cert.verdict, cert.limit) == ("unknown", "max_nodes"), entry["V"]
            continue
        assert k == entry["degree"] if "degree" in entry else k >= entry["at_least"], entry["V"]
        settled += 1
    print(f"settled {settled} of {len(DEGREES)} degrees")
