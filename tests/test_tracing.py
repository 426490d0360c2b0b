"""The benchmark tracer (``perfbench/tracing.py``) wraps treeconn functions
by module and name.  Renaming or removing one of them must fail here, not
only in a ``--trace 1`` benchmark run."""

import importlib
from pathlib import Path

import treeconn as tc
from treeconn import kernels


def test_traced_names_resolve_and_the_probe_counts_embeddings(monkeypatch):
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    from perfbench import queries, tracing

    for name, (module, attr, _, _) in tracing.TRACED.items():
        assert callable(getattr(importlib.import_module(module), attr, None)), name
    search = kernels.embedding_search
    tracer = tracing.Tracer()
    tracer.install()
    try:
        queries.probe()
    finally:
        tracer.uninstall()
    assert kernels.embedding_search is search
    totals = tracing.aggregate(tracer.spans)
    assert totals["counts"]["kernels.embedding_search.rows"] > 0
    # The psc layer is tagged by the name enumerate_psc.
    assert totals["times"]["homsets.psc.s"] > 0
    assert totals["counts"]["homsets.enumerate_psc.calls"] > 0


def test_the_tracer_counts_the_nodes_of_both_searches(monkeypatch):
    # The tracer reads each search's node count from the state array, its
    # kernel's argument 15; a moved argument must fail here.
    monkeypatch.syspath_prepend(str(Path(__file__).parents[1]))
    from perfbench import tracing

    c2, c3, c5 = tc.chain(2), tc.chain(3), tc.chain(5)
    tracer = tracing.Tracer()
    tracer.install()
    try:
        arrow = tc.arrow_check(c2, c3, c5, 2, "incinj")
        _, degree = tc.degree_at_witness(c2, c3, c5, 3, "incinj")
    finally:
        tracer.uninstall()
    counts = tracing.aggregate(tracer.spans)["counts"]
    assert counts["kernels.dfs_bad_coloring.nodes"] == arrow.explored > 0
    assert counts["kernels.dfs_degree.nodes"] == degree.explored > 0
