"""The benchmark tracer (``perfbench/tracing.py``) wraps treeconn functions
by module and name.  Renaming or removing one of them must fail here, not
only in a ``--trace 1`` benchmark run."""

import importlib
from pathlib import Path

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
