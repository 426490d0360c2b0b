from types import SimpleNamespace

import numpy as np
import pytest

import treeconn as tc
from conftest import functor_laws
from treeconn import morphisms
from treeconn.errors import InvalidMorphismError

C2, C3 = tc.chain(2), tc.chain(3)


@pytest.fixture
def row_checks(monkeypatch):
    """A list that gains one entry per ``morphisms.row_failures`` call."""
    calls = []
    row_failures = morphisms.row_failures

    def counted(*args):
        calls.append(1)
        return row_failures(*args)

    monkeypatch.setattr(morphisms, "row_failures", counted)
    return calls


def tmap(S, T, vals, top=None):
    return tc.TreeMap(S, T, tuple(vals), domain_top=top)


def conn(S, T, svals, evals):
    return tc.Connection(tc.CONN, tmap(T, S, svals), tmap(S, T, evals))


def test_invariant_set_examples():
    assert tc.invariant_set(conn(C2, C3, (0, 1, 1), (0, 1))) == frozenset()
    assert tc.invariant_set(conn(C2, C3, (0, 1, 1), (0, 2))) == {1}
    dbl = tc.doubling_tree(C2)
    for B in dbl.subsets():
        assert tc.invariant_set(dbl.connection_for(B)) == B
        assert tc.powerset_coloring(dbl.connection_for(B)) == B


def test_two_coloring_examples():
    assert tc.two_coloring(1, conn(C2, C3, (0, 1, 1), (0, 1))) == 0
    assert tc.two_coloring(1, conn(C2, C3, (0, 1, 1), (0, 2))) == 1
    dbl = tc.doubling_tree(C2)
    assert tc.two_coloring(1, dbl.connection_for({1})) == 1
    assert tc.two_coloring(1, dbl.connection_for(())) == 0


def test_disagreement_sets_are_for_conn_and_psc_only():
    # psc morphisms are colored like their connections; every other
    # category is refused by name.
    for c in tc.enumerate_connections(C2, C3):
        assert tc.invariant_set(tc.to_strong(c)) == tc.invariant_set(c)
    for cat in (tc.RIGID, tc.EMB, tc.INC_INJ, tc.CONN_LINEAR, tc.CONN_ROOT):
        c = tc.enumerate_hom(cat, C2, C3)[0]
        for color in (tc.invariant_set, lambda c: tc.two_coloring(0, c)):
            with pytest.raises(InvalidMorphismError, match=f"conn and psc morphisms, not {cat}$"):
                color(c)


def test_disagreement_outside_the_marked_set_is_refused(monkeypatch):
    # No connection disagrees at the root, which is never marked: let one
    # such row past the row rules.
    c = conn(C2, C3, (0, 0, 1), (1, 2))
    monkeypatch.setattr(morphisms, "row_failures", lambda cat, S, T, rows: np.full(len(rows), -1))
    with pytest.raises(InvalidMorphismError,
                       match=r"^disagreement at unmarked vertices \[0\]; connection invalid$"):
        tc.invariant_set(c)


def test_to_strong_examples():
    assert tc.to_strong(tc.identity_connection(C3)).key() == tc.identity_connection(
        C3, tc.PSC
    ).key()
    T = tc.doubling_tree(C2).tree
    c = conn(C2, T, (0, 1, 0, 0), (0, 1))
    p = tc.to_strong(c)
    assert p.surj.values == (0, 1) and p.top == 1
    c2 = conn(C2, T, (0, 1, 1, 0), (0, 2))
    p2 = tc.to_strong(c2)
    assert p2.surj.values == (0, 1, 1) and p2.top == 2


def test_to_strong_outputs_are_strong_partial_pairs():
    # to_strong validates only its input; every output over these Hom-sets
    # passes validate_connection and is a member of the psc Hom-set.
    D1 = tc.doubling_tree(C2).tree
    for T in (D1, tc.doubling_tree(D1).tree):
        conns = tc.enumerate_connections(C2, T)
        outs = [tc.to_strong(c) for c in conns]
        for p in outs:
            assert p.category == tc.PSC
            tc.validate_connection(p)
        assert {p.key() for p in outs} == {p.key() for p in tc.enumerate_psc(C2, T)}
        assert len(outs) == len(conns) > 0


def test_to_strong_section():
    for S in tc.all_trees_up_to(3):
        for T in tc.all_trees_up_to(4):
            for p in tc.enumerate_psc(S, T):
                assert tc.to_strong(tc.complete_strong(p)).key() == p.key()


def test_prune_top_examples():
    T = tc.doubling_tree(C2).tree
    p = tc.annotate(
        tc.Connection(tc.PSC, tmap(T, C2, (0, 1, 1), top=2), tmap(C2, T, (0, 2)))
    )
    q = tc.prune_top(p)
    assert q.bits == (1,)
    assert q.source == tc.chain(1)
    assert q.hom.surj.values == (0,) and q.hom.top == 0
    p0 = tc.annotate(
        tc.Connection(tc.PSC, tmap(T, C2, (0, 1), top=1), tmap(C2, T, (0, 1)))
    )
    assert tc.prune_top(p0).bits == (0,)
    with pytest.raises(InvalidMorphismError):
        tc.prune_top(tc.annotate(tc.identity_connection(tc.chain(1), tc.PSC)))


def test_prune_bit_zero_when_embedding_is_induced():
    for S in tc.all_trees_up_to(3):
        if S.n < 2:
            continue
        for T in tc.all_trees_up_to(4):
            for p in tc.enumerate_psc(S, T):
                ind = tc.induced_embedding(p.surj)
                bit = tc.prune_top(tc.annotate(p)).bits[-1]
                assert bit == int(ind.values[S.n - 1] != p.emb.values[S.n - 1])


def test_lower_top_example():
    T = tc.doubling_tree(C2).tree
    q = tc.Connection(tc.PSC, tmap(T, C2, (0, 1, 1), top=2), tmap(C2, T, (0, 2)))
    out = tc.lower_top(q)
    assert out.surj.values == (0, 1)
    assert out.emb.values == (0, 1)
    assert tc.prune_top(tc.annotate(out)).bits == (0,)
    with pytest.raises(InvalidMorphismError):
        tc.lower_top(out)  # bit already 0


def test_prune_top_outputs_are_connections():
    # prune_top validates only its input; every output over these psc
    # Hom-sets passes validate_connection on the source without its top.
    outs = 0
    for S in tc.all_trees_up_to(4):
        if S.n < 2:
            continue
        for T in tc.all_trees_up_to(6):
            for p in tc.enumerate_psc(S, T):
                out = tc.prune_top(tc.annotate(p)).hom
                assert out.category == tc.PSC
                assert out.source == tc.initial_subtree(S, S.n - 2)
                tc.validate_connection(out)
                outs += 1
    assert outs == 3394


def test_lower_top_outputs_are_connections():
    # lower_top validates only its input; every output over these psc
    # Hom-sets passes validate_connection and has pruning bit 0.
    outs = 0
    for S in tc.all_trees_up_to(4):
        if S.n < 2:
            continue
        for T in tc.all_trees_up_to(6):
            for p in tc.enumerate_psc(S, T):
                if not tc.two_coloring(S.n - 1, p):
                    continue
                out = tc.lower_top(p)
                assert out.category == tc.PSC and out.source == S
                tc.validate_connection(out)
                assert tc.prune_top(tc.annotate(out)).bits == (0,)
                outs += 1
    assert outs == 974


def test_prune_signature_examples():
    assert tc.prune_signature(tc.identity_connection(C3, tc.PSC)) == frozenset()
    dbl = tc.doubling_tree(C2)
    strong = tc.to_strong(dbl.connection_for({1}))
    assert tc.prune_signature(strong) == {1}


def test_prune_signature_equals_invariant_set():
    for S in tc.all_trees_up_to(3):
        for T in tc.all_trees_up_to(4):
            for p in tc.enumerate_psc(S, T):
                assert tc.prune_signature(p) == tc.invariant_set(p)


def test_prune_signature_checks_each_step_once(row_checks):
    # Each step's input check covers the previous step's output: S.n - 1
    # validity checks in all, one per pruning step.
    V = tc.doubling_tree(tc.doubling_tree(C2).tree).tree
    for S in tc.all_trees_up_to(4):
        for p in list(tc.enumerate_psc(S, V))[::7]:
            row_checks.clear()
            tc.prune_signature(p)
            assert len(row_checks) == S.n - 1
    bad = tc.Connection(tc.PSC, tmap(C3, C2, (0, 0, 1)), tmap(C2, C3, (0, 1)))
    with pytest.raises(InvalidMorphismError):
        tc.prune_signature(bad)


def test_functor_laws_on_trees_up_to_6():
    # Criterion 8's row passes with T and V of up to 6 vertices.
    assert functor_laws(tc.all_trees_up_to(3), tc.all_trees_up_to(6)) == (True, 57812, 19589)


def test_annotated_composition_keeps_bits():
    dbl = tc.doubling_tree(C2)
    T = dbl.tree
    V = tc.doubling_tree(T).tree
    outer = [
        g
        for g in tc.enumerate_psc(T, V)
        if g.emb.values == tc.induced_embedding(g.surj).values
    ]
    assert outer
    for p in tc.enumerate_psc(C2, T):
        ann = tc.prune_top(tc.annotate(p))
        for g in outer[:5]:
            composed = tc.compose_annotated(ann, g)
            assert composed.bits == ann.bits


def _morphisms():
    dbl = tc.doubling_tree(C2)
    T = dbl.tree
    q = tc.Connection(tc.PSC, tmap(T, C2, (0, 1, 1), top=2), tmap(C2, T, (0, 2)))
    return SimpleNamespace(c=dbl.connection_for({1}), q=q, ann=tc.annotate(q),
                           g=tc.identity_connection(T), h=tc.identity_connection(T, tc.PSC))


@pytest.mark.parametrize("call", [
    pytest.param(lambda m: tc.validate_connection(m.c), id="validate_connection"),
    pytest.param(lambda m: tc.to_strong(m.c), id="to_strong"),
    pytest.param(lambda m: tc.complete_strong(m.q), id="complete_strong"),
    pytest.param(lambda m: tc.compose(m.c, m.g), id="compose"),
    pytest.param(lambda m: tc.compose_annotated(m.ann, m.h), id="compose_annotated"),
    pytest.param(lambda m: tc.invariant_set(m.c), id="invariant_set"),
    pytest.param(lambda m: tc.two_coloring(1, m.c), id="two_coloring"),
    pytest.param(lambda m: tc.powerset_coloring(m.c), id="powerset_coloring"),
    pytest.param(lambda m: tc.prune_top(m.ann), id="prune_top"),
    pytest.param(lambda m: tc.lower_top(m.q), id="lower_top"),
])
def test_single_morphism_calls_check_once(call, row_checks):
    # Each call validates its input (or, for compose, the composite) once
    # and trusts the output it builds.
    m = _morphisms()
    row_checks.clear()
    call(m)
    assert len(row_checks) == 1
