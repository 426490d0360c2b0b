import itertools
import tracemalloc

import pytest
from hypothesis import given, strategies as st

import treeconn as tc
from treeconn.errors import BudgetExceededError, ParseError
from treeconn.trees import ROOT
from conftest import anc_loop, canonical_trees, definitional_order, meet_table_loop


def test_parse_basics():
    assert tc.parse_tree("()").parent == (ROOT,)
    assert tc.parse_tree("(()())").parent == (ROOT, 0, 0)
    assert tc.parse_tree("((())())").parent == (ROOT, 0, 1, 0)


def test_format_basics():
    assert tc.format_tree(tc.OrderedTree((ROOT,))) == "()"
    assert tc.format_tree(tc.OrderedTree((ROOT, 0, 0))) == "(()())"
    assert tc.format_tree(tc.OrderedTree((ROOT, 0, 1, 0))) == "((())())"


@pytest.mark.parametrize(
    "text,offset",
    [("", 0), ("(()", 3), ("())", 2), ("(a)", 1), ("()()", 2), ("()())", 4), (" () ()", 4)],
)
def test_parse_errors_carry_offsets(text, offset):
    with pytest.raises(ParseError) as exc:
        tc.parse_tree(text)
    assert exc.value.offset == offset


def test_parse_forest():
    f = tc.parse_forest("()(())")
    assert f.parent == (ROOT, ROOT, 1)
    assert f.roots == (0, 1)
    assert tc.format_forest(f) == "()(())"
    assert tc.parse_forest("").n == 0


@given(canonical_trees())
def test_parse_format_round_trip(t):
    assert tc.parse_tree(tc.format_tree(t)) == t


@given(canonical_trees())
def test_record_round_trip(t):
    assert tc.tree_from_record(tc.tree_to_record(t)) == t


def test_non_canonical_numbering_rejected():
    with pytest.raises(ValueError):
        tc.OrderedTree((ROOT, 0, 0, 1))  # vertex 3 attaches left of vertex 2
    with pytest.raises(ValueError):
        tc.OrderedTree((ROOT, ROOT))  # second root in a tree


def _meet_by_chains(t, u, v):
    cu = set(t.ancestors(u))
    return max(cu & set(t.ancestors(v)))


def test_meet_exhaustive_small():
    for t in tc.all_trees_up_to(6):
        for u in range(t.n):
            for v in range(t.n):
                m = t.meet(u, v)
                assert m == _meet_by_chains(t, u, v)
                assert m == t.meet(v, u)
        for v in range(t.n):
            assert t.meet(0, v) == 0
            assert t.meet(v, v) == v


def _same_table(got, want):
    return (got.dtype == want.dtype and got.shape == want.shape
            and not got.flags.writeable and got.tobytes() == want.tobytes())


def test_tables_match_loop_references_up_to_9_vertices():
    for t in tc.all_trees_up_to(9, tc.Budget(max_tree_size=9)):
        assert _same_table(t.anc, anc_loop(t)), t
        assert _same_table(t.meet_table, meet_table_loop(t)), t


@given(canonical_trees(max_n=40))
def test_tables_match_loop_references(t):
    assert _same_table(t.anc, anc_loop(t))
    assert _same_table(t.meet_table, meet_table_loop(t))


def test_meet_table_holds_no_more_than_the_table():
    # The recurrences hold one n x n table at a time, with no n x n x n
    # temporary.
    t = tc.chain(800)
    tracemalloc.start()
    try:
        table = t.meet_table
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert table.nbytes == 800 * 800 * 8
    assert peak < 2 * table.nbytes


def test_meet_example():
    t = tc.parse_tree("((())())")
    assert t.meet(2, 3) == 0


def test_definitional_order_matches_indices():
    for t in tc.all_trees_up_to(6):
        for u in range(t.n):
            for v in range(t.n):
                expected = (u > v) - (u < v)
                assert definitional_order(t, u, v) == expected


def test_definitional_order_example():
    t = tc.parse_tree("((())())")
    assert definitional_order(t, 2, 3) == -1


def test_initial_subtree():
    t = tc.parse_tree("(()())")
    assert tc.initial_subtree(t, 1) == tc.chain(2)
    assert tc.initial_subtree(t, t.n - 1) == t
    assert tc.initial_subtree(t, 0) == tc.chain(1)


@given(canonical_trees(), st.data())
def test_initial_subtree_is_prefix(t, data):
    v = data.draw(st.integers(min_value=0, max_value=t.n - 1))
    sub = tc.initial_subtree(t, v)
    assert sub.parent == t.parent[: v + 1]
    assert tc.parse_tree(tc.format_tree(sub)) == sub


def test_leaves():
    assert tc.leaves(tc.chain(1)) == {0}
    assert tc.leaves(tc.chain(3)) == {2}
    assert tc.leaves(tc.parse_tree("(()())")) == {1, 2}
    for t in tc.all_trees_up_to(6):
        assert t.n - 1 in tc.leaves(t)


def test_marked_set():
    assert tc.marked_set(tc.chain(2)) == {1}
    assert tc.marked_set(tc.parse_tree("(()())")) == {1, 2}
    figure = tc.OrderedTree((ROOT, 0, 1, 2, 3, 2))
    assert tc.marked_set(figure) == {1, 3, 4, 5}


def test_chain():
    assert tc.format_tree(tc.chain(1)) == "()"
    assert tc.format_tree(tc.chain(2)) == "(())"
    assert tc.format_tree(tc.chain(3)) == "((()))"
    with pytest.raises(ValueError):
        tc.chain(0)


def _canonicalize(parent):
    kids = [[] for _ in parent]
    for v, p in enumerate(parent):
        if p != ROOT:
            kids[p].append(v)
    out = []
    index = {}
    stack = [(0, ROOT)]
    while stack:
        node, par = stack.pop()
        index[node] = len(out)
        out.append(par if par == ROOT else index[par])
        for c in reversed(kids[node]):
            stack.append((c, node))
    return tuple(out)


@pytest.mark.parametrize("n", range(1, 8))
def test_enumerate_trees_counts_and_order(n):
    got = list(tc.enumerate_trees(n))
    seqs = [t.parent for t in got]
    assert seqs == sorted(seqs)
    assert len(set(seqs)) == len(seqs)
    # Independent count: canonicalize every parent-below array.
    forms = set()
    for tail in itertools.product(*[range(v) for v in range(1, n)]):
        forms.add(_canonicalize((ROOT,) + tail))
    assert len(got) == len(forms)
    assert len(got) == [1, 1, 2, 5, 14, 42, 132][n - 1]


def test_enumerate_trees_budget():
    with pytest.raises(BudgetExceededError):
        list(tc.enumerate_trees(9))
    assert sum(1 for _ in tc.enumerate_trees(8, tc.Budget(max_tree_size=8))) == 429


@given(canonical_trees())
def test_parents_below(t):
    assert all(t.parent[v] < v for v in range(1, t.n))
