"""Finite ordered trees and forests in canonical preorder numbering.

Vertices are numbered 0..n-1 by depth-first preorder with children visited in
child order, so the derived total order on vertices is plain integer
comparison and every initial segment 0..v is parent-closed.  A parent entry of
``ROOT`` (-1) marks a root; trees have exactly one root at index 0, forests
any number of roots.
"""

from __future__ import annotations

import json
import operator
from dataclasses import dataclass
from functools import cached_property
from typing import Iterator

import numpy as np

from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetExceededError, ParseError

ROOT = -1


def _validate_parents(parent: tuple[int, ...], *, forest: bool) -> None:
    """Check that ``parent`` encodes a canonical preorder numbering.

    Canonical form: vertex v > 0 either starts a new component (forests only)
    or attaches to an ancestor-or-self of v-1, which is exactly the condition
    for the numbering to be a preorder listing with children in index order.
    """
    for v, p in enumerate(parent):
        if p == ROOT:
            if v != 0 and not forest:
                raise ValueError(f"vertex {v}: only vertex 0 may be a root in a tree")
            continue
        if v == 0:
            raise ValueError("vertex 0 must be a root")
        if not 0 <= p < v:
            raise ValueError(f"vertex {v}: parent {p} must satisfy 0 <= parent < {v}")
        w = v - 1
        while w != ROOT and w != p:
            w = parent[w]
        if w != p:
            raise ValueError(
                f"vertex {v}: parent {p} is not an ancestor-or-self of {v - 1}; "
                "numbering is not a preorder"
            )


class _ParentStructure:
    """Shared derived structure for trees and forests."""

    parent: tuple[int, ...]

    @property
    def n(self) -> int:
        return len(self.parent)

    @cached_property
    def children(self) -> tuple[tuple[int, ...], ...]:
        kids: list[list[int]] = [[] for _ in range(self.n)]
        for v, p in enumerate(self.parent):
            if p != ROOT:
                kids[p].append(v)
        return tuple(tuple(k) for k in kids)

    def num_children(self, v: int) -> int:
        return len(self.children[v])

    def ancestors(self, v: int) -> tuple[int, ...]:
        """Ancestor-or-self chain of v, root end first."""
        self._check_vertex(v)
        chain = []
        while v != ROOT:
            chain.append(v)
            v = self.parent[v]
        return tuple(reversed(chain))

    def is_pred(self, u: int, v: int) -> bool:
        """True when u is an ancestor-or-self of v in the tree order."""
        self._check_vertex(u)
        self._check_vertex(v)
        while v != ROOT and v > u:
            v = self.parent[v]
        return v == u

    def _check_vertex(self, v: int) -> None:
        if not 0 <= v < self.n:
            raise IndexError(f"vertex {v} out of range for size {self.n}")


@dataclass(frozen=True)
class OrderedTree(_ParentStructure):
    """A finite ordered tree given by its canonical parent sequence."""

    parent: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parent", tuple(int(p) for p in self.parent))
        if self.n == 0:
            raise ValueError("a tree has at least one vertex")
        _validate_parents(self.parent, forest=False)

    @cached_property
    def anc(self) -> np.ndarray:
        """Boolean matrix: anc[u, v] iff u is an ancestor-or-self of v.

        In preorder a parent precedes its child, so the parent's column is
        final when the child's is filled: the child's strict ancestors are
        exactly the parent's ancestors-or-self.
        """
        n = self.n
        m = np.zeros((n, n), dtype=np.bool_)
        for v, p in enumerate(self.parent):
            if p != ROOT:
                m[:v, v] = m[:v, p]
            m[v, v] = True
        m.setflags(write=False)
        return m

    @cached_property
    def meet_table(self) -> np.ndarray:
        """meet_table[u, v] is the deepest common ancestor of u and v.

        Filled by rows (the table is symmetric), parents first as preorder
        lists them: v meets its descendants at v and every other vertex
        where its parent does.
        """
        n = self.n
        anc = self.anc
        tab = np.zeros((n, n), dtype=np.int64)
        for v, p in enumerate(self.parent):
            if p != ROOT:
                tab[v] = tab[p]
            tab[v, anc[v]] = v
        tab.setflags(write=False)
        return tab

    def meet(self, u: int, v: int) -> int:
        self._check_vertex(u)
        self._check_vertex(v)
        return int(self.meet_table[u, v])

    def __str__(self) -> str:
        return format_tree(self)


@dataclass(frozen=True)
class Forest(_ParentStructure):
    """Zero or more ordered trees, numbered component by component."""

    parent: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "parent", tuple(int(p) for p in self.parent))
        _validate_parents(self.parent, forest=True)

    @property
    def roots(self) -> tuple[int, ...]:
        return tuple(v for v, p in enumerate(self.parent) if p == ROOT)

    def components(self) -> tuple[OrderedTree, ...]:
        """The component trees, each renumbered from 0."""
        out = []
        roots = list(self.roots) + [self.n]
        for a, b in zip(roots, roots[1:]):
            out.append(OrderedTree(tuple(ROOT if p == ROOT else p - a for p in self.parent[a:b])))
        return tuple(out)

    def __str__(self) -> str:
        return format_forest(self)


# ---------------------------------------------------------------------------
# Text format: balanced parentheses, child order = textual order.
# ---------------------------------------------------------------------------

def _parse_groups(text: str) -> tuple[tuple[int, ...], list[int]]:
    """The parent sequence of the groups in ``text`` and the offset at which
    each top-level group starts."""
    parent: list[int] = []
    stack: list[int] = []
    starts: list[int] = []
    for i, ch in enumerate(text):
        if ch.isspace():
            continue
        if ch == "(":
            if not stack:
                starts.append(i)
            parent.append(stack[-1] if stack else ROOT)
            stack.append(len(parent) - 1)
        elif ch == ")":
            if not stack:
                raise ParseError("unbalanced ')'", i)
            stack.pop()
        else:
            raise ParseError(f"unexpected character {ch!r}", i)
    if stack:
        raise ParseError("unbalanced '(': group never closed", len(text))
    return tuple(parent), starts


def parse_tree(text: str) -> OrderedTree:
    """Parse a single balanced-parenthesis group into a tree."""
    parent, starts = _parse_groups(text)
    if not parent:
        raise ParseError("empty input", 0)
    if len(starts) > 1:
        raise ParseError("more than one top-level group", starts[1])
    return OrderedTree(parent)


def parse_forest(text: str) -> Forest:
    """Parse zero or more balanced-parenthesis groups into a forest."""
    return Forest(_parse_groups(text)[0])


def format_tree(t: OrderedTree) -> str:
    """Canonical text; ``parse_tree`` of the result is the identity."""
    parts: list[str] = []

    def emit(v: int) -> None:
        parts.append("(")
        for c in t.children[v]:
            emit(c)
        parts.append(")")

    emit(0)
    return "".join(parts)


def format_forest(f: Forest) -> str:
    return "".join(format_tree(c) for c in f.components())


# ---------------------------------------------------------------------------
# Structured format.
# ---------------------------------------------------------------------------

def tree_to_record(t: OrderedTree | Forest) -> dict:
    return {"n": t.n, "parent": [None if p == ROOT else p for p in t.parent]}


def record_field(rec: dict, name: str):
    """rec[name]; a ValueError names the field when rec lacks it."""
    if not isinstance(rec, dict) or name not in rec:
        raise ValueError(f"record has no field {name!r}")
    return rec[name]


def record_index(v) -> int:
    """operator.index(v), refusing the bools that JSON true and false load as."""
    if isinstance(v, bool):
        raise TypeError("a bool is not an integer")
    return operator.index(v)


def _record_parent(rec: dict) -> tuple[int, ...]:
    parent = record_field(rec, "parent")
    try:
        parent = tuple(ROOT if p is None else record_index(p) for p in parent)
    except TypeError:
        raise ValueError("record field 'parent' must be a list of integers and nulls") from None
    if isinstance(rec.get("n"), bool) or rec.get("n") != len(parent):
        raise ValueError("record field 'n' does not match parent length")
    return parent


def tree_from_record(rec: dict) -> OrderedTree:
    return OrderedTree(_record_parent(rec))


def forest_from_record(rec: dict) -> Forest:
    return Forest(_record_parent(rec))


def dump_tree(t: OrderedTree | Forest) -> str:
    return json.dumps(tree_to_record(t), sort_keys=True, separators=(",", ":"))


# ---------------------------------------------------------------------------
# Operations.
# ---------------------------------------------------------------------------

def meet(t: OrderedTree, u: int, v: int) -> int:
    """Greatest common predecessor of u and v."""
    return t.meet(u, v)


def initial_subtree(t: OrderedTree, v: int) -> OrderedTree:
    """The induced tree on vertices 0..v (a preorder prefix is parent-closed)."""
    t._check_vertex(v)
    return OrderedTree(t.parent[: v + 1])


def leaves(t: OrderedTree) -> frozenset[int]:
    """Vertices with no children."""
    return frozenset(v for v in range(t.n) if not t.children[v])


def marked_set(t: OrderedTree) -> frozenset[int]:
    """Non-root vertices with at most one immediate successor."""
    return frozenset(v for v in range(1, t.n) if len(t.children[v]) <= 1)


def chain(k: int) -> OrderedTree:
    """The path tree with k vertices; ancestry coincides with the index order."""
    if k < 1:
        raise ValueError("chain size must be >= 1")
    return OrderedTree((ROOT,) + tuple(range(k - 1)))


def enumerate_trees(n: int, budget: Budget = DEFAULT_BUDGET) -> Iterator[OrderedTree]:
    """All ordered trees with n vertices, in lexicographic order of parent
    sequences.  Deterministic across runs."""
    if n < 1:
        raise ValueError("tree size must be >= 1")
    if n > budget.max_tree_size:
        raise BudgetExceededError(
            f"tree size {n} exceeds budget max_tree_size={budget.max_tree_size}",
            kind="max_tree_size",
        )
    parent = [ROOT] * n

    def rec(v: int) -> Iterator[OrderedTree]:
        if v == n:
            yield OrderedTree(tuple(parent))
            return
        spine = []
        w = v - 1
        while w != ROOT:
            spine.append(w)
            w = parent[w]
        for p in sorted(spine):
            parent[v] = p
            yield from rec(v + 1)
        parent[v] = ROOT

    yield from rec(1)


def all_trees_up_to(n: int, budget: Budget = DEFAULT_BUDGET) -> list[OrderedTree]:
    """Every tree with 1..n vertices, smaller sizes first."""
    out: list[OrderedTree] = []
    for k in range(1, n + 1):
        out.extend(enumerate_trees(k, budget))
    return out
