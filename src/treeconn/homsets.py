"""Exhaustive, deterministic enumeration of Hom-sets for every category tag.

Surjection-bearing Hom-sets are generated from embeddings: every rigid
surjection is the unique extension of its induced embedding (its skeleton)
by choices at the positions off the skeleton.  Rigid surjections alone are
filled skeleton by skeleton.  Connections, and partial strong pairs once per
initial segment, are generated pair-first: each (skeleton, embedding) pair
that can carry a connection is expanded directly over the values its free
positions allow, so ``max_hom`` bounds the output before any row exists and
no skeleton x embedding cross product is built.  Results are sorted into
lexicographic order on (surjection sequence, embedding sequence); re-running
yields identical sequences.  The slow filter-all-maps generators live in the
test suite as oracles.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

from . import kernels
from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetExceededError
from .morphisms import (
    CONN,
    CONN_LINEAR,
    CONN_ROOT,
    EMB,
    INC_INJ,
    PSC,
    RIGID,
    Connection,
    TreeMap,
)
from .trees import OrderedTree


@dataclass(frozen=True)
class HomSet:
    """An enumerated Hom-set: no duplicates, canonical lexicographic order."""

    category: str
    source: OrderedTree
    target: OrderedTree
    morphisms: tuple[Connection, ...]

    def __len__(self) -> int:
        return len(self.morphisms)

    def __iter__(self):
        return iter(self.morphisms)

    def __getitem__(self, i: int) -> Connection:
        return self.morphisms[i]

    @cached_property
    def _index(self) -> dict:
        return {c.key(): i for i, c in enumerate(self.morphisms)}

    def index_of(self, c: Connection) -> int:
        return self._index[c.key()]


def _check_sizes(budget: Budget, *trees: OrderedTree) -> None:
    for t in trees:
        if t.n > budget.max_vertices:
            raise BudgetExceededError(
                f"tree with {t.n} vertices exceeds budget max_vertices={budget.max_vertices}"
            )


def _min_table(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64)
    return np.minimum.outer(idx, idx)


def _leq_matrix(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64)
    return np.less_equal.outer(idx, idx)


def _emb_rows(S: OrderedTree, T: OrderedTree, budget: Budget, *, linear: bool = False) -> np.ndarray:
    """Rows of embeddings S -> T (tree embeddings, or increasing injections
    when ``linear``), in lexicographic order."""
    if S.n > T.n:
        return np.empty((0, S.n), dtype=np.int64)
    if linear:
        meet_s, meet_t = _min_table(S.n), _min_table(T.n)
    else:
        meet_s, meet_t = S.meet_table, T.meet_table
    cap = min(4096, budget.max_hom + 1)
    count, out = kernels.embedding_search(meet_s, meet_t, not linear, cap)
    if count > budget.max_hom:
        raise BudgetExceededError(
            f"{count} embeddings exceed budget max_hom={budget.max_hom}"
        )
    if count > cap:
        count, out = kernels.embedding_search(meet_s, meet_t, not linear, count)
    return out[:count].copy()


def _rigid_rows(frm: OrderedTree, onto: OrderedTree, budget: Budget, *, linear: bool = False) -> np.ndarray:
    """Rows of rigid surjections frm -> onto, in lexicographic order."""
    skels = _emb_rows(onto, frm, budget, linear=linear)
    if len(skels) == 0:
        return np.empty((0, frm.n), dtype=np.int64)
    dom = _leq_matrix(frm.n) if linear else frm.anc
    count = int(kernels.rigid_count(skels, dom, budget.max_hom))
    if count > budget.max_hom:
        raise BudgetExceededError(
            f"more than max_hom={budget.max_hom} rigid surjections"
        )
    out = np.empty((count, frm.n), dtype=np.int64)
    filled = kernels.rigid_fill(skels, dom, out)
    assert filled == count
    if count > 1:
        out = out[np.lexsort(out.T[::-1])]
    return out


def count_rigid_surjections(frm: OrderedTree, onto: OrderedTree,
                            budget: Budget = DEFAULT_BUDGET, *,
                            cap: int | None = None, linear: bool = False) -> int:
    """Exact number of rigid surjections frm -> onto without materializing
    them; clamped to cap + 1 when it exceeds ``cap``."""
    _check_sizes(budget, frm, onto)
    skels = _emb_rows(onto, frm, budget, linear=linear)
    if len(skels) == 0:
        return 0
    dom = _leq_matrix(frm.n) if linear else frm.anc
    limit = budget.max_hom if cap is None else cap
    return int(kernels.rigid_count(skels, dom, limit))


def enumerate_embeddings(S: OrderedTree, T: OrderedTree,
                         budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All tree embeddings S -> T."""
    _check_sizes(budget, S, T)
    rows = _emb_rows(S, T, budget)
    morphisms = tuple(
        Connection(EMB, None, TreeMap(S, T, tuple(int(v) for v in row)))
        for row in rows
    )
    return HomSet(EMB, S, T, morphisms)


def enumerate_increasing_injections(S: OrderedTree, T: OrderedTree,
                                    budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All increasing injections between the underlying linear orders."""
    _check_sizes(budget, S, T)
    rows = _emb_rows(S, T, budget, linear=True)
    morphisms = tuple(
        Connection(INC_INJ, None, TreeMap(S, T, tuple(int(v) for v in row)))
        for row in rows
    )
    return HomSet(INC_INJ, S, T, morphisms)


def enumerate_rigid_surjections(frm: OrderedTree, onto: OrderedTree,
                                budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All rigid surjections frm -> onto, as the Hom-set Hom(onto, frm)."""
    _check_sizes(budget, frm, onto)
    rows = _rigid_rows(frm, onto, budget)
    morphisms = tuple(
        Connection(RIGID, TreeMap(frm, onto, tuple(int(v) for v in row)), None)
        for row in rows
    )
    return HomSet(RIGID, onto, frm, morphisms)


def enumerate_connections(S: OrderedTree, T: OrderedTree, category: str = CONN,
                          budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All connection pairs in Hom(S, T) for a total-pair category tag."""
    if category not in (CONN, CONN_LINEAR, CONN_ROOT):
        raise ValueError(f"enumerate_connections does not handle {category!r}")
    _check_sizes(budget, S, T)
    linear = category != CONN
    skels = _emb_rows(S, T, budget, linear=linear)
    embs = skels[skels[:, 0] == 0] if category == CONN_ROOT else skels
    dom = _leq_matrix(T.n) if linear else T.anc
    rows = kernels.connection_rows(skels, embs, dom, budget.max_hom)
    if rows is None:
        raise BudgetExceededError(f"more than max_hom={budget.max_hom} connections")
    morphisms = tuple(
        Connection(category, TreeMap(T, S, row[:T.n]), TreeMap(S, T, row[T.n:]))
        for row in rows.tolist()
    )
    return HomSet(category, S, T, morphisms)


def enumerate_psc(S: OrderedTree, T: OrderedTree,
                  budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All partial strong pairs: for each v in T, the strong connections
    between the initial segment up to v and S.

    The embeddings of S into the initial segment up to v are the embeddings
    into T that end at or below v; those ending at v are the strong ones.
    """
    _check_sizes(budget, S, T)
    rows = _emb_rows(S, T, budget)
    parts = [np.empty((0, T.n + S.n), dtype=np.int64)]
    found = 0
    for v in range(S.n - 1, T.n):
        embs = rows[rows[:, -1] == v]
        if len(embs) == 0:
            continue
        part = kernels.connection_rows(rows[rows[:, -1] <= v], embs,
                                       T.anc[: v + 1, : v + 1], budget.max_hom - found)
        if part is None:
            raise BudgetExceededError(
                f"more than max_hom={budget.max_hom} partial strong pairs"
            )
        found += len(part)
        # Pad the surjection to T.n with -1: a shorter prefix sorts first.
        padded = np.full((len(part), T.n + S.n), -1, dtype=np.int64)
        padded[:, : v + 1] = part[:, : v + 1]
        padded[:, T.n:] = part[:, v + 1:]
        parts.append(padded)
    allrows = np.concatenate(parts)
    allrows = allrows[np.lexsort(allrows.T[::-1])]
    morphisms = tuple(
        Connection(
            PSC,
            TreeMap(T, S, row[: row[-1] + 1], domain_top=row[-1]),
            TreeMap(S, T, row[T.n:]),
        )
        for row in allrows.tolist()
    )
    return HomSet(PSC, S, T, morphisms)


def enumerate_hom(category: str, S: OrderedTree, T: OrderedTree,
                  budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """Hom(S, T) for any category tag."""
    if category == EMB:
        return enumerate_embeddings(S, T, budget)
    if category == INC_INJ:
        return enumerate_increasing_injections(S, T, budget)
    if category == RIGID:
        return enumerate_rigid_surjections(T, S, budget)
    if category == PSC:
        return enumerate_psc(S, T, budget)
    return enumerate_connections(S, T, category, budget)
