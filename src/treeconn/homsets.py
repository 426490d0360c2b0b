"""Exhaustive, deterministic enumeration of Hom-sets for every category tag.

A ``HomSet`` keeps Hom(S, T) as a read-only int64 array, one row per
morphism in the layout of ``morphisms``, and builds ``Connection`` objects
(``morphisms.connection_from_row``) only on indexing or iteration.  Rows
are in lexicographic order, the canonical order, so a shorter psc prefix
sorts first; re-running yields identical arrays.  ``composite_indices``
composes whole Hom-sets by ``morphisms.composite_rows`` and locates the
composites in Hom(S, V), all on these arrays.

Embeddings are built level by level, within ``max_hom`` at every level, and
every other Hom-set is generated from them: a rigid surjection is the unique
extension of its induced embedding (its skeleton) by choices at the
positions off the skeleton.  Connections, partial strong pairs (cut at the
embedding's top) and rigid surjections take one pass each: every (skeleton,
embedding) pair that can carry a connection, or every rigid skeleton, is
expanded directly over the values its free positions allow, so ``max_hom``
bounds the output before any row exists and no skeleton x embedding cross
product is built (``kernels.rigid_fill`` is kept only for the benchmark
tracer).  Filter-all-maps oracles live in the test suite.
"""

from __future__ import annotations

from collections.abc import Iterator
from dataclasses import dataclass
from functools import partial

import numpy as np

from . import kernels
from .config import DEFAULT_BUDGET, Budget
from .errors import BudgetExceededError, InvalidMorphismError
from .morphisms import (
    CONN,
    CONN_LINEAR,
    CONN_ROOT,
    EMB,
    INC_INJ,
    PSC,
    RIGID,
    Connection,
    composite_rows,
    connection_from_row,
)
from .trees import OrderedTree


@dataclass(frozen=True, eq=False)
class HomSet:
    """Hom(source, target) in canonical order: one read-only row of ``rows``
    per morphism, laid out as the module docstring says."""

    category: str
    source: OrderedTree
    target: OrderedTree
    rows: np.ndarray

    def __post_init__(self):
        self.rows.flags.writeable = False

    def __len__(self) -> int:
        return len(self.rows)

    def __iter__(self) -> Iterator[Connection]:
        decode = partial(connection_from_row, self.category, self.source, self.target)
        return map(decode, self.rows.tolist())

    def __getitem__(self, i: int) -> Connection:
        return connection_from_row(self.category, self.source, self.target, self.rows[i].tolist())


def _min_table(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64)
    return np.minimum.outer(idx, idx)


def _leq_matrix(n: int) -> np.ndarray:
    idx = np.arange(n, dtype=np.int64)
    return np.less_equal.outer(idx, idx)


def _emb_rows(S: OrderedTree, T: OrderedTree, budget: Budget, *, linear: bool = False) -> np.ndarray:
    """Rows of embeddings S -> T (tree embeddings, or increasing injections
    when ``linear``), in lexicographic order.  Every Hom-set starts here, so
    this is where both trees are held to ``max_vertices``."""
    for t in (S, T):
        if t.n > budget.max_vertices:
            raise BudgetExceededError(
                f"tree with {t.n} vertices exceeds budget max_vertices={budget.max_vertices}",
                kind="max_vertices",
            )
    if linear:
        meet_s, meet_t = _min_table(S.n), _min_table(T.n)
    else:
        meet_s, meet_t = S.meet_table, T.meet_table
    count, rows = kernels.embedding_search(meet_s, meet_t, not linear, budget.max_hom)
    if rows is None:
        raise BudgetExceededError(
            f"{count} prefix embeddings exceed budget max_hom={budget.max_hom}", kind="max_hom"
        )
    return rows


def _too_many_rigid(budget: Budget) -> BudgetExceededError:
    return BudgetExceededError(f"more than max_hom={budget.max_hom} rigid surjections",
                               kind="max_hom")


def _rigid_rows(frm: OrderedTree, onto: OrderedTree, budget: Budget) -> np.ndarray:
    """Rows of rigid surjections frm -> onto, in lexicographic order."""
    skels = _emb_rows(onto, frm, budget)
    out = kernels._expand(kernels._rigid_blocks(skels, frm.anc), frm.n, budget.max_hom)
    if out is None:
        raise _too_many_rigid(budget)
    return out[np.lexsort(out.T[::-1])]


def count_rigid_surjections(frm: OrderedTree, onto: OrderedTree,
                            budget: Budget = DEFAULT_BUDGET, *, cap: int | None = None) -> int:
    """Exact number of rigid surjections frm -> onto without materializing
    them.  A count above ``cap`` reads cap + 1, and a negative cap is
    refused with ValueError; without a cap, a count above max_hom raises
    BudgetExceededError, as enumerating them does."""
    if cap is not None and cap < 0:
        raise ValueError(f"cap must be non-negative, got {cap}")
    count = kernels.rigid_count(_emb_rows(onto, frm, budget), frm.anc,
                                budget.max_hom if cap is None else cap)
    if cap is None and count > budget.max_hom:
        raise _too_many_rigid(budget)
    return count


def enumerate_embeddings(S: OrderedTree, T: OrderedTree,
                         budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All tree embeddings S -> T."""
    return HomSet(EMB, S, T, _emb_rows(S, T, budget))


def enumerate_increasing_injections(S: OrderedTree, T: OrderedTree,
                                    budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All increasing injections between the underlying linear orders."""
    return HomSet(INC_INJ, S, T, _emb_rows(S, T, budget, linear=True))


def enumerate_rigid_surjections(frm: OrderedTree, onto: OrderedTree,
                                budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All rigid surjections frm -> onto, as the Hom-set Hom(onto, frm)."""
    return HomSet(RIGID, onto, frm, _rigid_rows(frm, onto, budget))


def enumerate_connections(S: OrderedTree, T: OrderedTree, category: str = CONN,
                          budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All connection pairs in Hom(S, T) for a total-pair category tag."""
    if category not in (CONN, CONN_LINEAR, CONN_ROOT):
        raise ValueError(f"enumerate_connections does not handle {category!r}")
    return _connections(S, T, category, _emb_rows(S, T, budget, linear=category != CONN), budget)


def _connections(S: OrderedTree, T: OrderedTree, category: str, skels: np.ndarray,
                 budget: Budget) -> HomSet:
    """Hom(S, T) for conn, conn-linear, conn-root or psc from its skeletons:
    the rows of the embeddings S -> T, or of the increasing injections when linear."""
    embs = skels[skels[:, 0] == 0] if category == CONN_ROOT else skels
    dom = T.anc if category in (CONN, PSC) else _leq_matrix(T.n)
    rows = kernels.connection_rows(skels, embs, dom, budget.max_hom, category == PSC)
    if rows is None:
        what = "partial strong pairs" if category == PSC else "connections"
        raise BudgetExceededError(f"more than max_hom={budget.max_hom} {what}", kind="max_hom")
    return HomSet(category, S, T, rows)


def enumerate_psc(S: OrderedTree, T: OrderedTree,
                  budget: Budget = DEFAULT_BUDGET) -> HomSet:
    """All partial strong pairs: for each v in T, the strong connections
    between the initial segment up to v and S.

    The embeddings of S into the initial segment up to v are the embeddings
    into T that end at or below v; those ending at v are the strong ones.  So
    one pair-first pass over all embeddings S -> T builds every segment, each
    surjection cut at its embedding's top and padded with -1.
    """
    return _connections(S, T, PSC, _emb_rows(S, T, budget), budget)


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


def _row_keys(rows: np.ndarray) -> np.ndarray:
    """Bytes keys (big-endian entries + 1) in the lexicographic row order."""
    data = np.ascontiguousarray(rows + 1, dtype=">u8")
    return data.view(np.dtype((np.void, 8 * data.shape[-1])))[..., 0]


def composite_blocks(hom_st: HomSet, g_rows: np.ndarray,
                     width: int) -> Iterator[tuple[int, np.ndarray]]:
    """(start, f o g for f in hom_st and g in block) over blocks of ``g_rows`` of
    about ``kernels._BLOCK_CELLS`` composite cells, ``width`` per row."""
    step = max(1, kernels._BLOCK_CELLS // max(len(hom_st) * width, 1))
    for lo in range(0, len(g_rows), step):
        yield lo, composite_rows(hom_st.category, hom_st.target.n, hom_st.rows,
                                 g_rows[lo: lo + step])


def composite_indices(hom_st: HomSet, hom_tv: HomSet, hom_sv: HomSet) -> Iterator[np.ndarray]:
    """Indices in ``hom_sv`` of every f o g, as (block, len(hom_st)) arrays
    over blocks of g of about ``kernels._BLOCK_CELLS`` composite cells.
    A composite missing from ``hom_sv`` raises InvalidMorphismError."""
    keys = _row_keys(hom_sv.rows)
    for _, block in composite_blocks(hom_st, hom_tv.rows, hom_sv.rows.shape[1]):
        want = _row_keys(block)
        idx = np.searchsorted(keys, want)
        if len(keys) == 0 or (keys[np.minimum(idx, len(keys) - 1)] != want).any():
            raise InvalidMorphismError("composite missing from enumerated Hom(S, V)")
        yield idx
