"""Composition invariants, explicit colorings, and the functor operations.

The disagreement set between a connection's embedding half and the induced
embedding of its surjection half is stable under outer composition; it is
the value of the powerset coloring and the quantity the searches in
``search`` revolve around.  The pruning operations restrict morphisms one
top vertex at a time while recording that disagreement bit by bit.

Every functor operation is a rule on rows ending in ``morphisms.cut_at_top``:
``to_strong`` is the cut, ``prune_rows`` drops the source's top and cuts at
the new one, ``lower_top`` moves the embedding's top to the induced one and
cuts.  Each function encodes its one row, validates it once, applies the
rule and decodes; the tests validate the outputs over whole Hom-sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMorphismError
from .morphisms import (
    CONN,
    PSC,
    Connection,
    compose,
    connection_from_row,
    connection_to_row,
    cut_at_top,
    row_disagreements,
    validate_connection,
)
from .trees import OrderedTree, initial_subtree, marked_set


def invariant_set(c: Connection) -> frozenset[int]:
    """Marked vertices where the embedding differs from the induced embedding.

    The difference set of a valid connection always lies inside the marked
    set (the root and the vertices with two or more immediate successors
    are pinned); ``row_disagreements`` refuses a difference outside it.
    """
    [diff] = row_disagreements(c.category, c.source, c.target, connection_to_row(c)[None])
    return frozenset(np.flatnonzero(diff).tolist())


# The coloring by disagreement sets used in the degree experiments.
powerset_coloring = invariant_set


def two_coloring(x: int, c: Connection) -> int:
    """0 when the embedding agrees with the induced embedding at x, else 1."""
    c.source._check_vertex(x)
    return int(x in invariant_set(c))


def to_strong(c: Connection) -> Connection:
    """Restrict a total connection to the segment sealed by its embedding:
    the surjection is cut at the embedding's image of the last vertex
    (``cut_at_top``), the embedding is unchanged."""
    if c.category != CONN:
        raise InvalidMorphismError("to_strong applies to total tree connections")
    validate_connection(c)
    return connection_from_row(PSC, c.source, c.target,
                               cut_at_top(connection_to_row(c), c.target.n).tolist())


@dataclass(frozen=True)
class AnnotatedPscHom:
    """A partial strong pair together with the bits recorded while pruning."""

    hom: Connection
    bits: tuple[int, ...] = ()

    def __post_init__(self):
        if self.hom.category != PSC:
            raise InvalidMorphismError("annotation applies to partial strong pairs")

    @property
    def source(self) -> OrderedTree:
        return self.hom.source

    @property
    def target(self) -> OrderedTree:
        return self.hom.target


def annotate(p: Connection) -> AnnotatedPscHom:
    return AnnotatedPscHom(p)


def compose_annotated(f: AnnotatedPscHom, g: Connection) -> AnnotatedPscHom:
    """Outer composition; the recorded bits ride along untouched."""
    return AnnotatedPscHom(compose(f.hom, g), f.bits)


def prune_rows(S: OrderedTree, T: OrderedTree, rows: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Prune psc rows of Hom(S, T), S of two or more vertices: the rows
    without their last column, cut at the new top, and each row's
    disagreement bit at S's top.  ``row_disagreements`` validates the rows."""
    bits = row_disagreements(PSC, S, T, rows)[:, -1]
    return cut_at_top(rows[:, :-1].copy(), T.n), bits


def prune_top(p: AnnotatedPscHom) -> AnnotatedPscHom:
    """Drop the source's largest vertex, restricting both halves through the
    embedding's image of the new top, and append the bit ``prune_rows``
    records at the dropped vertex."""
    hom = p.hom
    S = hom.source
    if S.n < 2:
        raise InvalidMorphismError("cannot prune a single-vertex source")
    [row], [bit] = prune_rows(S, hom.target, connection_to_row(hom)[None])
    return AnnotatedPscHom(connection_from_row(PSC, initial_subtree(S, S.n - 2), hom.target,
                                               row.tolist()), p.bits + (int(bit),))


def lower_top(q: Connection) -> Connection:
    """Move the embedding's top down onto the induced embedding's top (the
    least preimage of S's top) and cut there.

    Defined exactly when the current pruning bit is 1 (the two tops differ);
    the result always carries pruning bit 0.  The input is validated by
    ``row_disagreements``.
    """
    if q.category != PSC:
        raise InvalidMorphismError("lower_top applies to partial strong pairs")
    S, T = q.source, q.target
    row = connection_to_row(q)
    [diff] = row_disagreements(PSC, S, T, row[None])
    if not diff[-1]:
        raise InvalidMorphismError("embedding already agrees with the induced embedding at the top")
    row[-1] = np.argmax(row[:T.n] == S.n - 1)
    return connection_from_row(PSC, S, T, cut_at_top(row, T.n).tolist())


def prune_signature(p: Connection) -> frozenset[int]:
    """Iterate pruning down to a single-vertex source and return the set of
    vertices whose recorded bit is 1.

    Computed by literal iteration rather than any closed form; the test
    suite asserts pointwise equality with ``invariant_set``.
    """
    if p.category != PSC:
        raise InvalidMorphismError("prune_signature applies to partial strong pairs")
    S = Sv = p.source
    rows, members = connection_to_row(p)[None], set()
    while Sv.n > 1:
        rows, [bit] = prune_rows(Sv, p.target, rows)
        if bit:
            members.add(Sv.n - 1)
        Sv = initial_subtree(Sv, Sv.n - 2)
    outside = members - marked_set(S)
    if outside:
        raise InvalidMorphismError(
            f"pruning bits set at unmarked vertices {sorted(outside)}"
        )
    return frozenset(members)
