"""Composition invariants, explicit colorings, and the pruning operations.

The disagreement set between a connection's embedding half and the induced
embedding of its surjection half is stable under outer composition; it is
the value of the powerset coloring and the quantity the searches in
``search`` revolve around.  The pruning operations restrict morphisms one
top vertex at a time while recording that disagreement bit by bit.

Every functor operation here validates its input once and builds an output
that is valid by construction, without checking it again; the tests
validate the outputs over whole Hom-sets.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMorphismError
from .morphisms import (
    CONN,
    PSC,
    Connection,
    TreeMap,
    compose,
    connection_to_row,
    induced_embedding,
    restrict,
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
    """Restrict a total connection to the segment sealed by its embedding.

    The surjection is cut at the embedding's image of the last vertex, the
    embedding is unchanged; the result is a strong partial pair, so only
    the input is validated (the outputs are checked in the tests).
    """
    if c.category != CONN:
        raise InvalidMorphismError("to_strong applies to total tree connections")
    validate_connection(c)
    return Connection(PSC, restrict(c.surj, c.emb.values[-1]), c.emb)


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


def prune_top(p: AnnotatedPscHom) -> AnnotatedPscHom:
    """Drop the source's largest vertex, restricting both halves through the
    embedding's image of the new top, and append one bit recording whether
    the embedding disagreed with the induced embedding at the dropped vertex.
    The input is validated by ``two_coloring``.
    """
    hom = p.hom
    S = hom.source
    if S.n < 2:
        raise InvalidMorphismError("cannot prune a single-vertex source")
    w = S.n - 2
    bit = two_coloring(S.n - 1, hom)
    Sw = initial_subtree(S, w)
    iw = hom.emb.values[w]
    surj = TreeMap(hom.target, Sw, hom.surj.values[: iw + 1], domain_top=iw)
    emb = TreeMap(Sw, hom.target, hom.emb.values[: w + 1])
    return AnnotatedPscHom(Connection(PSC, surj, emb), p.bits + (bit,))


def lower_top(q: Connection) -> Connection:
    """Move the embedding's top down onto the induced embedding's top.

    Defined exactly when the current pruning bit is 1 (the two tops differ);
    the surjection is restricted accordingly and the result always carries
    pruning bit 0.  The input is validated by ``two_coloring``.
    """
    if q.category != PSC:
        raise InvalidMorphismError("lower_top applies to partial strong pairs")
    S = q.source
    v = S.n - 1
    if not two_coloring(v, q):
        raise InvalidMorphismError("embedding already agrees with the induced embedding at the top")
    target_top = induced_embedding(q.surj).values[v]
    vals = q.emb.values[:v] + (target_top,)
    return Connection(PSC, restrict(q.surj, target_top), TreeMap(S, q.target, vals))


def prune_signature(p: Connection) -> frozenset[int]:
    """Iterate pruning down to a single-vertex source and return the set of
    vertices whose recorded bit is 1.

    Computed by literal iteration rather than any closed form; the test
    suite asserts pointwise equality with ``invariant_set``.
    """
    if p.category != PSC:
        raise InvalidMorphismError("prune_signature applies to partial strong pairs")
    S = p.source
    q = annotate(p)
    while q.source.n > 1:
        q = prune_top(q)
    members = frozenset(S.n - 1 - j for j, b in enumerate(q.bits) if b)
    outside = members - marked_set(S)
    if outside:
        raise InvalidMorphismError(
            f"pruning bits set at unmarked vertices {sorted(outside)}"
        )
    return members
