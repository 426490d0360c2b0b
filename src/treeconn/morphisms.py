"""Maps between ordered trees and the pair categories built from them.

A morphism here is a ``Connection``: a pair of a surjection part (big tree
to small tree, possibly restricted to an initial segment) and an embedding
part (small tree into big tree), tagged with the category it lives in.  The
injection-only and surjection-only categories reuse the same container with
the unused half set to ``None``.  ``row_failures`` checks Hom-set rows by
``validate_connection``'s rules.
"""

from __future__ import annotations

import itertools
import operator
from dataclasses import dataclass

import numpy as np

from .errors import InvalidMorphismError
from .trees import OrderedTree, record_field, tree_from_record, tree_to_record

# Category tags.
CONN = "conn"              # connections between trees
PSC = "psc"                # partial strong connections
CONN_LINEAR = "conn-linear"  # connections between the underlying linear orders
CONN_ROOT = "conn-root"    # linear connections whose embedding fixes the minimum
INC_INJ = "incinj"         # increasing injections (embedding half only)
RIGID = "rigid"            # rigid surjections (surjection half only)
EMB = "emb"                # tree embeddings (embedding half only)

CATEGORIES = (CONN, PSC, CONN_LINEAR, CONN_ROOT, INC_INJ, RIGID, EMB)
PAIR_CATEGORIES = (CONN, PSC, CONN_LINEAR, CONN_ROOT)
EMB_ONLY = (INC_INJ, EMB)
SURJ_ONLY = (RIGID,)


@dataclass(frozen=True)
class TreeMap:
    """A vertex map between two trees, total or restricted to a prefix.

    When ``domain_top`` is set the map is defined on the initial segment
    0..domain_top of its source tree only, and ``values`` has exactly
    domain_top + 1 entries.
    """

    source: OrderedTree
    target: OrderedTree
    values: tuple[int, ...]
    domain_top: int | None = None

    def __post_init__(self):
        object.__setattr__(self, "values", tuple(int(v) for v in self.values))
        if self.domain_top is None:
            expect = self.source.n
        else:
            if not 0 <= self.domain_top < self.source.n:
                raise InvalidMorphismError(
                    f"domain_top {self.domain_top} out of range for source of size {self.source.n}"
                )
            expect = self.domain_top + 1
        if len(self.values) != expect:
            raise InvalidMorphismError(
                f"map has {len(self.values)} values, expected {expect}"
            )
        for v in self.values:
            if not 0 <= v < self.target.n:
                raise InvalidMorphismError(f"value {v} outside target of size {self.target.n}")

    @property
    def top(self) -> int:
        """Last source vertex the map is defined on."""
        return self.source.n - 1 if self.domain_top is None else self.domain_top

    @property
    def effective_n(self) -> int:
        return self.top + 1

    @property
    def is_total(self) -> bool:
        return self.top == self.source.n - 1

    def __call__(self, v: int) -> int:
        if not 0 <= v <= self.top:
            raise IndexError(f"vertex {v} outside map domain 0..{self.top}")
        return self.values[v]


@dataclass(frozen=True)
class Connection:
    """A tagged pair of maps T <-> S regarded as a morphism S -> T."""

    category: str
    surj: TreeMap | None
    emb: TreeMap | None

    def __post_init__(self):
        if self.category not in CATEGORIES:
            raise InvalidMorphismError(f"unknown category tag {self.category!r}")
        if self.category in PAIR_CATEGORIES:
            if self.surj is None or self.emb is None:
                raise InvalidMorphismError(f"{self.category} needs both halves")
            if self.surj.target != self.emb.source:
                raise InvalidMorphismError("surjection target differs from embedding source")
            if self.surj.source != self.emb.target:
                raise InvalidMorphismError("surjection source differs from embedding target")
            if not self.emb.is_total:
                raise InvalidMorphismError("embedding half must be total")
            if self.category != PSC and not self.surj.is_total:
                raise InvalidMorphismError(f"{self.category} surjection half must be total")
        elif self.category in EMB_ONLY:
            if self.emb is None or self.surj is not None:
                raise InvalidMorphismError(f"{self.category} carries the embedding half only")
            if not self.emb.is_total:
                raise InvalidMorphismError("embedding half must be total")
        else:  # RIGID
            if self.surj is None or self.emb is not None:
                raise InvalidMorphismError("rigid carries the surjection half only")
            if not self.surj.is_total:
                raise InvalidMorphismError("rigid surjection half must be total")

    @property
    def source(self) -> OrderedTree:
        """The small tree S of the Hom-set Hom(S, T)."""
        return self.emb.source if self.emb is not None else self.surj.target

    @property
    def target(self) -> OrderedTree:
        return self.emb.target if self.emb is not None else self.surj.source

    @property
    def top(self) -> int:
        """Last vertex of the target tree in play (restricted surjections)."""
        if self.surj is not None:
            return self.surj.top
        return self.target.n - 1

    def key(self) -> tuple:
        """Canonical sort/deduplication key within a fixed Hom-set."""
        s = self.surj.values if self.surj is not None else ()
        e = self.emb.values if self.emb is not None else ()
        return (s, e)


# ---------------------------------------------------------------------------
# Predicates.
# ---------------------------------------------------------------------------

def is_embedding(f: TreeMap) -> bool:
    """Root-preserving, strictly increasing, meet-preserving map check.

    Only consecutive vertices are compared: in preorder, y < x < z makes
    meet(y, z) the lower (nearer the root) of meet(y, x) and meet(x, z), in
    the source and, as the map is increasing, in the target, so the meets of
    every other pair follow.
    """
    if not f.is_total:
        raise InvalidMorphismError("embedding check needs a total map")
    vals = f.values
    ms = f.source.meet_table
    mt = f.target.meet_table
    return vals[0] == 0 and all(
        a < b and mt[a, b] == vals[ms[x, x + 1]]
        for x, (a, b) in enumerate(zip(vals, vals[1:]))
    )


def is_increasing_injection(f: TreeMap) -> bool:
    vals = f.values
    return all(vals[x] < vals[x + 1] for x in range(len(vals) - 1))


def induced_embedding(s: TreeMap) -> TreeMap | None:
    """The map sending each target vertex to the meet of its preimages.

    Returns the map only when it is an embedding and forms an adjoint pair
    with s (s(i(x)) = x and i(s(y)) below y); returns None otherwise.
    Raises when s is not surjective.

    In preorder the subtree of a meet is an interval, so the meet of x's
    preimages is the meet of the first and the last one.  Of the two laws
    only s(i(x)) = x can fail: i(s(y)) is a meet of preimages that include
    y, so it lies below y.
    """
    ns = s.target.n
    first, last = [-1] * ns, [-1] * ns
    for y, x in enumerate(s.values):
        if first[x] < 0:
            first[x] = y
        last[x] = y
    if min(first) < 0:
        raise InvalidMorphismError("induced embedding needs a surjective map")
    meet = s.source.meet_table
    cand = TreeMap(s.target, s.source, tuple(meet[a, b] for a, b in zip(first, last)))
    if not is_embedding(cand) or any(s.values[v] != x for x, v in enumerate(cand.values)):
        return None
    return cand


def is_rigid_surjection(s: TreeMap) -> bool:
    """True when s is surjective and its induced embedding closes the pair.

    Only the induced candidate is tested; the adjoint partner of a rigid
    surjection is unique, and the slow search over all embeddings lives in
    the test suite as an oracle.
    """
    return len(set(s.values)) == s.target.n and induced_embedding(s) is not None


def condition_a(s: TreeMap, i: TreeMap) -> bool:
    """The partial-inverse compatibility: s(i(x)) = x and everything strictly
    below i(x) maps to x or lower.

    In preorder "strictly below i(x)" is the prefix 0..i(x)-1, so with
    s(i(x)) = x the second clause says the running maximum of s at i(x) is x.
    """
    top = s.top
    prefix_max = list(itertools.accumulate(s.values, max))
    return all(ix <= top and s.values[ix] == x == prefix_max[ix]
               for x, ix in enumerate(i.values))


# Each category's conditions in the order they are checked:
# validate_connection raises the message of the first one a morphism fails,
# and row_failures indexes them per row.
FAILURES = {
    EMB: ("embedding half is not a tree embedding",),
    INC_INJ: ("embedding half is not strictly increasing",),
    RIGID: ("surjection half is not a rigid surjection",),
    CONN_LINEAR: ("pair fails the partial-inverse compatibility",),
}
FAILURES[CONN_ROOT] = FAILURES[CONN_LINEAR] + ("embedding does not fix the minimum element",)
FAILURES[CONN] = FAILURES[CONN_LINEAR] + FAILURES[RIGID] + FAILURES[EMB]
FAILURES[PSC] = ("embedding leaves the restricted initial segment",
                 "pair is not strong: embedding misses the top of its initial segment",
                 *FAILURES[CONN])


def validate_connection(c: Connection) -> None:
    """Raise InvalidMorphismError naming the first failed condition."""
    cat, messages = c.category, FAILURES[c.category]
    if cat in (EMB, INC_INJ, RIGID):
        if not (is_embedding(c.emb) if cat == EMB else is_increasing_injection(c.emb)
                if cat == INC_INJ else is_rigid_surjection(c.surj)):
            raise InvalidMorphismError(messages[0])
        return
    if cat == PSC and max(c.emb.values) > c.surj.top:
        raise InvalidMorphismError(messages[0])
    if cat == PSC and c.emb.values[-1] != c.surj.top:
        raise InvalidMorphismError(messages[1])
    # Condition (a) makes s onto with strictly increasing least preimages
    # and i strictly increasing, which is all the linear categories ask.
    if not condition_a(c.surj, c.emb):
        raise InvalidMorphismError(FAILURES[CONN_LINEAR][0])
    if cat in (CONN, PSC):
        if induced_embedding(c.surj) is None:
            raise InvalidMorphismError(FAILURES[RIGID][0])
        if not is_embedding(c.emb):
            raise InvalidMorphismError(FAILURES[EMB][0])
        return
    if cat == CONN_ROOT and c.emb.values[0] != 0:
        raise InvalidMorphismError(messages[1])


def _embeds(S: OrderedTree, T: OrderedTree, e: np.ndarray) -> np.ndarray:
    """``is_embedding`` per row of e (maps S -> T)."""
    lo, hi, xs = e[:, :-1], e[:, 1:], np.arange(S.n - 1)
    return ((e[:, 0] == 0) & (hi > lo).all(axis=1)
            & (T.meet_table[lo, hi] == e[:, S.meet_table[xs, xs + 1]]).all(axis=1))


def row_failures(category: str, S: OrderedTree, T: OrderedTree, rows: np.ndarray) -> np.ndarray:
    """Per row of Hom(S, T) (``homsets.HomSet`` layout: a psc surjection
    ends at the embedding's last value, -1 past it, so the row is strong),
    the index in FAILURES[category] of the first condition that
    ``validate_connection`` finds failed, or -1.  A value outside its tree
    raises InvalidMorphismError."""
    sn, tn, xs, r = S.n, T.n, np.arange(S.n), np.arange(len(rows))[:, None]
    surj = None if category in EMB_ONLY else rows[:, :tn]
    emb = None if category == RIGID else rows[:, -sn:]
    outside = emb is not None and ((emb < 0) | (emb >= tn)).any()
    if surj is not None:
        span = np.arange(tn) <= (emb[:, -1:] if category == PSC else tn - 1)
        outside |= np.where(span, (surj < 0) | (surj >= sn), surj != -1).any()
    if outside:
        raise InvalidMorphismError("row value outside its target tree")
    fails = []
    if category == PSC:
        fails += [(emb > emb[:, -1:]).any(axis=1), False]  # rows are strong
    if category == INC_INJ:
        fails.append((emb[:, 1:] <= emb[:, :-1]).any(axis=1))
    if category in PAIR_CATEGORIES:  # condition (a), as in ``condition_a``
        prefix_max = np.maximum.accumulate(surj, axis=1)
        fails.append(~((surj[r, emb] == xs) & (prefix_max[r, emb] == xs)).all(axis=1))
    if category in (RIGID, CONN, PSC):
        # As ``is_rigid_surjection``: the meets of each x's first and last
        # preimages form an embedding adjoint to s (s(ind(x)) = x makes s onto).
        hit = surj[:, :, None] == xs
        ind = T.meet_table[hit.argmax(axis=1), tn - 1 - hit[:, ::-1].argmax(axis=1)]
        fails.append(~(_embeds(S, T, ind) & (surj[r, ind] == xs).all(axis=1)))
    if category in (EMB, CONN, PSC):
        fails.append(~_embeds(S, T, emb))
    if category == CONN_ROOT:
        fails.append(emb[:, 0] != 0)
    failed = np.full(len(rows), -1)
    for code in reversed(range(len(fails))):  # the first failed condition wins
        failed[fails[code]] = code
    return failed


def is_connection(surj: TreeMap, emb: TreeMap, category: str = CONN) -> bool:
    """Check a pair of maps against the conditions of the tagged category."""
    if surj.target != emb.source or surj.source != emb.target:
        raise InvalidMorphismError("maps do not run between the same pair of trees")
    try:
        validate_connection(Connection(category, surj, emb))
    except InvalidMorphismError:
        return False
    return True


def is_sealed(s: TreeMap) -> bool:
    """True when the induced embedding hits the top of s's domain segment."""
    ind = induced_embedding(s)
    if ind is None:
        raise InvalidMorphismError("sealedness is defined for rigid surjections")
    return ind.values[-1] == s.top


def is_strong(c: Connection) -> bool:
    if c.emb is None:
        raise InvalidMorphismError("strongness needs an embedding half")
    return c.emb.values[-1] == c.top


# ---------------------------------------------------------------------------
# Construction helpers.
# ---------------------------------------------------------------------------

def restrict(m: TreeMap, v: int) -> TreeMap:
    """Restrict a map to the initial segment 0..v of its source."""
    if v > m.top:
        raise IndexError(f"vertex {v} outside map domain 0..{m.top}")
    return TreeMap(m.source, m.target, m.values[: v + 1], domain_top=v)


def identity_connection(t: OrderedTree, category: str = CONN) -> Connection:
    ident = TreeMap(t, t, tuple(range(t.n)))
    if category in EMB_ONLY:
        return Connection(category, None, ident)
    if category in SURJ_ONLY:
        return Connection(category, ident, None)
    if category == PSC:
        surj = TreeMap(t, t, tuple(range(t.n)), domain_top=t.n - 1)
        return Connection(PSC, surj, ident)
    return Connection(category, ident, ident)


def compose(f: Connection, g: Connection) -> Connection:
    """Composite of f: S -> T with g: T -> V, re-validated after construction."""
    if f.category != g.category:
        raise InvalidMorphismError(f"category mismatch: {f.category} vs {g.category}")
    if f.target != g.source:
        raise InvalidMorphismError("middle trees do not match")
    cat = f.category
    S, V = f.source, g.target
    if cat in EMB_ONLY:
        vals = tuple(g.emb.values[v] for v in f.emb.values)
        out = Connection(cat, None, TreeMap(S, V, vals))
    elif cat in SURJ_ONLY:
        vals = tuple(f.surj.values[v] for v in g.surj.values)
        out = Connection(cat, TreeMap(V, S, vals), None)
    elif cat == PSC:
        new_top = g.emb.values[f.top]
        svals = []
        for y in range(new_top + 1):
            mid = g.surj.values[y]
            if mid > f.top:
                raise InvalidMorphismError("composite escapes the inner initial segment")
            svals.append(f.surj.values[mid])
        evals = tuple(g.emb.values[f.emb.values[x]] for x in range(S.n))
        out = Connection(
            PSC,
            TreeMap(V, S, tuple(svals), domain_top=new_top),
            TreeMap(S, V, evals),
        )
    else:
        svals = tuple(f.surj.values[g.surj.values[y]] for y in range(V.n))
        evals = tuple(g.emb.values[f.emb.values[x]] for x in range(S.n))
        out = Connection(cat, TreeMap(V, S, svals), TreeMap(S, V, evals))
    try:
        validate_connection(out)
    except InvalidMorphismError as exc:
        raise InvalidMorphismError(f"composite failed re-validation: {exc}") from exc
    return out


def complete_strong(p: Connection) -> Connection:
    """Extend a partial strong pair to a total connection by sending every
    vertex above the segment top to the root of the small tree."""
    if p.category != PSC:
        raise InvalidMorphismError("completion applies to partial strong pairs")
    validate_connection(p)
    T, S = p.target, p.source
    svals = p.surj.values + (0,) * (T.n - 1 - p.top)
    out = Connection(CONN, TreeMap(T, S, svals), TreeMap(S, T, p.emb.values))
    validate_connection(out)
    return out


# ---------------------------------------------------------------------------
# Structured records.
# ---------------------------------------------------------------------------

def connection_to_record(c: Connection) -> dict:
    return {
        "category": c.category,
        "source": tree_to_record(c.source),
        "target": tree_to_record(c.target),
        "surj": list(c.surj.values) if c.surj is not None else None,
        "emb": list(c.emb.values) if c.emb is not None else None,
        "domain_top": c.surj.domain_top if c.surj is not None else None,
    }


def _record_ints(rec: dict, name: str):
    """rec[name] as a tuple of ints, or None when it is null or absent."""
    try:
        return None if rec.get(name) is None else tuple(map(operator.index, rec[name]))
    except TypeError:
        raise ValueError(f"record field {name!r} must be a list of integers") from None


def connection_from_record(rec: dict) -> Connection:
    cat = record_field(rec, "category")
    S = tree_from_record(record_field(rec, "source"))
    T = tree_from_record(record_field(rec, "target"))
    surj, emb, top = _record_ints(rec, "surj"), _record_ints(rec, "emb"), rec.get("domain_top")
    if top is not None and not isinstance(top, int):
        raise ValueError("record field 'domain_top' must be an integer or null")
    surj = None if surj is None else TreeMap(T, S, surj, domain_top=top)
    emb = None if emb is None else TreeMap(S, T, emb)
    c = Connection(cat, surj, emb)
    validate_connection(c)
    return c
