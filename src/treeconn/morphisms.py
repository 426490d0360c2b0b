"""Maps between ordered trees and the pair categories built from them.

A morphism here is a ``Connection``: a pair of a surjection part (big tree
to small tree, possibly restricted to an initial segment) and an embedding
part (small tree into big tree), tagged with the category it lives in.  The
injection-only and surjection-only categories reuse the same container with
the unused half set to ``None``.

Each rule is written once, on rows: ``row_failures`` (validity),
``composite_rows`` (composition) and ``row_disagreements`` (the coloring
disagreement sets).  A morphism of Hom(S, T) is one int64 row: the
embedding S -> T (emb, incinj), the surjection T -> S (rigid), or
surjection | embedding (the pair categories), a psc surjection padded with
-1 past its top, the embedding's last value (the pair is strong).  The
single-morphism API applies the rules to ``connection_to_row``'s one row.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .errors import InvalidMorphismError
from .trees import (OrderedTree, marked_set, record_field, record_index, tree_from_record,
                    tree_to_record)

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
# The rules, on rows.
# ---------------------------------------------------------------------------

# Each category's conditions in the order they are checked: row_failures
# gives the index of the first one a row fails.
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


def _embeds(S: OrderedTree, T: OrderedTree, e: np.ndarray) -> np.ndarray:
    """Per row of e (maps S -> T): root-preserving, strictly increasing and
    meet-preserving.  Consecutive vertices suffice: in preorder, y < x < z
    makes meet(y, z) the lower of meet(y, x) and meet(x, z), in the source
    and, as the map is increasing, in the target."""
    lo, hi, xs = e[:, :-1], e[:, 1:], np.arange(S.n - 1)
    return ((e[:, 0] == 0) & (hi > lo).all(axis=1)
            & (T.meet_table[lo, hi] == e[:, S.meet_table[xs, xs + 1]]).all(axis=1))


def _condition_a(surj: np.ndarray, emb: np.ndarray) -> np.ndarray:
    """Condition (a) per row: s(i(x)) = x, and the running maximum of s at
    i(x) is x (0..i(x)-1 lies strictly below i(x)).  It makes s onto with
    increasing least preimages and i increasing: all the linear ones ask."""
    r, xs = np.arange(len(surj))[:, None], np.arange(emb.shape[1])
    prefix_max = np.maximum.accumulate(surj, axis=1)
    return ((surj[r, emb] == xs) & (prefix_max[r, emb] == xs)).all(axis=1)


def _induced_rows(S: OrderedTree, T: OrderedTree, surj: np.ndarray):
    """(ind, rigid) per row of surj (maps T -> S, -1 past a segment's top):
    ind(x) is the meet of x's preimages, of the first and last as subtrees
    are preorder intervals, and rigid says ind is an embedding with
    s(ind(x)) = x (so s is onto and ind adjoint to it)."""
    xs = np.arange(S.n)
    hit = surj[:, :, None] == xs
    ind = T.meet_table[hit.argmax(axis=1), surj.shape[1] - 1 - hit[:, ::-1].argmax(axis=1)]
    return ind, _embeds(S, T, ind) & (surj[np.arange(len(surj))[:, None], ind] == xs).all(axis=1)


def row_failures(category: str, S: OrderedTree, T: OrderedTree, rows: np.ndarray) -> np.ndarray:
    """Per row of Hom(S, T), its first failure's index in FAILURES[category]
    or -1; a value outside its tree raises.  A psc row ends at its
    embedding's last value, so it never fails FAILURES[PSC][1] (strong)."""
    sn, tn = S.n, T.n
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
        fails += [(emb > emb[:, -1:]).any(axis=1), False]
    if category == INC_INJ:
        fails.append((emb[:, 1:] <= emb[:, :-1]).any(axis=1))
    if category in PAIR_CATEGORIES:
        fails.append(~_condition_a(surj, emb))
    if category in (RIGID, CONN, PSC):
        fails.append(~_induced_rows(S, T, surj)[1])
    if category in (EMB, CONN, PSC):
        fails.append(~_embeds(S, T, emb))
    if category == CONN_ROOT:
        fails.append(emb[:, 0] != 0)
    failed = np.full(len(rows), -1)
    for code in reversed(range(len(fails))):  # the first failed condition wins
        failed[fails[code]] = code
    return failed


def _raise_first(category: str, failed: np.ndarray) -> None:
    """Raise the message of the first row that ``row_failures`` failed."""
    if (failed >= 0).any():
        raise InvalidMorphismError(FAILURES[category][failed[failed >= 0][0]])


def composite_rows(category: str, tn: int, f: np.ndarray, g_rows: np.ndarray) -> np.ndarray:
    """Rows in Hom(S, V) of f o g for each g in ``g_rows`` (rows of
    Hom(T, V), T of ``tn`` vertices) and each f in ``f`` (rows of
    Hom(S, T)), shape (len(g_rows), len(f), width)."""
    gi, fi = np.arange(len(g_rows))[:, None, None], np.arange(len(f))[:, None]
    if category in EMB_ONLY:
        return g_rows[gi, f]  # g_e[f_e]
    if category == RIGID:
        return f[fi, g_rows[:, None, :]]  # f_s[g_s]
    vn = g_rows.shape[1] - tn
    h_s = f[fi, g_rows[:, None, :vn]]  # f_s[g_s]
    h_e = g_rows[gi, vn + f[:, tn:]]  # g_e[f_e]
    if category == PSC:
        # Keep h_s up to the new top g_e[f_top] = h_e[-1].  The -1 padding of
        # g_s lies past g's top, so past the new top too.
        h_s[np.arange(vn) > h_e[..., -1:]] = -1
    return np.concatenate((h_s, h_e), axis=2)


def row_disagreements(category: str, S: OrderedTree, V: OrderedTree,
                      rows: np.ndarray) -> np.ndarray:
    """The (len(rows), S.n) boolean disagreement sets of conn or psc rows
    s | i of Hom(S, V): where i differs from the induced embedding of s.
    Rows that are no morphisms, or another category, raise; so does a
    disagreement outside the marked set, which no valid connection has."""
    if category not in (CONN, PSC):
        raise InvalidMorphismError(
            f"disagreement sets are defined for conn and psc morphisms, not {category}")
    _raise_first(category, row_failures(category, S, V, rows))
    surj, emb = rows[:, :V.n], rows[:, V.n:]
    # A rigid s's induced embedding sends x to its least preimage (a meet
    # of preimages that is one).  By condition (a) no vertex before the
    # preimage i(x) maps above x, so i(x) is not the least if one maps to x.
    prefix_max = np.maximum.accumulate(surj, axis=1)
    diff = (emb > 0) & (prefix_max[np.arange(len(rows))[:, None], emb - 1] == np.arange(S.n))
    outside = set(np.flatnonzero(diff.any(axis=0)).tolist()) - marked_set(S)
    if outside:
        raise InvalidMorphismError(
            f"disagreement at unmarked vertices {sorted(outside)}; connection invalid")
    return diff


def connection_to_row(c: Connection) -> np.ndarray:
    """c as one row of Hom(c.source, c.target).  A psc pair that is not
    strong inside its segment has no row and raises its FAILURES[PSC]."""
    s, e = c.key()
    if c.category == PSC:
        if max(e) > c.top:
            raise InvalidMorphismError(FAILURES[PSC][0])
        if e[-1] != c.top:
            raise InvalidMorphismError(FAILURES[PSC][1])
        s += (-1,) * (c.target.n - len(s))
    return np.array(s + e, dtype=np.int64)


def connection_from_row(category: str, S: OrderedTree, T: OrderedTree,
                        row: list[int]) -> Connection:
    """The ``Connection`` of one row (a list) of Hom(S, T)."""
    if category in EMB_ONLY:
        return Connection(category, None, TreeMap(S, T, row))
    if category == RIGID:
        return Connection(category, TreeMap(T, S, row), None)
    emb = TreeMap(S, T, row[T.n:])
    if category == PSC:
        return Connection(category, TreeMap(T, S, row[: row[-1] + 1], domain_top=row[-1]), emb)
    return Connection(category, TreeMap(T, S, row[: T.n]), emb)


# ---------------------------------------------------------------------------
# One morphism at a time: each call checks a single row.
# ---------------------------------------------------------------------------

def is_embedding(f: TreeMap) -> bool:
    """Root-preserving, strictly increasing, meet-preserving map check."""
    if not f.is_total:
        raise InvalidMorphismError("embedding check needs a total map")
    return bool(_embeds(f.source, f.target, np.array([f.values]))[0])


def is_increasing_injection(f: TreeMap) -> bool:
    return row_failures(INC_INJ, f.source, f.target, np.array([f.values]))[0] < 0


def induced_embedding(s: TreeMap) -> TreeMap | None:
    """The map sending each target vertex to the meet of its preimages, if
    it is an embedding adjoint to s, else None; raises unless s is onto."""
    if len(set(s.values)) < s.target.n:
        raise InvalidMorphismError("induced embedding needs a surjective map")
    ind, rigid = _induced_rows(s.target, s.source, np.array([s.values]))
    return TreeMap(s.target, s.source, ind[0].tolist()) if rigid[0] else None


def is_rigid_surjection(s: TreeMap) -> bool:
    """True when s is surjective and its induced embedding closes the pair."""
    return bool(_induced_rows(s.target, s.source, np.array([s.values]))[1][0])


def condition_a(s: TreeMap, i: TreeMap) -> bool:
    """The partial-inverse compatibility: s(i(x)) = x and everything strictly
    below i(x) maps to x or lower."""
    surj = np.full((1, max(i.target.n, s.effective_n)), -1)
    surj[0, : s.effective_n] = s.values
    return bool(_condition_a(surj, np.array([i.values]))[0])


def validate_connection(c: Connection) -> None:
    """Raise InvalidMorphismError naming the first failed condition."""
    _raise_first(c.category, row_failures(c.category, c.source, c.target,
                                          connection_to_row(c)[None]))


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


def compose(f: Connection, g: Connection) -> Connection:
    """Composite of f: S -> T with g: T -> V, re-validated before it is
    built.  A psc argument needs a row: see ``connection_to_row``."""
    if f.category != g.category:
        raise InvalidMorphismError(f"category mismatch: {f.category} vs {g.category}")
    if f.target != g.source:
        raise InvalidMorphismError("middle trees do not match")
    cat, S, V = f.category, f.source, g.target
    if cat == PSC and max(g.surj.values[: g.emb.values[f.top] + 1]) > f.top:
        raise InvalidMorphismError("composite escapes the inner initial segment")
    try:
        [[row]] = composite_rows(cat, f.target.n, connection_to_row(f)[None],
                                 connection_to_row(g)[None])
        _raise_first(cat, row_failures(cat, S, V, row[None]))
    except InvalidMorphismError as exc:
        raise InvalidMorphismError(f"composite failed re-validation: {exc}") from exc
    return connection_from_row(cat, S, V, row.tolist())


# ---------------------------------------------------------------------------
# Construction helpers.
# ---------------------------------------------------------------------------

def restrict(m: TreeMap, v: int) -> TreeMap:
    """Restrict a map to the initial segment 0..v of its source."""
    if v > m.top:
        raise IndexError(f"vertex {v} outside map domain 0..{m.top}")
    return TreeMap(m.source, m.target, m.values[: v + 1], domain_top=v)


def identity_connection(t: OrderedTree, category: str = CONN) -> Connection:
    row = list(range(t.n)) * (1 if category in EMB_ONLY + SURJ_ONLY else 2)
    return connection_from_row(category, t, t, row)


def complete_strong(p: Connection) -> Connection:
    """Extend a partial strong pair to a total connection by sending every
    vertex above the segment top to the root of the small tree.  Only the
    input is validated: the new positions lie above every embedded vertex
    and the root already has preimage 0, so the output is a connection."""
    if p.category != PSC:
        raise InvalidMorphismError("completion applies to partial strong pairs")
    validate_connection(p)
    T, S = p.target, p.source
    svals = p.surj.values + (0,) * (T.n - 1 - p.top)
    return Connection(CONN, TreeMap(T, S, svals), TreeMap(S, T, p.emb.values))


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
        return None if rec.get(name) is None else tuple(map(record_index, rec[name]))
    except TypeError:
        raise ValueError(f"record field {name!r} must be a list of integers") from None


def connection_from_record(rec: dict) -> Connection:
    cat = record_field(rec, "category")
    S = tree_from_record(record_field(rec, "source"))
    T = tree_from_record(record_field(rec, "target"))
    surj, emb, top = _record_ints(rec, "surj"), _record_ints(rec, "emb"), rec.get("domain_top")
    if top is not None and (isinstance(top, bool) or not isinstance(top, int)):
        raise ValueError("record field 'domain_top' must be an integer or null")
    surj = None if surj is None else TreeMap(T, S, surj, domain_top=top)
    emb = None if emb is None else TreeMap(S, T, emb)
    c = Connection(cat, surj, emb)
    validate_connection(c)
    return c
