"""Array kernels for the hot enumeration and search loops.

Embeddings are expanded level by level (``embedding_search``).  Connections
and partial strong pairs are generated pair-first: ``realizable_pairs`` finds
the (skeleton, embedding) pairs that carry one, ``connection_rows`` expands
each over its free positions (a psc pair's up to its embedding's top), and
``doubling_pair_sweep`` checks the doubling stability condition on them.
Rigid surjections take one ``_expand`` pass over ``_rigid_blocks``, one
skeleton per pair; ``rigid_count`` counts them, and ``rigid_fill`` is kept
unused for the benchmark tracer.  All are plain numpy, in fixed-size blocks.

The loop kernels (the two coloring searches and the unused ``pair_filter``)
are compiled with numba when it imports and run interpreted otherwise, on
memoryviews of their array arguments, whose elements read as Python ints;
``BACKEND`` names the kind that runs and ``py_func`` gives the plain
kernel.  The searches run over m copies of one width, |Hom(S, T)|, and
undo each step from flat per-depth trails: at most m entries each for the
arrow search's mixed copies and forbids, m * min(r, width) for the degree.
``perfbench/run.py`` measures the kind that runs, end to end and per
kernel, and names it in its stamp.
"""

from __future__ import annotations

import functools

import numpy as np

try:
    from numba import njit as _njit

    BACKEND = "numba"
except ImportError:
    BACKEND = "python"


def _jit(fn):
    """Compile a loop kernel with numba, or else run it on memoryviews.

    Interpreted, every ndarray argument is passed as a memoryview of the same
    buffer (no copy), so each element access makes a Python int instead of
    a numpy scalar.  Callers pass arrays either way; ``py_func`` gives the
    kernel itself, to run on the arrays as they are.
    """
    if BACKEND == "numba":
        return _njit(cache=True)(fn)

    @functools.wraps(fn)
    def on_memoryviews(*args):
        return fn(*[memoryview(a) if isinstance(a, np.ndarray) else a for a in args])

    on_memoryviews.py_func = fn
    return on_memoryviews


def _jit_helper(fn):
    """Compile a helper that compiled loop kernels call; interpreted, it runs
    as written, on the memoryviews its kernel already holds."""
    return _njit(cache=True)(fn) if BACKEND == "numba" else fn


def py_func(kernel):
    """The uncompiled kernel, which runs on whatever arrays it is given."""
    return getattr(kernel, "py_func", kernel)


# Search statuses shared by the resumable kernels.
FOUND = 0
EXHAUSTED = 1
PAUSED = 2


@_jit
def pair_filter(surjs, embs, caps):
    """Mask of surjection/embedding pairs that are partial inverses.

    The library generates connections pair-first (``connection_rows``) and
    no longer calls this; the benchmark tracer still resolves it by name.

    Pair (s, j) passes when s(j(x)) = x for every x and s(y) stays at or
    below caps[q, y], the least x whose embedded image lies strictly above y.
    """
    a = surjs.shape[0]
    b = embs.shape[0]
    ns = embs.shape[1]
    nt = surjs.shape[1]
    mask = np.zeros((a, b), dtype=np.bool_)
    for q in range(b):
        for p in range(a):
            ok = True
            for x in range(ns):
                if surjs[p, embs[q, x]] != x:
                    ok = False
                    break
            if ok:
                for y in range(nt):
                    if surjs[p, y] > caps[q, y]:
                        ok = False
                        break
            mask[p, q] = ok
    return mask


@_jit
def dfs_bad_coloring(citems, width, istart, icopies, order, r,
                     col, nxt, maxu, ccnt, ccol, cmix, utrail, ustart,
                     node_budget, state, forbid, nforb, ftrail, fstart):
    """Resumable depth-first search for a coloring with no monochromatic copy.

    Items are colored in the order given by ``order`` with colors tried
    ascending, restricted to at most one fresh color beyond those already
    used (any bad coloring has a representative of this form, and with the
    identity order the first hit is the lexicographically least bad
    coloring).  Each color tried counts one node.

    Forward checking: a copy whose assigned items all have color c, with one
    item u left unassigned, forbids c on u.  forbid[u * r + c] counts the
    copies forbidding c on u, nforb[u] the colors forbidden on u; both start
    at zero.  A forbidden color is tried and skipped, and a step after which
    some item has all r colors forbidden is undone at once.  Pruned subtrees
    hold no bad coloring, so the first hit is the same as without the
    pruning.  Copy k is citems[k * width:(k + 1) * width]; width >= 2, as a
    one-item copy never forbids and the caller decides that case unaided.

    Per-copy state: ccnt assigned items, ccol the color of the first, cmix
    whether two colors are present.  The step at depth d records the copies
    it made mixed in utrail[ustart[d]:ustart[d + 1]] and its forbids, as
    u * r + c, in ftrail[fstart[d]:fstart[d + 1]]; ustart[0] = fstart[0] = 0.
    Along one path a copy turns mixed at most once and forbids at most once,
    so each trail needs one entry per copy.  state = [depth, explored]; all
    arrays persist across calls so the search can be paused on the node
    budget and resumed.
    """
    # state stays argument 15: the benchmark's tracer reads the node count there.
    n = order.shape[0]
    d = state[0]
    explored = state[1]
    while True:
        if d == n:
            state[0] = d
            state[1] = explored
            return FOUND
        it = order[d]
        c = nxt[d]
        lim = r
        m2 = maxu[d] + 2
        if m2 < lim:
            lim = m2
        while c < lim:
            if explored >= node_budget:
                nxt[d] = c
                state[0] = d
                state[1] = explored
                return PAUSED
            explored += 1
            if forbid[it * r + c] == 0:
                break
            c += 1
        if c < lim:
            col[it] = c
            ul = ustart[d]
            fl = fstart[d]
            wiped = False
            for k in icopies[istart[it]:istart[it + 1]]:
                cnt = ccnt[k]
                if cnt == 0:
                    ccol[k] = c
                elif cmix[k] == 0 and ccol[k] != c:
                    cmix[k] = 1
                    utrail[ul] = k
                    ul += 1
                cnt += 1
                ccnt[k] = cnt
                if cnt + 1 == width and cmix[k] == 0:
                    u = it
                    for ipos in range(k * width, k * width + width):
                        u = citems[ipos]
                        if col[u] < 0:
                            break
                    e = u * r + ccol[k]
                    if forbid[e] == 0:
                        nforb[u] += 1
                        if nforb[u] == r:
                            wiped = True
                    forbid[e] += 1
                    ftrail[fl] = e
                    fl += 1
            ustart[d + 1] = ul
            fstart[d + 1] = fl
            nxt[d] = c + 1
            if not wiped:
                mu = maxu[d]
                if c > mu:
                    mu = c
                maxu[d + 1] = mu
                d += 1
                if d < n:
                    nxt[d] = 0
                continue
            # Some item has no color left: undo this step below, at depth d.
        else:
            d -= 1
            if d < 0:
                state[0] = d
                state[1] = explored
                return EXHAUSTED
        prev = order[d]
        for k in icopies[istart[prev]:istart[prev + 1]]:
            ccnt[k] -= 1
        for k in utrail[ustart[d]:ustart[d + 1]]:
            cmix[k] = 0
        for e in ftrail[fstart[d]:fstart[d + 1]]:
            forbid[e] -= 1
            if forbid[e] == 0:
                nforb[e // r] -= 1
        col[prev] = -1


@_jit_helper
def _degree_bound(hist, cap):
    """Least copy value below cap (hist[v] copies have value v), else cap."""
    for v in range(cap):
        if hist[v] > 0:
            return v
    return cap


@_jit
def dfs_degree(istart, icopies, order, r, cap, col, nxt, maxu, cval, cmask,
               utrail, ustart, best_col, node_budget, hist, state):
    """Resumable branch-and-bound for max over colorings of the minimum
    number of colors attained on a copy.

    cmask[k] holds the colors on copy k.  Its value cval[k] = width minus
    its repeats (assigned items whose color the copy already had) bounds the
    colors it can end with; the caller starts it at width.  hist[v] counts
    the copies of value v < cap, where cap = min(r, width) is an a-priori
    upper bound, so the bound at a node, min(cap, min cval), is a scan of
    cap entries; at a leaf it is the attained minimum.  The step at depth d
    records the copies it gave a new color in utrail[ustart[d]:ustart[d + 1]]
    (ustart[0] = 0); the other copies of the item took a repeat.  Along one
    path a copy gains at most cap colors, which bounds the trail.  A color
    is kept when the bound after it exceeds the best so far; each color
    tried counts one node.

    state = [depth, explored, best]; the search stops early when best
    reaches cap.  best_col holds the witness coloring for the current best.
    """
    # state stays argument 15: the benchmark's tracer reads the node count there.
    n = order.shape[0]
    d = state[0]
    explored = state[1]
    best = state[2]
    while True:
        if best >= cap:
            state[0] = d
            state[1] = explored
            state[2] = best
            return EXHAUSTED
        if d == n:
            val = _degree_bound(hist, cap)
            if val > best:
                best = val
                for i in range(n):
                    best_col[i] = col[i]
            d -= 1  # n >= 1 items, so a leaf is undone at depth n - 1 >= 0
        else:
            it = order[d]
            c = nxt[d]
            lim = r
            m2 = maxu[d] + 2
            if m2 < lim:
                lim = m2
            if c < lim:
                if explored >= node_budget:
                    nxt[d] = c
                    state[0] = d
                    state[1] = explored
                    state[2] = best
                    return PAUSED
                explored += 1
                col[it] = c
                bit = 1 << c
                ul = ustart[d]
                for k in icopies[istart[it]:istart[it + 1]]:
                    mask = cmask[k]
                    if mask & bit == 0:
                        cmask[k] = mask | bit
                        utrail[ul] = k
                        ul += 1
                    else:
                        v = cval[k]
                        cval[k] = v - 1
                        if v < cap:
                            hist[v] -= 1
                        if v - 1 < cap:
                            hist[v - 1] += 1
                ustart[d + 1] = ul
                nxt[d] = c + 1
                if _degree_bound(hist, cap) > best:
                    mu = maxu[d]
                    if c > mu:
                        mu = c
                    maxu[d + 1] = mu
                    d += 1
                    if d < n:
                        nxt[d] = 0
                    continue
                # The bound cannot beat best: undo this step below, at depth d.
            else:
                d -= 1
                if d < 0:
                    state[0] = d
                    state[1] = explored
                    state[2] = best
                    return EXHAUSTED
        prev = order[d]
        keep = ~(1 << col[prev])
        j = ustart[d]
        end = ustart[d + 1]
        for k in icopies[istart[prev]:istart[prev + 1]]:
            if j < end and utrail[j] == k:
                cmask[k] &= keep
                j += 1
            else:
                v = cval[k]
                cval[k] = v + 1
                if v < cap:
                    hist[v] -= 1
                if v + 1 < cap:
                    hist[v + 1] += 1
        col[prev] = -1


# ---------------------------------------------------------------------------
# Embedding rows by frontier, surjection rows by mixed radix (plain numpy).
#
# A connection (s, j) is a skeleton m, the induced embedding of s, paired
# with an embedding j; the rows below are (skels[p], embs[q]) index pairs.
# A rigid surjection is a skeleton alone.  Either way each position of s
# takes one of the values its pair allows, so the maps of a pair are the
# mixed-radix numbers over those choices.  The frontier, the pair tests and
# the expansion work in blocks of about _BLOCK_CELLS cells, so memory follows
# the output and not the skeleton x embedding cross product.
# ---------------------------------------------------------------------------

_BLOCK_CELLS = 1 << 14


def embedding_search(meet_s, meet_t, pin_root, max_out):
    """Enumerate structure-preserving increasing injections level by level.

    meet_s/meet_t: (n, n) int64 meet tables; true meet tables with pin_root
    give tree embeddings, min-tables without it increasing injections.
    Level d holds the images of source vertices 0..d.  It extends each row
    by every c above its last value that leaves room for the images still
    to place and has meet_t[img[d - 1], c] == img[meet_s[d - 1, d]]; the
    other y < d follow, since in preorder y < x < z makes meet(y, z) the
    lower (nearer the root) of meet(y, x) and meet(x, z).  np.nonzero
    order keeps the rows lexicographic.

    Returns (count, rows).  A level of more than max_out rows stops the
    search before it is allocated, with count its size and rows None; tree
    prefixes can die out, so that level may outnumber the result.
    """
    ns = meet_s.shape[0]
    width = meet_t.shape[0] - ns + 1
    rows = np.arange(min(width, 1) if pin_root else width, dtype=np.int64)[:, None]
    for d in range(1, ns):
        if not 0 < len(rows) <= max_out:
            break
        cand = np.arange(d, d + width)
        step = max(1, _BLOCK_CELLS // width)
        parts, count = [], 0
        for block in (rows[r0:r0 + step] for r0 in range(0, len(rows), step)):
            last = block[:, -1:]
            ok = (cand > last) & (meet_t[last, cand] == block[:, meet_s[d - 1, d], None])
            i, j = np.nonzero(ok)
            count += len(i)
            if count <= max_out:
                parts.append(np.column_stack((block[i], cand[j])))
        if count > max_out:
            return count, None
        rows = parts[0] if len(parts) == 1 else np.concatenate(parts)
    if len(rows) > max_out:
        return len(rows), None
    # A frontier that died out has fewer than ns columns.
    return len(rows), rows.reshape(len(rows), ns)


def pair_caps(embs, nt):
    """caps[q, y] = least x with embs[q, x] > y, or ns when none exists."""
    b, ns = embs.shape
    hit = np.zeros((b, nt), dtype=np.int64)
    hit[np.arange(b)[:, None], embs] = 1
    # Rows are strictly increasing, so the x with embs[q, x] <= y are a prefix.
    return np.cumsum(hit, axis=1)


def realizable_pairs(skels, embs, dom, caps):
    """Yield, one block of embeddings at a time, the index arrays (p, q) of
    the pairs whose skeleton m = skels[p] and embedding j = embs[q] carry at
    least one connection; caps = pair_caps(embs, nt).

    The pair is realizable when, for every x: dom[m(x), j(x)]; the inverse
    of m at j(x) is undefined or x; and x <= caps[q, m(x)].  dom[u, y] says
    that a vertex y may take the value x with skeleton vertex u = m(x)
    (ancestry for trees, <= for linear orders).  Pairs come out ordered by
    embedding, then by skeleton.
    """
    a, ns = skels.shape
    b = embs.shape[0]
    nt = dom.shape[0]
    minv = np.full((a, nt), -1, dtype=np.int64)
    minv[np.arange(a)[:, None], skels] = np.arange(ns)
    step = max(1, _BLOCK_CELLS // max(a, 1))
    for q0 in range(0, b, step):
        js, cs = embs[q0:q0 + step], caps[q0:q0 + step]
        ok = np.ones((len(js), a), dtype=np.bool_)
        for x in range(ns):
            mx, jx = skels[:, x], js[:, x]
            inv = minv[:, jx].T
            ok &= dom[mx[None, :], jx[:, None]]
            ok &= (inv < 0) | (inv == x)
            ok &= cs[:, mx] >= x
        q, p = np.nonzero(ok)
        yield p, q + q0


def _allowed(ms, js, caps, dom):
    """allowed[k, y, x]: position y may take value x in the maps of pair k,
    with skeleton ms[k] and embedding js[k].  Positions on either are forced
    to the one x with ms[k, x] = y or js[k, x] = y; any other y takes each x
    with dom[ms[k, x], y] and, unless caps is None, x <= caps[k, y]."""
    k, ns = ms.shape
    nt = dom.shape[0]
    xs = np.arange(ns)
    allowed = dom[ms[:, None, :], np.arange(nt)[None, :, None]]
    if caps is not None:
        allowed &= xs <= caps[:, :, None]
    forced = np.full((k, nt), -1, dtype=np.int64)
    rows = np.arange(k)[:, None]
    forced[rows, ms] = xs
    forced[rows, js] = xs
    fixed = forced >= 0
    allowed[fixed] = xs == forced[fixed][:, None]
    return allowed


def _row_counts(allowed, cap):
    """Maps of each pair: the product of its radices allowed.sum(axis=2),
    clamped to cap + 1."""
    # A float product cannot wrap; clamped, it is exact below cap + 1.
    prod = allowed.sum(axis=2).prod(axis=1, dtype=np.float64)
    return np.minimum(prod, cap + 1).astype(np.int64)


def _expand(blocks, width, max_out):
    """Rows of every map the pairs of ``blocks`` allow, by mixed radix.

    blocks yields (allowed, tail) per block of pairs: allowed[k, y, x] says
    that position y < nt may take value x in the maps of pair k, and each of
    its rows is the map followed by tail[k], width entries in all.  A pair
    lists its maps with the last position fastest and values ascending, and
    pairs keep their order.  Returns None, before allocating any row, when
    there are more than max_out rows; otherwise the rows.
    """
    kept, total = [], 0
    for allowed, tail in blocks:
        counts = _row_counts(allowed, max_out)
        total += int(counts.sum())
        if total > max_out:
            return None
        # Kept pairs have a row each, so they number at most max_out.
        keep = counts > 0
        kept.append((allowed[keep], tail[keep], counts[keep]))
    out = np.empty((total, width), dtype=np.int64)
    pos = 0
    for allowed, tail, counts in kept:
        nt = allowed.shape[1]
        radix = allowed.sum(axis=2)
        values = np.argsort(~allowed, axis=2, kind="stable")
        n = int(counts.sum())
        pair = np.repeat(np.arange(len(counts)), counts)
        digits = np.arange(n) - np.repeat(np.cumsum(counts) - counts, counts)
        block = out[pos:pos + n]
        for y in range(nt - 1, -1, -1):
            r = radix[pair, y]
            block[:, y] = values[pair, y, digits % r]
            digits //= r
        block[:, nt:] = tail[pair]
        pos += n
    return out


def connection_rows(skels, embs, dom, max_out, partial=False):
    """Every connection over the realizable (skeleton, embedding) pairs, as
    rows s | j of length nt + ns in lexicographic order, or None, before any
    row is allocated, when there are more than max_out.  With ``partial``
    (psc) s stops at j's top, in whose segment the skeleton already lies:
    each position above it takes one placeholder value, so the counts stay
    exact, and is written -1 before the sort, so a shorter prefix sorts first."""
    ns = skels.shape[1]
    nt = dom.shape[0]
    caps = pair_caps(embs, nt)
    step = max(1, _BLOCK_CELLS // max(nt * ns, 1))

    def blocks():
        for p, q in realizable_pairs(skels, embs, dom, caps):
            for k0 in range(0, len(p), step):
                bq = q[k0:k0 + step]
                allowed = _allowed(skels[p[k0:k0 + step]], embs[bq], caps[bq], dom)
                if partial:
                    allowed[np.arange(nt) > embs[bq, -1:]] = np.arange(ns) == 0
                yield allowed, embs[bq]

    out = _expand(blocks(), nt + ns, max_out)
    if out is not None and partial:
        out[:, :nt][np.arange(nt) > out[:, -1:]] = -1
    return None if out is None else out[np.lexsort(out.T[::-1])]


def _rigid_blocks(skels, dom):
    """(allowed, empty tail) for blocks of skeletons: position y takes the
    one x with m(x) = y on the skeleton m, and each x with dom[m(x), y] off
    it (ancestry for trees, <= for linear orders)."""
    ns = skels.shape[1]
    nt = dom.shape[0]
    step = max(1, _BLOCK_CELLS // max(nt * ns, 1))
    for k0 in range(0, len(skels), step):
        ms = skels[k0:k0 + step]
        yield _allowed(ms, ms, None, dom), np.empty((len(ms), 0), dtype=np.int64)


def rigid_count(skels, dom, cap):
    """Number of surjections whose induced embedding is one of ``skels``
    (rows: embeddings of the small tree into the big one), clamped to
    cap + 1 as soon as it is known to exceed cap."""
    total = 0
    for allowed, _ in _rigid_blocks(skels, dom):
        total += int(_row_counts(allowed, cap).sum())
        if total > cap:
            return cap + 1
    return total


def rigid_fill(skels, dom, out):
    """Write the surjections counted by ``rigid_count`` into ``out``, grouped
    by skeleton in mixed-radix order, and return their number.  The library
    expands rigid Hom-sets in one ``_expand`` pass and no longer calls this;
    the benchmark tracer still resolves it by name."""
    rows = _expand(_rigid_blocks(skels, dom), dom.shape[0], len(out))
    if rows is None:
        raise ValueError(f"more than {len(out)} rigid surjections; out is too short")
    out[:len(rows)] = rows
    return len(rows)


def doubling_pair_sweep(ms, js, anc, base, first_double, viol_out):
    """Sweep all realizable skeleton/embedding pairs of the outer Hom-set and
    check the doubling stability condition on each.

    ms and js both list the embeddings of the doubling tree T into the
    witness V (rows, length nt); realizability is ``realizable_pairs`` with
    dom = anc.  For each realizable pair the stability condition says the
    skeleton and the embedding agree on every marked base vertex and the
    skeleton avoids the embedded first double.

    Returns (n_realizable, n_violations); the first violating (m, j) index
    pairs, ordered by embedding and then by skeleton, are written to
    viol_out.
    """
    caps = pair_caps(js, anc.shape[0])
    n_realizable = n_violations = 0
    for p, q in realizable_pairs(ms, js, anc, caps):
        mb = ms[p[:, None], base[None, :]]
        bad = (mb != js[q[:, None], base[None, :]]) | (mb == js[q[:, None], first_double[None, :]])
        viol = np.flatnonzero(bad.any(axis=1))
        k = max(0, min(len(viol), viol_out.shape[0] - n_violations))
        viol_out[n_violations:n_violations + k, 0] = p[viol[:k]]
        viol_out[n_violations:n_violations + k, 1] = q[viol[:k]]
        n_realizable += len(p)
        n_violations += len(viol)
    return n_realizable, n_violations
