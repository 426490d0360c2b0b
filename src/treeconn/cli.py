"""Command-line front end for batch enumeration, construction, search, and
export.  Every command is deterministic in canonical mode: identical inputs
produce byte-identical outputs."""

from __future__ import annotations

import argparse
import json
import re
import sys
from dataclasses import fields, replace
from functools import cache
from pathlib import Path

from .colorings import annotate, invariant_set, lower_top, prune_top, to_strong
from .config import MODES, Budget
from .constructions import add_root, doubling_tree, graft, plus_leaf, star_extend
from .errors import BudgetExceededError, ParseError
from .homsets import enumerate_hom
from .morphisms import (
    CONN,
    CONN_ROOT,
    EMB,
    INC_INJ,
    PSC,
    RIGID,
    connection_from_record,
    connection_to_record,
    row_records,
)
from .search import arrow_check, degree_at_witness, verify_lower_bound, verify_no_ramsey
from .trees import (
    Forest,
    OrderedTree,
    chain,
    dump_tree,
    forest_from_record,
    format_tree,
    parse_forest,
    parse_tree,
    record_index,
    tree_from_record,
)

# The --cat choices, sorted as argparse lists them; enum also takes emb.
SEARCH_CATEGORIES = (CONN, CONN_ROOT, INC_INJ, PSC, RIGID)

_TREE_BUILDERS = {"plus-leaf": plus_leaf, "star": star_extend}

_CHAIN_RE = re.compile(r"^chain(\d+)$")


def load_tree(arg: str) -> OrderedTree:
    """Resolve a tree argument: an existing file (JSON or parenthesis text),
    a literal parenthesis string, or the shorthand chainK."""
    p = Path(arg)
    if p.is_file():
        text = p.read_text().strip()
        if text.startswith("{"):
            return tree_from_record(json.loads(text))
        return parse_tree(text)
    if arg.startswith("("):
        return parse_tree(arg)
    m = _CHAIN_RE.match(arg)
    if m:
        return chain(int(m.group(1)))
    raise ValueError(f"cannot resolve tree argument {arg!r}")


def load_forest(arg: str) -> Forest:
    if arg in ("", "empty"):
        return Forest(())
    p = Path(arg)
    if p.is_file():
        text = p.read_text().strip()
        if text.startswith("{"):
            return forest_from_record(json.loads(text))
        return parse_forest(text)
    return parse_forest(arg)


def _emit(text: str, out: str | None) -> None:
    if out:
        Path(out).write_text(text + "\n")
    else:
        print(text)


def _dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def export_dot(t: OrderedTree, labels: dict[int, str] | None = None) -> str:
    """Deterministic graph description: ancestry edges, child order preserved
    left to right via the out-edge ordering."""
    lines = ["digraph tree {", "  ordering=out;"]
    for v in range(t.n):
        label = labels.get(v, str(v)) if labels else str(v)
        lines.append(f'  n{v} [label="{label}"];')
    for v in range(t.n):
        for c in t.children[v]:
            lines.append(f"  n{v} -> n{c};")
    lines.append("}")
    return "\n".join(lines)


def _check_labeled(name: str, vertices, n: int) -> None:
    """Refuse a labels field that names a vertex outside the n-vertex tree."""
    outside = [v for v in vertices if not 0 <= v < n]
    if outside:
        raise ValueError(f"labels field {name!r} names vertex {outside[0]}, "
                         f"outside the {n}-vertex tree")


def _labels_from_table(path: str, n: int) -> dict[int, str]:
    """Labels for the vertices of an n-vertex tree from a construction
    record: base vertex v on vertex_map[v], "b.1" and "b.2" on the doubles
    of b."""
    rec = json.loads(Path(path).read_text())
    if not isinstance(rec, dict):
        raise ValueError("--labels table must be a JSON object")
    try:
        labels = {record_index(i): str(v) for v, i in enumerate(rec.get("vertex_map", []))}
    except TypeError:
        raise ValueError("labels field 'vertex_map' must be a list of vertices") from None
    _check_labeled("vertex_map", labels, n)
    try:
        doubles = [tuple(map(record_index, entry)) for entry in rec.get("doubles", [])]
        for b, b1, b2 in doubles:
            labels[b1], labels[b2] = f"{b}.1", f"{b}.2"
    except (TypeError, ValueError):
        raise ValueError("labels field 'doubles' must be a list of [base, first, second]") from None
    _check_labeled("doubles", [v for _, b1, b2 in doubles for v in (b1, b2)], n)
    return labels


def _config_from_args(args) -> tuple[Budget, str]:
    """The budget and the mode: the --config file's values over the
    defaults, then the --budget-* flags (stored under the Budget field
    names) and --mode over those.  A key that names neither a Budget field
    nor ``mode`` is an error, not a silently ignored limit."""
    keys = json.loads(Path(args.config).read_text()) if args.config else {}
    if not isinstance(keys, dict):
        raise ValueError("--config file must hold a JSON object")
    file_mode = keys.pop("mode", None)
    names = [f.name for f in fields(Budget)]
    unknown = sorted(set(keys) - set(names))
    if unknown:
        raise ValueError(f"unknown config keys {unknown}")
    flags = {n: v for n in names if (v := getattr(args, n, None)) is not None}
    budget = replace(Budget(**keys), **flags)
    mode = args.mode or file_mode or MODES[0]
    if mode not in MODES:
        raise ValueError(f"mode must be one of {MODES}")
    return budget, mode


def _cmd_enum(args) -> int:
    budget, _ = _config_from_args(args)
    A = load_tree(args.source)
    B = load_tree(args.target)
    if args.kind == RIGID:  # rigid surjections A -> B are Hom(B, A)
        A, B = B, A
    hom = enumerate_hom(EMB if args.kind == "embeddings" else args.kind, A, B, budget)
    if args.count:
        _emit(str(len(hom)), args.out)
        return 0
    lines = [_dumps(rec) for rec in row_records(hom.category, hom.source, hom.target, hom.rows)]
    _emit("\n".join(lines) if lines else "", args.out)
    return 0


def _cmd_construct(args) -> int:
    kind, inputs = args.kind, args.inputs
    if kind != "add-root" and not inputs:
        raise ValueError(f"construct {kind} needs a tree argument")
    if kind != "graft" and (len(inputs) > 1 or args.at is not None):
        raise ValueError(f"construct {kind} takes one argument and no --at")
    if kind == "doubling":
        result = doubling_tree(load_tree(inputs[0]))
        _emit(_dumps(result.to_record()), args.out)
        print(format_tree(result.tree), file=sys.stderr)
        return 0
    if kind == "graft":
        T = load_tree(inputs[0])
        anchors = [int(x) for x in args.at.split(",")] if args.at else []
        forests = [load_forest(a) for a in inputs[1:]]
        result = graft(T, anchors, forests)
        _emit(_dumps(result.to_record()), args.out)
        return 0
    if kind == "add-root":
        tree = add_root(load_forest(inputs[0] if inputs else "empty"))
    else:
        tree = _TREE_BUILDERS[kind](load_tree(inputs[0]))
    _emit(dump_tree(tree) if args.json else format_tree(tree), args.out)
    return 0


def _cmd_search(args) -> int:
    """arrow or degree: emit the certificate record; an unknown one also
    names its limit on stderr."""
    budget, mode = _config_from_args(args)
    trees = [load_tree(a) for a in (args.source, args.middle, args.witness)]
    if args.command == "arrow":
        cert = arrow_check(*trees, args.r, args.cat, budget, mode)
    else:
        _, cert = degree_at_witness(*trees, args.r, args.cat, budget, mode, at_most=args.at_most)
    _emit(cert.to_json(), args.out)
    if cert.limit is not None:
        print(f"unknown: {cert.limit}", file=sys.stderr)
    return cert.exit_code


def _resolve_witness(which: str, T: OrderedTree) -> OrderedTree:
    if which == "self":
        return T
    if which == "double":
        return doubling_tree(T).tree
    return load_tree(which)


def _cmd_verify(args) -> int:
    budget, _ = _config_from_args(args)
    S = load_tree(args.source)
    dbl = doubling_tree(S)
    V = _resolve_witness(args.witness, dbl.tree)
    if args.check == "lower-bound":
        if args.vertex is not None:
            raise ValueError("--vertex applies only to verify no-ramsey")
        report = verify_lower_bound(S, V, budget)
    else:  # no-ramsey
        vertex = 1 if args.vertex is None else args.vertex
        w = dbl.connection_for({vertex})
        report = verify_no_ramsey(S, dbl.tree, vertex, w.surj, w.emb, V, budget)
    _emit(report.summary(), args.out)
    return 0 if report.ok else 1


def _load_connection(arg: str):
    text = Path(arg).read_text() if Path(arg).is_file() else arg
    return connection_from_record(json.loads(text))


def _cmd_invariant(args) -> int:
    c = _load_connection(args.morphism)
    _emit(_dumps(sorted(invariant_set(c))), args.out)
    return 0


def _cmd_functor(args) -> int:
    c = _load_connection(args.morphism)
    before = connection_to_record(c)
    if args.which == "strong":
        out = {"before": before, "after": connection_to_record(to_strong(c))}
    elif args.which == "prune":
        pruned = prune_top(annotate(c))
        out = {
            "before": before,
            "after": connection_to_record(pruned.hom),
            "bits": list(pruned.bits),
        }
    else:  # lower
        out = {"before": before, "after": connection_to_record(lower_top(c))}
    _emit(_dumps(out), args.out)
    return 0


def _cmd_export(args) -> int:
    if args.labels is not None and not args.dot:
        raise ValueError("--labels applies only to export --dot")
    t = load_tree(args.tree)
    if args.dot:
        labels = _labels_from_table(args.labels, t.n) if args.labels else None
        _emit(export_dot(t, labels), args.out)
    elif args.json:
        _emit(dump_tree(t), args.out)
    else:
        _emit(format_tree(t), args.out)
    return 0


@cache
def build_parser() -> argparse.ArgumentParser:
    """The parser, built on first use and then shared by every ``main`` call."""
    ap = argparse.ArgumentParser(
        prog="treeconn",
        description="Enumerate, construct, and exhaustively search morphisms "
        "between finite ordered trees.",
    )
    ap.add_argument("--mode", choices=MODES, default=None)
    ap.add_argument("--config", help="JSON file of default budget/mode values; flags win")
    ap.add_argument("--budget-max-vertices", dest="max_vertices", type=int)
    ap.add_argument("--budget-max-hom", dest="max_hom", type=int)
    ap.add_argument("--budget-max-nodes", dest="max_nodes", type=int)
    ap.add_argument("--budget-time", dest="time_cap", type=float)
    sub = ap.add_subparsers(dest="command", required=True)

    p = sub.add_parser("enum", help="enumerate or count a Hom-set")
    p.add_argument("kind", choices=sorted((*SEARCH_CATEGORIES, EMB, "embeddings")))
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--count", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_enum)

    p = sub.add_parser("construct", help="build trees and witness morphisms")
    p.add_argument("kind", choices=("doubling", "plus-leaf", "star", "add-root", "graft"))
    p.add_argument("inputs", nargs="*")
    p.add_argument("--at", help="comma-separated anchor vertices for graft")
    p.add_argument("--json", action="store_true")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_construct)

    for name, text in (("arrow", "decide an arrow relation"),
                       ("degree", "compute the degree at a witness")):
        p = sub.add_parser(name, help=text)
        p.add_argument("source")
        p.add_argument("middle")
        p.add_argument("witness")
        p.add_argument("--cat", choices=SEARCH_CATEGORIES, required=True)
        p.add_argument("-r", type=int, required=True)
        if name == "degree":
            p.add_argument("--at-most", type=int, default=None)
        p.add_argument("--out")
        p.set_defaults(func=_cmd_search)

    p = sub.add_parser("verify", help="run a doubling-based batch verification")
    p.add_argument("check", choices=("lower-bound", "no-ramsey"))
    p.add_argument("source")
    p.add_argument("--witness", default="self", help="self | double | tree argument")
    p.add_argument("--vertex", type=int, default=None,
                   help="marked vertex for no-ramsey (default 1)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_verify)

    p = sub.add_parser("invariant", help="print a morphism's disagreement set")
    p.add_argument("morphism", help="morphism record (file or literal JSON)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_invariant)

    p = sub.add_parser("functor", help="apply a morphism operation, print before/after")
    p.add_argument("which", choices=("strong", "prune", "lower"))
    p.add_argument("morphism", help="morphism record (file or literal JSON)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_functor)

    p = sub.add_parser("export", help="print a tree in text, JSON, or dot form")
    p.add_argument("tree")
    form = p.add_mutually_exclusive_group()
    form.add_argument("--dot", action="store_true")
    form.add_argument("--json", action="store_true")
    p.add_argument("--labels", help="translation table from construct doubling (with --dot)")
    p.add_argument("--out")
    p.set_defaults(func=_cmd_export)

    return ap


def main(argv: list[str] | None = None) -> int:
    try:
        args = build_parser().parse_args(argv)
    except SystemExit as exc:
        # argparse exits 0 after --help and 2 on a usage error; 2 is the
        # exit code of an unknown verdict, so a usage error exits 3.
        return 0 if exc.code in (0, None) else 3
    try:
        return args.func(args)
    except BudgetExceededError as exc:
        print(f"budget exceeded: {exc}", file=sys.stderr)
        return 2
    except ParseError as exc:
        print(f"parse error: {exc}", file=sys.stderr)
        return 3
    except (ValueError, IndexError, OSError, json.JSONDecodeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 3


if __name__ == "__main__":
    sys.exit(main())
