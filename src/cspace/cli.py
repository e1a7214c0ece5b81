"""Command-line surface.

Every operation is exposed as a subcommand over ``.ctop`` JSON documents.
Exit codes: 0 success or property true, 1 property false (a witness is
printed), 2 usage or input errors.  Output is deterministic: objects
sorted, canonical representatives, truncation flags always printed.
"""
from __future__ import annotations

import argparse
import functools
import json
import sys

from .core import (
    ControlledComplex,
    CspaceError,
    Route,
    StructureError,
    border_flexibility,
    check_bound,
    idkey,
    is_flexible_space,
    path_support,
    preflexibility,
    render_id,
)
from .covering import (
    CoveringMap,
    check_lifting_bijection,
    exponential_cover,
    lift_route,
    validate_covering,
)
from .documents import (
    DocumentError,
    _position,
    canonical_json,
    decode_id,
    encode_id,
    load_complex,
    read_json,
    save_complex,
    serialize_complex,
)
from .pi1 import _check_objects, fundamental_monoid, pi1
from .spaces import STANDARD_KINDS, QuotientSpec, _rebuild, diagonal_square, quotient, std_space

__all__ = ["run_command", "main"]


class _UsageError(Exception):
    pass


class _Parser(argparse.ArgumentParser):
    def error(self, message: str) -> None:  # type: ignore[override]
        raise _UsageError(message)


def _word(r: Route) -> str:
    return "[" + ",".join(render_id(e) for e in r.edges) + "]"


def _ids(items) -> str:
    return ",".join(render_id(v) for v in sorted(items, key=idkey))


# Side inputs (JSON ids on the command line, map and spec files, --route)
# are shape-checked as they are read; an error names the field path, rooted
# at the argument.


def _json_list(value, path: str, read) -> list:
    """A list, each item read by ``read(item, item_path)``."""
    if not isinstance(value, list):
        raise DocumentError(path, "expected a list")
    return [read(v, f"{path}[{i}]") for i, v in enumerate(value)]


def _json_ids(value, path: str) -> list:
    return _json_list(value, path, decode_id)


def _json_pair(value, path: str) -> tuple:
    if not isinstance(value, list) or len(value) != 2:
        raise DocumentError(path, "expected a pair of ids")
    return decode_id(value[0], f"{path}[0]"), decode_id(value[1], f"{path}[1]")


def _parse_json(text: str, what: str):
    """JSON given on the command line."""
    try:
        return json.loads(text)
    except json.JSONDecodeError as err:
        raise _UsageError(f"bad {what}: {err}") from None
    except RecursionError:
        raise _UsageError(f"bad {what}: nesting is too deep") from None


def _parse_id(text: str, where: str):
    if text.startswith("["):
        return decode_id(_parse_json(text, f"id {text!r}"), where)
    return text


def _parse_id_list(text: str, where: str) -> list:
    if text.startswith("["):
        return _json_ids(_parse_json(text, f"id list {text!r}"), where)
    return [v for v in text.split(",") if v]


def _emit(X: ControlledComplex, out: str | None) -> str:
    if out is None:
        return canonical_json(serialize_complex(X)).rstrip("\n")
    save_complex(X, out)
    return f"wrote {out}"


def _load_map(path: str, option: str) -> dict:
    doc = read_json(path)
    if isinstance(doc, dict):
        return {k: decode_id(v, f"{option}.{k}") for k, v in doc.items()}
    if isinstance(doc, list):
        return dict(_json_list(doc, option, _json_pair))
    raise DocumentError(path, "expected an object or a list of pairs")


def _resolve_cover(args) -> CoveringMap:
    if args.exponential is not None:
        if args.window is None:
            raise _UsageError("--exponential needs --window")
        return exponential_cover(args.exponential, args.window)
    if not args.total or not args.base:
        raise _UsageError("give TOTAL and BASE documents, or --exponential N --window M")
    if not args.vmap or not args.emap:
        raise _UsageError("give --vmap and --emap map files")
    total = load_complex(args.total)
    base = load_complex(args.base)
    excluded = _parse_id_list(args.excluded, "--excluded") if args.excluded else ()
    return CoveringMap(total, base, _load_map(args.vmap, "--vmap"),
                       _load_map(args.emap, "--emap"), frozenset(excluded))


def _add_cover_arguments(sub: argparse.ArgumentParser) -> None:
    sub.add_argument("total", nargs="?", help="total-space document")
    sub.add_argument("base", nargs="?", help="base document")
    sub.add_argument("--vmap", help="vertex map file (object or list of pairs)")
    sub.add_argument("--emap", help="edge map file")
    sub.add_argument("--excluded", help="total-space vertices exempt from the star condition")
    sub.add_argument("--exponential", type=int, metavar="N",
                     help="use the built-in winding cover of the N-stop cycle")
    sub.add_argument("--window", type=int, help="line window for --exponential")


def _pi1_header(cat) -> str:
    flag = "yes" if cat.possibly_incomplete else "no"
    pre = "yes" if cat.is_preorder() else "no"
    return (f"objects: {_ids(cat.objects)}; arrows: {cat.arrow_count}; "
            f"preorder: {pre}; truncated: {flag}")


def _pi1_table(cat) -> str:
    lines = [_pi1_header(cat)]
    for x in cat.objects:
        for y in cat.objects:
            hom = cat.hom(x, y)
            if hom:
                reps = ", ".join(_word(a.rep) for a in hom)
                lines.append(f"hom({render_id(x)},{render_id(y)}): {reps}")
    return "\n".join(lines)


def _pi1_machine(cat) -> str:
    lines = []
    for a in cat.arrows:
        lines.append(json.dumps({
            "source": encode_id(a.source),
            "target": encode_id(a.target),
            "word": [encode_id(e) for e in a.rep.edges],
            "size": a.size,
            "truncated": cat.possibly_incomplete,
        }, sort_keys=True))
    return "\n".join(lines)


def _std_params() -> list[str]:
    """The standard spaces' parameter names, in ``STANDARD_KINDS`` order."""
    return list(dict.fromkeys(n for _, names in STANDARD_KINDS.values() for n in names))


def _cmd_new(args) -> tuple[int, str]:
    if args.kind == "diagonal-square":
        X = diagonal_square()
    else:
        params = {n: v for n in _std_params() if (v := getattr(args, n)) is not None}
        X = std_space(args.kind, **params)
    return 0, _emit(X, args.output)


def _cmd_pi1(args) -> tuple[int, str]:
    cat = pi1(load_complex(args.file), args.bound)
    if args.format == "machine":
        return 0, _pi1_machine(cat)
    return 0, _pi1_table(cat)


def _cmd_hom(args) -> tuple[int, str]:
    X = load_complex(args.file)
    x, y = _parse_id(args.source, "source"), _parse_id(args.target, "target")
    _check_objects(X, x, y)
    cat = pi1(X, args.bound)
    hom = cat.hom(x, y)
    flag = "yes" if cat.possibly_incomplete else "no"
    lines = [f"classes: {len(hom)}; truncated: {flag}"]
    lines += [_word(a.rep) for a in hom]
    return 0, "\n".join(lines)


def _cmd_monoid(args) -> tuple[int, str]:
    X = load_complex(args.file)
    table = fundamental_monoid(X, _parse_id(args.basepoint, "basepoint"), args.bound)
    flag = "yes" if table.truncated else "no"
    lines = [
        f"classes: {len(table.classes)}; identity: {table.identity_index}; "
        f"truncated: {flag}"
    ]
    for i, a in enumerate(table.classes):
        lines.append(f"{i}: {_word(a.rep)}")
    lines.append("table:")
    for i, row in enumerate(table.table):
        cells = " ".join("-" if v is None else str(v) for v in row)
        lines.append(f"{i}: {cells}")
    return 0, "\n".join(lines)


def _check_flexible(X, bound) -> tuple[int, str]:
    witness = X.flexibility_witness()
    if witness is None:
        return 0, "flexible: yes"
    return 1, f"flexible: no\nwitness: {witness}"


def _check_preflexible(X, bound) -> tuple[int, str]:
    if bound is None:
        raise _UsageError("check preflexible needs --bound")
    rep = preflexibility(X, bound)
    if rep.holds:
        return 0, f"preflexible: yes (bound {rep.bound})"
    return 1, f"preflexible: no\nwitness: {rep.witness}"


def _check_border_flexible(X, bound) -> tuple[int, str]:
    rep = border_flexibility(X)
    if rep.holds:
        return 0, "border-flexible: yes"
    lines = ["border-flexible: no"]
    lines += [f"witness: {w} is not controlled" for w in rep.witnesses]
    return 1, "\n".join(lines)


def _check_one_simple(X, bound) -> tuple[int, str]:
    if bound is None:
        raise _UsageError("check one-simple needs --bound")
    cat = pi1(X, bound)
    flag = "yes" if cat.possibly_incomplete else "no"
    if cat.is_preorder():
        return 0, f"one-simple: yes (bound {bound}; truncated: {flag})"
    x, y = next((x, y) for x in cat.objects for y in cat.objects if len(cat.hom(x, y)) > 1)
    return 1, (
        f"one-simple: no (bound {bound}; truncated: {flag})\n"
        f"witness: hom({render_id(x)},{render_id(y)}) has {len(cat.hom(x, y))} classes"
    )


def _check_total_support(X, bound) -> tuple[int, str]:
    verts, edges = path_support(X)
    missing_v = X.graph.vertices - verts
    missing_e = X.graph.edge_ids - edges
    if not missing_v and not missing_e:
        return 0, "total-support: yes"
    lines = ["total-support: no"]
    if missing_v:
        lines.append(f"witness: unsupported vertices: {_ids(missing_v)}")
    if missing_e:
        lines.append(f"witness: unsupported edges: {_ids(missing_e)}")
    return 1, "\n".join(lines)


# property -> check(X, bound); the argument choices come from here
_CHECKS = {
    "flexible": _check_flexible,
    "preflexible": _check_preflexible,
    "border-flexible": _check_border_flexible,
    "one-simple": _check_one_simple,
    "total-support": _check_total_support,
}


def _cmd_check(args) -> tuple[int, str]:
    X = load_complex(args.file)
    if args.bound is not None:
        check_bound(args.bound)
    return _CHECKS[args.property](X, args.bound)


def _cmd_construct(args) -> tuple[int, str]:
    """product, sum, op, restrict and reflect: replay the recipe ``args.which``
    on the documents named."""
    files = (args.left, args.right) if "left" in args else (args.file,)
    parts = [load_complex(f) for f in files]
    keep = _parse_id_list(args.keep, "--keep") if args.which == "restrict" else None
    return 0, _emit(_rebuild(args.which, parts, keep), args.output)


def _cmd_quotient(args) -> tuple[int, str]:
    X = load_complex(args.file)
    doc = read_json(args.spec)
    if not isinstance(doc, dict):
        raise DocumentError(args.spec, "expected an object")
    blocks = _json_list(doc.get("blocks", []), "--spec.blocks", _json_ids)
    collapse = _json_ids(doc.get("collapse", []), "--spec.collapse")
    spec = QuotientSpec(blocks=blocks, collapse=collapse)
    return 0, _emit(quotient(X, spec), args.output)


def _cmd_cover_validate(args) -> tuple[int, str]:
    p = _resolve_cover(args)
    rep = validate_covering(p, args.bound)
    lines = [
        f"star condition: {'ok' if rep.star_ok else 'failed'}",
        f"controlled lifts: {'ok' if rep.lift_ok else 'failed'} "
        f"({rep.checked_lifts} checked, {rep.skipped_lifts} skipped at the window boundary)",
        f"flexible fibres: {'ok' if rep.flexible_ok else 'failed'}",
        f"covering: {'valid' if rep.valid else 'invalid'} (bound {rep.bound})",
    ]
    lines += [f"witness: {w}" for w in rep.witnesses[:5]]
    return (0 if rep.valid else 1), "\n".join(lines)


def _cmd_cover_lift(args) -> tuple[int, str]:
    p = _resolve_cover(args)
    doc = _parse_json(args.route, "--route JSON")
    if not isinstance(doc, dict) or "start" not in doc:
        raise _UsageError("--route needs an object with start, edges, dwells")
    b = p.base.graph.route(
        decode_id(doc["start"], "--route.start"),
        _json_ids(doc.get("edges", []), "--route.edges"),
        _json_list(doc.get("dwells", []), "--route.dwells", _position),
    )
    lift = lift_route(p, b, _parse_id(args.start, "--from"))
    return 0, f"lift: {lift}"


def _cmd_cover_bijection(args) -> tuple[int, str]:
    p = _resolve_cover(args)
    rep = check_lifting_bijection(
        p, _parse_id(args.start, "--from"), _parse_id(args.to, "--to"), args.bound
    )
    lines = [
        f"base classes: {rep.base_classes}; total classes: {rep.total_classes}; "
        f"fibre: {_ids(rep.fibre)}",
        f"bijection: {'yes' if rep.bijective else 'no'} (bound {args.bound})",
    ]
    lines += [f"witness: {w}" for w in rep.witnesses[:5]]
    return (0 if rep.bijective else 1), "\n".join(lines)


def _cmd_report(args) -> tuple[int, str]:
    X = load_complex(args.file)
    bound = args.bound
    lines = [f"complex: {X.describe()}", f"flexible vertices: {_ids(X.flexible)}"]
    try:
        verts, edges = path_support(X)
    except StructureError:
        lines.append("path support: not available (needs a generator presentation)")
    else:
        missing = _ids(X.graph.vertices - verts), _ids(X.graph.edge_ids - edges)
        lines.append("path support: total" if not any(missing) else
                     f"path support: partial (missing vertices: {missing[0] or '-'}; "
                     f"edges: {missing[1] or '-'})")
    lines.append(f"flexible space: {'yes' if is_flexible_space(X) else 'no'}")
    try:
        bf = border_flexibility(X)
        lines.append(f"border flexible: {'yes' if bf.holds else 'no'}")
    except StructureError:
        lines.append("border flexible: not available (needs a generator presentation)")
    try:
        pf = preflexibility(X, bound)
        lines.append(f"preflexible (bound {bound}): {'yes' if pf.holds else 'no'}")
        if not pf.holds:
            lines.append(f"  witness: {pf.witness}")
    except StructureError:
        lines.append(f"preflexible (bound {bound}): not available (needs a generator presentation)")
    cat = pi1(X, bound)
    lines.append(f"one-simple (bound {bound}): {'yes' if cat.is_preorder() else 'no'}")
    lines.append(f"pi1 (bound {bound}): {_pi1_header(cat)}")
    return 0, "\n".join(lines)


@functools.cache
def _build_parser() -> _Parser:
    """The parser, built on the first call in a process."""
    parser = _Parser(prog="cspace", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("new", help="write a standard space document")
    p.add_argument("kind", choices=sorted(STANDARD_KINDS) + ["diagonal-square"])
    for name in _std_params():
        p.add_argument(f"--{name}", type=int)
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_new)

    p = sub.add_parser("pi1", help="truncated fundamental category")
    p.add_argument("file")
    p.add_argument("--bound", type=int, required=True)
    p.add_argument("--format", choices=["table", "machine"], default="table")
    p.set_defaults(func=_cmd_pi1)

    p = sub.add_parser("hom", help="arrow classes between two vertices")
    p.add_argument("file")
    p.add_argument("source")
    p.add_argument("target")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_hom)

    p = sub.add_parser("monoid", help="endo-hom composition table")
    p.add_argument("file")
    p.add_argument("basepoint")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_monoid)

    p = sub.add_parser("reflect", help="apply a reflector")
    p.add_argument("file")
    p.add_argument("which", choices=["dhat", "fl", "pf", "bf"])
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct)

    p = sub.add_parser("check", help="decide a classification property")
    p.add_argument("file")
    p.add_argument("property", choices=list(_CHECKS))
    p.add_argument("--bound", type=int)
    p.set_defaults(func=_cmd_check)

    p = sub.add_parser("product", help="product of two documents")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct, which="product")

    p = sub.add_parser("sum", help="sum of two documents")
    p.add_argument("left")
    p.add_argument("right")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct, which="sum")

    p = sub.add_parser("op", help="opposite complex")
    p.add_argument("file")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct, which="op")

    p = sub.add_parser("restrict", help="full substructure on given vertices")
    p.add_argument("file")
    p.add_argument("--keep", required=True,
                   help="comma-separated vertex ids, or a JSON array")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_construct, which="restrict")

    p = sub.add_parser("quotient", help="collapse blocks and edges")
    p.add_argument("file")
    p.add_argument("--spec", required=True,
                   help="JSON file with blocks and collapse lists")
    p.add_argument("-o", "--output")
    p.set_defaults(func=_cmd_quotient)

    p = sub.add_parser("cover-validate", help="check the covering conditions")
    _add_cover_arguments(p)
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_cover_validate)

    p = sub.add_parser("cover-lift", help="lift a base route")
    _add_cover_arguments(p)
    p.add_argument("--route", required=True,
                   help='JSON route, e.g. {"start":"0","edges":["e0"],"dwells":[]}')
    p.add_argument("--from", dest="start", required=True, metavar="X0")
    p.set_defaults(func=_cmd_cover_lift)

    p = sub.add_parser("cover-bijection", help="audit the hom-set lifting bijection")
    _add_cover_arguments(p)
    p.add_argument("--from", dest="start", required=True, metavar="X0")
    p.add_argument("--to", required=True, metavar="Y")
    p.add_argument("--bound", type=int, required=True)
    p.set_defaults(func=_cmd_cover_bijection)

    p = sub.add_parser("report", help="full classification and category summary")
    p.add_argument("file")
    p.add_argument("--bound", type=int, default=4)
    p.set_defaults(func=_cmd_report)

    return parser


def run_command(argv: list[str] | None = None) -> tuple[int, str]:
    """Run one CLI invocation; returns (exit code, text output)."""
    try:
        args = _build_parser().parse_args(argv)
        return args.func(args)
    except _UsageError as err:
        return 2, f"usage error: {err}"
    except DocumentError as err:
        return 2, f"document error: {err}"
    except OSError as err:
        return 2, f"file error: {err}"
    except CspaceError as err:
        return 2, f"error: {err}"


def main() -> None:
    code, text = run_command(sys.argv[1:])
    if text:
        print(text)
    sys.exit(code)


if __name__ == "__main__":
    main()
