"""Reading and writing complexes as JSON documents.

A presented complex with string ids serializes to a plain document:
schema marker, vertices, edges, generators, cells, canonically sorted.
Any other complex serializes as the recipe it declares: the operation
name wrapping the documents of its parts, and parsing a recipe replays
the construction through one operation table.  All errors carry the
JSON field path.
"""
from __future__ import annotations

import json
from collections.abc import Mapping

from .core import (
    ControlledComplex,
    CspaceError,
    Graph,
    InvalidRouteError,
    PresentedComplex,
    Route,
    SquareCell,
    StructureError,
)
from .spaces import _RECIPES, _rebuild

__all__ = [
    "DocumentError",
    "parse_complex",
    "serialize_complex",
    "canonical_json",
    "read_json",
    "load_complex",
    "save_complex",
    "encode_id",
    "decode_id",
]

_TOP_KEYS = {"schema", "name", "provenance", "vertices", "edges", "generators", "cells", "recipe"}


class DocumentError(CspaceError):
    """Malformed document; the message starts with the offending field path."""

    def __init__(self, path: str, message: str) -> None:
        self.path = path
        super().__init__(f"{path}: {message}")


def encode_id(x) -> object:
    """Ids for recipe fields: strings stay, tuples become JSON arrays."""
    if isinstance(x, tuple):
        return [encode_id(i) for i in x]
    return x


# Ids nest one level per product or sum, so recipes share the cap: an id or
# a recipe nested deeper than this is an input error, well before parsing,
# rendering or ordering it would exhaust the interpreter's recursion limit.
_MAX_ID_DEPTH = 100


def decode_id(j, path: str = "id") -> object:
    """A string id, or an array of ids for a tuple id; an error names the
    field path."""
    return _decode_id(j, path, path, 0)


def _decode_id(j, path: str, root: str, depth: int) -> object:
    if isinstance(j, str):
        return j
    if isinstance(j, list):
        if depth == _MAX_ID_DEPTH:
            raise DocumentError(root, f"nesting is deeper than {_MAX_ID_DEPTH}")
        return tuple(_decode_id(v, f"{path}[{i}]", root, depth + 1) for i, v in enumerate(j))
    raise DocumentError(path, "expected a string id or an array of ids")


def _position(value, path: str) -> int:
    if not isinstance(value, int) or isinstance(value, bool):
        raise DocumentError(path, "expected an integer position")
    return value


def _field(path: str, key: str) -> str:
    """The path of ``key`` in the object at ``path``; the top document's
    fields are named bare."""
    return f"{path}.{key}" if path else key


def _need(doc: Mapping, key: str, path: str, kind: type, kindname: str):
    if key not in doc:
        raise DocumentError(path or "document", f"missing field {key!r}")
    value = doc[key]
    if not isinstance(value, kind):
        raise DocumentError(_field(path, key), f"expected {kindname}")
    return value


def _route_from(doc: Mapping, graph: Graph, path: str, dwells_allowed: bool) -> Route:
    if not isinstance(doc, dict):
        raise DocumentError(path, "expected an object")
    start = _need(doc, "start", path, str, "a string vertex id")
    edges = _need(doc, "edges", path, list, "a list of edge ids")
    for i, e in enumerate(edges):
        if not isinstance(e, str):
            raise DocumentError(f"{path}.edges[{i}]", "expected a string edge id")
    dwells = doc.get("dwells", [])
    if not dwells_allowed and dwells:
        raise DocumentError(f"{path}.dwells", "cell sides must be dwell-free")
    if not isinstance(dwells, list):
        raise DocumentError(f"{path}.dwells", "expected a list of positions")
    dwells = {_position(d, f"{path}.dwells[{i}]") for i, d in enumerate(dwells)}
    try:
        return graph.route(start, tuple(edges), dwells)
    except InvalidRouteError as err:
        raise DocumentError(path, str(err)) from None


def parse_complex(doc: Mapping) -> ControlledComplex:
    """Build a complex from a parsed JSON document or recipe."""
    return _parse(doc, "", 0)


def _parse(doc: Mapping, path: str, depth: int) -> ControlledComplex:
    """The document at ``path`` (empty for the top document), inside
    ``depth`` recipes."""
    if not isinstance(doc, dict):
        raise DocumentError(path or "document", "expected a JSON object")
    for key in doc:
        if key not in _TOP_KEYS:
            raise DocumentError(_field(path, key), "unknown field")
    if doc.get("schema") != 1:
        raise DocumentError(_field(path, "schema"), f"unsupported schema {doc.get('schema')!r}")
    if "recipe" in doc:
        return _parse_recipe(doc["recipe"], _field(path, "recipe"), depth)

    vertices = _need(doc, "vertices", path, list, "a list")
    seen: set[str] = set()
    for i, v in enumerate(vertices):
        if not isinstance(v, str):
            raise DocumentError(_field(path, f"vertices[{i}]"), "expected a string vertex id")
        if v in seen:
            raise DocumentError(_field(path, f"vertices[{i}]"), f"duplicate vertex {v!r}")
        seen.add(v)

    edges: dict[str, tuple[str, str]] = {}
    for i, entry in enumerate(_need(doc, "edges", path, list, "a list")):
        at = _field(path, f"edges[{i}]")
        if not isinstance(entry, dict):
            raise DocumentError(at, "expected an object")
        eid = _need(entry, "id", at, str, "a string edge id")
        src = _need(entry, "src", at, str, "a string vertex id")
        dst = _need(entry, "dst", at, str, "a string vertex id")
        if eid in edges:
            raise DocumentError(f"{at}.id", f"duplicate edge {eid!r}")
        for which, v in (("src", src), ("dst", dst)):
            if v not in seen:
                raise DocumentError(f"{at}.{which}", f"unknown vertex {v!r}")
        edges[eid] = (src, dst)
    graph = Graph(vertices, edges)

    generators = []
    for i, entry in enumerate(_need(doc, "generators", path, list, "a list")):
        generators.append(_route_from(entry, graph, _field(path, f"generators[{i}]"), True))

    cell_docs = doc.get("cells", [])
    if not isinstance(cell_docs, list):
        raise DocumentError(_field(path, "cells"), "expected a list")
    cells = []
    for i, entry in enumerate(cell_docs):
        at = _field(path, f"cells[{i}]")
        if not isinstance(entry, dict):
            raise DocumentError(at, "expected an object")
        start = _need(entry, "start", at, str, "a string vertex id")
        sides = []
        for name in ("left", "right"):
            word = _need(entry, name, at, list, "a list of edge ids")
            sides.append(
                _route_from({"start": start, "edges": word}, graph, f"{at}.{name}", False)
            )
        try:
            cells.append(SquareCell(sides[0], sides[1]))
        except InvalidRouteError as err:
            raise DocumentError(at, str(err)) from None
    return PresentedComplex(graph, generators, cells)


def _parse_recipe(recipe, path: str, depth: int) -> ControlledComplex:
    """One part is read from "base", two from "args", the kept vertices from "keep"."""
    if depth == _MAX_ID_DEPTH:
        raise DocumentError("recipe", f"nesting is too deep (more than {_MAX_ID_DEPTH} recipes)")
    if not isinstance(recipe, dict):
        raise DocumentError(path, "expected an object")
    op = _need(recipe, "op", path, str, "an operation name")
    if op not in _RECIPES:
        raise DocumentError(f"{path}.op", f"unknown operation {op!r}")
    if _RECIPES[op][0] == 2:
        args = _need(recipe, "args", path, list, "a list of two documents")
        if len(args) != 2:
            raise DocumentError(f"{path}.args", "expected exactly two documents")
        return _rebuild(op, [_parse(doc, f"{path}.args[{i}]", depth + 1)
                             for i, doc in enumerate(args)])
    base = _parse(_need(recipe, "base", path, dict, "a document"), f"{path}.base", depth + 1)
    if op != "restrict":
        return _rebuild(op, (base,))
    keep = _need(recipe, "keep", path, list, "a list of vertex ids")
    try:
        return _rebuild(op, (base,), {decode_id(v, f"{path}.keep[{i}]")
                                      for i, v in enumerate(keep)})
    except StructureError as err:
        raise DocumentError(f"{path}.keep", str(err)) from None


def _plain_document(X: ControlledComplex) -> dict:
    graph = X.graph
    return {
        "schema": 1,
        "vertices": list(graph._ordered_vertices),
        "edges": [
            {"id": e, "src": src, "dst": dst} for e, (src, dst) in graph._ordered_edges
        ],
        "generators": [
            {"start": g.start, "edges": list(g.edges), "dwells": sorted(g.dwells)}
            for g in sorted(X.generators, key=graph._route_key())
        ],
        "cells": [
            {"start": c.left.start, "left": list(c.left.edges), "right": list(c.right.edges)}
            for c in X.cells
        ],
    }


def serialize_complex(X: ControlledComplex) -> dict:
    """Canonical document for a presented complex with string ids, or the
    recipe the complex declares."""
    if X.generators is not None and all(
        isinstance(i, str) for i in X.graph.vertices | X.graph.edge_ids
    ):
        return _plain_document(X)
    recipe = X.recipe()
    if recipe is None:
        if X.generators is None:
            raise StructureError("cannot serialize an oracle-backed complex of this shape")
        raise StructureError("cannot serialize: ids are not strings and no recipe is recorded")
    op, parts, keep = recipe
    body: dict = {"op": op}
    docs = [serialize_complex(part) for part in parts]
    if len(docs) == 2:
        body["args"] = docs
    else:
        body["base"] = docs[0]
    if keep is not None:
        body["keep"] = [encode_id(v) for v in parts[0].graph._vertices_in(keep)]
    return {"schema": 1, "recipe": body}


def canonical_json(doc: dict) -> str:
    return json.dumps(doc, sort_keys=True, indent=2) + "\n"


def read_json(path: str):
    """The JSON value in a file.  Text that is not UTF-8 JSON is a
    ``DocumentError`` on the path; a file that cannot be read raises
    ``OSError``."""
    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh)
    except UnicodeDecodeError as err:
        raise DocumentError(path, f"not UTF-8: {err}") from None
    except json.JSONDecodeError as err:
        raise DocumentError(path, f"not valid JSON: {err}") from None
    except RecursionError:
        raise DocumentError(path, "not valid JSON: nesting is too deep") from None


def load_complex(path: str) -> ControlledComplex:
    return parse_complex(read_json(path))


def save_complex(X: ControlledComplex, path: str) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        fh.write(canonical_json(serialize_complex(X)))
