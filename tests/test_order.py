"""Each graph orders its ids once, and constructions derive their order.

The public ``idkey``, ``Route.sort_key`` and ``SquareCell.sort_key`` are
the reference order.  Every construction kind must list out- and in-edges,
cells, objects and documents exactly as sorting by them would, and the
composite constructions must reach that order without calling ``idkey``.
"""
from __future__ import annotations

import json

import pytest
from hypothesis import given

from cspace import (
    QuotientSpec,
    Route,
    SquareCell,
    circle_n_stop,
    full_substructure,
    idkey,
    interval_c,
    interval_j,
    interval_middle_delay,
    interval_reversible,
    line_c,
    opposite,
    pi1,
    product,
    quotient,
    reflect_bf,
    reflect_dhat,
    reflect_fl,
    reflect_pf,
    reversible_cancellation,
    std_space,
    sum_complex,
    symmetrize,
)
from cspace import core, spaces
from cspace.core import enumerate_words
from cspace.documents import canonical_json, encode_id, parse_complex, serialize_complex
from cspace.spaces import STANDARD_KINDS, diagonal_square

from strategies import presented_complexes


def _reference_document(X) -> dict:
    """``serialize_complex`` with every list sorted by the public keys."""
    g = X.graph
    if X.generators is not None and all(isinstance(i, str) for i in g.vertices | g.edge_ids):
        return {
            "schema": 1,
            "vertices": sorted(g.vertices, key=idkey),
            "edges": [{"id": e, "src": g.src(e), "dst": g.dst(e)}
                      for e in sorted(g.edge_ids, key=idkey)],
            "generators": [
                {"start": r.start, "edges": list(r.edges), "dwells": sorted(r.dwells)}
                for r in sorted(X.generators, key=Route.sort_key)
            ],
            "cells": [
                {"start": c.left.start, "left": list(c.left.edges), "right": list(c.right.edges)}
                for c in sorted(set(X.cells), key=SquareCell.sort_key)
            ],
        }
    op, parts, keep = X.recipe()
    body: dict = {"op": op}
    docs = [_reference_document(part) for part in parts]
    if len(docs) == 2:
        body["args"] = docs
    else:
        body["base"] = docs[0]
    if keep is not None:
        body["keep"] = [encode_id(v) for v in sorted(keep, key=idkey)]
    return {"schema": 1, "recipe": body}


def assert_reference_order(X) -> None:
    g = X.graph
    for v in g.vertices:
        out = [e for e in g.edge_ids if g.src(e) == v]
        inc = [e for e in g.edge_ids if g.dst(e) == v]
        assert g.out_edges(v) == tuple(sorted(out, key=idkey))
        assert g.in_edges(v) == tuple(sorted(inc, key=idkey))
    assert X.cells == tuple(sorted(set(X.cells), key=SquareCell.sort_key))
    assert [v for v, word, _ in enumerate_words(g, 0)] == sorted(g.vertices, key=idkey)
    assert pi1(X, 1).objects == tuple(sorted(X.flexible, key=idkey))
    try:
        doc = serialize_complex(X)
    except core.StructureError:
        return
    assert canonical_json(doc) == canonical_json(_reference_document(X))


def _standard_spaces():
    params = {"window": 2, "stops": 3, "points": 2, "length": 2}
    out = {kind: std_space(kind, **{n: params[n] for n in names})
           for kind, (_, names) in STANDARD_KINDS.items()}
    out["diagonal-square"] = diagonal_square()
    return out


def _constructions():
    line2 = line_c(2)
    circle2 = circle_n_stop(2)
    square = product(line_c(1), interval_j())
    return {
        "product": product(line2, circle2),
        "nested product": product(square, symmetrize(interval_c())),
        "nested sum": sum_complex(sum_complex(interval_c(), symmetrize(circle2)),
                                  sum_complex(square, interval_middle_delay())),
        "opposite": opposite(interval_middle_delay()),
        "opposite of a product": opposite(square),
        "opposite with cells": opposite(symmetrize(circle2)),
        "full substructure": full_substructure(line2, {"-2", "0", "2"}),
        "full substructure of a product": full_substructure(square, {("0", "0"), ("1", "1")}),
        "quotient": quotient(line2, QuotientSpec(blocks=[["-1", "0"]], collapse=["e-1"])),
        "symmetrize": symmetrize(circle2),
        "nested symmetrize": symmetrize(symmetrize(interval_c())),
        "reversible cancellation": reversible_cancellation(interval_reversible(), "e", "er"),
        "dhat": reflect_dhat(interval_middle_delay()),
        "dhat of a sum": reflect_dhat(sum_complex(diagonal_square(), line2)),
        "fl": reflect_fl(product(interval_middle_delay(), line_c(1))),
        "pf": reflect_pf(diagonal_square()),
        "bf": reflect_bf(interval_middle_delay()),
        "parsed product": parse_complex(json.loads(canonical_json(
            serialize_complex(product(symmetrize(circle2), interval_j()))))),
        "parsed document": parse_complex(json.loads(canonical_json(
            serialize_complex(symmetrize(line2))))),
    }


@pytest.mark.parametrize("name", sorted(_standard_spaces()))
def test_standard_spaces_list_in_reference_order(name):
    assert_reference_order(_standard_spaces()[name])


@pytest.mark.parametrize("name", sorted(_constructions()))
def test_constructions_list_in_reference_order(name):
    assert_reference_order(_constructions()[name])


@given(presented_complexes(), presented_complexes())
def test_random_constructions_list_in_reference_order(X, Y):
    for Z in (X, product(X, Y), sum_complex(X, Y), opposite(X), symmetrize(X),
              reflect_dhat(X), reflect_fl(X), reflect_pf(X), reflect_bf(X),
              parse_complex(json.loads(canonical_json(serialize_complex(X))))):
        assert_reference_order(Z)


def test_composite_construction_calls_no_idkey(monkeypatch):
    factors = [line_c(3) for _ in range(3)]
    summands = [interval_c() for _ in range(101)]
    calls = []

    def counting_idkey(x):
        calls.append(x)
        return idkey(x)

    monkeypatch.setattr(core, "idkey", counting_idkey)
    monkeypatch.setattr(spaces, "idkey", counting_idkey)
    cube = product(product(factors[0], factors[1]), factors[2])
    deep = summands[0]
    for part in summands[1:]:
        deep = sum_complex(deep, part)
    assert calls == []
    assert len(cube.graph.vertices) == 7 ** 3
    assert len(deep.graph.vertices) == 2 * 101
    # the public constructor still sorts by the counted key
    line_c(1)
    assert calls


class TestEmptyDwellSet:
    def test_dwell_free_routes_share_one_empty_dwell_set(self):
        g = line_c(1).graph
        routes = [
            Route("0", "1", ("e0",)),
            Route("0", "1", ("e0",), frozenset()),
            Route("0", "1", ["e0"], set()),
            g.route("0", ["e0"]),
            Route._known("0", "1", ("e0",)),
            Route.constant("0"),
            Route("0", "0", (), {0}),
        ]
        assert len({id(r.dwells) for r in routes}) == 1
        assert routes[0].dwells == frozenset()

    def test_equality_and_hash_are_unchanged(self):
        shared = Route("0", "1", ("e0",))
        fresh = Route("0", "1", ("e0",), frozenset({1}))
        object.__setattr__(fresh, "dwells", frozenset())
        assert fresh.dwells is not shared.dwells
        assert shared == fresh and hash(shared) == hash(fresh)
        assert hash(shared) == hash(("0", "1", ("e0",), frozenset()))
        assert shared != Route("0", "1", ("e0",), {0})


class TestValidateRoute:
    def test_builds_no_route(self, monkeypatch):
        g = line_c(2).graph
        r = g.route("-2", ["e-2", "e-1"])
        built = []
        monkeypatch.setattr(core.Route, "__post_init__", lambda self: built.append(self))
        g.validate_route(r)
        assert built == []

    @pytest.mark.parametrize("route, message", [
        (Route("9", "9"), "unknown vertex 9"),
        (Route("0", "1", ("x",)), "unknown edge x"),
        (Route("0", "2", ("e1", "e0")), "edge e1 starts at 1, route is at 0"),
        (Route("0", "2", ("e0",)), "route ends at 1, not 2"),
    ])
    def test_error_texts_are_unchanged(self, route, message):
        with pytest.raises(core.InvalidRouteError) as err:
            line_c(2).graph.validate_route(route)
        assert str(err.value) == message

    def test_the_first_invalid_cell_in_reference_order_is_reported(self):
        g = line_c(1).graph
        cells = [SquareCell(Route("0", "0", ("zz",)), Route("0", "0")),
                 SquareCell(Route("-1", "-1", ("yy",)), Route("-1", "-1")),
                 SquareCell(Route("0", "0", ("e0",)), Route("0", "0"))]
        for order in (cells, cells[::-1]):
            with pytest.raises(core.InvalidRouteError) as err:
                core.PresentedComplex(g, {g.route("0", ["e0"])}, order)
            assert str(err.value) == "unknown edge yy"
