"""JSON document round-trips, canonical form, and diagnostics."""
from __future__ import annotations

import json

import pytest

from cspace import (
    DocumentError,
    canonical_json,
    full_substructure,
    load_complex,
    oracle_equivalent,
    parse_complex,
    product,
    save_complex,
    serialize_complex,
    sum_complex,
    symmetrize,
)
from cspace.core import reflect_bf, reflect_dhat, reflect_fl, reflect_pf
from cspace.documents import decode_id, encode_id
from conftest import build_corpus


class TestIdEncoding:
    def test_strings_pass_through_and_tuples_become_arrays(self):
        assert encode_id("v") == "v"
        assert encode_id(("L", "e", "0")) == ["L", "e", "0"]
        assert decode_id(["L", ["R", "x"], "0"]) == ("L", ("R", "x"), "0")
        assert decode_id("v") == "v"


class TestPlainRoundTrip:
    def test_every_presented_corpus_space_round_trips(self):
        for name, X in build_corpus().items():
            doc = serialize_complex(X)
            Y = parse_complex(doc)
            assert oracle_equivalent(X, Y, 3), name
            assert serialize_complex(Y) == doc, name

    def test_canonical_text_is_stable(self, ci):
        text = canonical_json(serialize_complex(ci))
        again = canonical_json(serialize_complex(parse_complex(json.loads(text))))
        assert text == again
        assert text.endswith("\n")

    def test_save_and_load_through_a_file(self, tmp_path, cj):
        path = tmp_path / "space.ctop"
        save_complex(cj, str(path))
        Y = load_complex(str(path))
        assert oracle_equivalent(cj, Y, 3)


class TestRecipeRoundTrip:
    def test_product_documents_rebuild_the_product(self, ci, cj):
        P = product(ci, cj)
        doc = serialize_complex(P)
        assert doc["recipe"]["op"] == "product"
        Y = parse_complex(doc)
        assert Y.flexible == P.flexible
        r = P.graph.route(("0", "0"), [("L", "e", "0")])
        assert Y.is_controlled(r) == P.is_controlled(r)

    def test_sum_restrict_and_reflector_recipes(self, ci, cj, delayed_minus):
        for X in (
            sum_complex(ci, cj),
            full_substructure(cj, ["0", "1"]),
            reflect_fl(delayed_minus),
            reflect_pf(delayed_minus),
            symmetrize(ci),
        ):
            doc = serialize_complex(X)
            Y = parse_complex(doc)
            assert Y.flexible == X.flexible
            assert serialize_complex(Y) == doc

    def test_reflected_sums_serialize_as_dhat_and_bf_recipes(self, ci, delayed_minus):
        S = sum_complex(ci, delayed_minus)
        for op, reflect in (("dhat", reflect_dhat), ("bf", reflect_bf)):
            X = reflect(S)
            doc = serialize_complex(X)
            assert doc["recipe"]["op"] == op
            Y = parse_complex(doc)
            assert Y.generators == X.generators
            assert serialize_complex(Y) == doc

    def test_string_id_reflections_stay_plain_documents(self, delayed_minus):
        for reflect in (reflect_dhat, reflect_bf):
            assert "recipe" not in serialize_complex(reflect(delayed_minus))

    def test_tuple_ids_survive_the_recipe_encoding(self, ci):
        S = sum_complex(ci, ci)
        R = full_substructure(S, [("L", "0"), ("L", "1")])
        doc = serialize_complex(R)
        Y = parse_complex(doc)
        assert Y.flexible == frozenset({("L", "0"), ("L", "1")})


class TestDiagnostics:
    def test_schema_must_be_known(self, ci):
        doc = serialize_complex(ci)
        doc["schema"] = 2
        with pytest.raises(DocumentError, match="schema"):
            parse_complex(doc)

    def test_unknown_top_level_keys_are_rejected(self, ci):
        doc = serialize_complex(ci)
        doc["extras"] = []
        with pytest.raises(DocumentError, match="extras"):
            parse_complex(doc)

    def test_duplicate_edges_name_the_position(self, ci):
        doc = serialize_complex(ci)
        doc["edges"].append(dict(doc["edges"][0]))
        with pytest.raises(DocumentError, match=r"edges\[1\]"):
            parse_complex(doc)

    def test_dangling_edge_endpoints_name_the_field(self, ci):
        doc = serialize_complex(ci)
        doc["edges"][0]["src"] = "q"
        with pytest.raises(DocumentError, match="unknown vertex 'q'"):
            parse_complex(doc)

    def test_bad_generator_dwells_are_reported(self, ci):
        doc = serialize_complex(ci)
        doc["generators"][0]["dwells"] = [7]
        with pytest.raises(DocumentError, match=r"generators\[0\]"):
            parse_complex(doc)

    def test_unknown_recipe_operations_name_the_field(self, ci):
        doc = {"schema": 1, "recipe": {"op": "twist", "base": serialize_complex(ci)}}
        with pytest.raises(DocumentError, match=r"recipe\.op: unknown operation 'twist'"):
            parse_complex(doc)

    def test_deeply_nested_recipes_are_document_errors(self, ci):
        doc = serialize_complex(ci)
        for _ in range(5000):
            doc = {"schema": 1, "recipe": {"op": "op", "base": doc}}
        with pytest.raises(DocumentError, match="nesting is too deep"):
            parse_complex(doc)

    def test_files_that_are_not_json_fail_cleanly(self, tmp_path):
        path = tmp_path / "broken.ctop"
        path.write_text("{nope", encoding="utf-8")
        with pytest.raises(DocumentError):
            load_complex(str(path))
