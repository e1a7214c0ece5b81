"""The command-line interface, exercised in process through run_command."""
from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

from cspace import cli
from cspace.cli import run_command
from cspace.documents import canonical_json, load_complex, serialize_complex


@pytest.fixture()
def ci_file(tmp_path):
    path = str(tmp_path / "ci.ctop")
    assert run_command(["new", "interval-c", "-o", path])[0] == 0
    return path


@pytest.fixture()
def circle_file(tmp_path):
    path = str(tmp_path / "c1.ctop")
    assert run_command(["new", "circle-n-stop", "--stops", "1", "-o", path])[0] == 0
    return path


class TestNew:
    def test_writes_documents_and_reports_the_path(self, tmp_path):
        out = str(tmp_path / "x.ctop")
        code, text = run_command(["new", "line-c", "--window", "2", "-o", out])
        assert code == 0
        assert text == f"wrote {out}"
        doc = json.load(open(out))
        assert doc["schema"] == 1
        assert len(doc["vertices"]) == 5

    def test_prints_canonical_json_without_output_path(self):
        code, text = run_command(["new", "interval-c"])
        assert code == 0
        doc = json.loads(text)
        assert doc["edges"][0]["id"] == "e"

    def test_rejects_unknown_kinds_and_bad_parameters(self):
        assert run_command(["new", "moebius"])[0] == 2
        assert run_command(["new", "line-c"])[0] == 2
        assert run_command(["new", "interval-c", "--stops", "3"])[0] == 2


class TestCategoryCommands:
    def test_table_output_summarizes_objects_arrows_and_homs(self, tmp_path):
        path = str(tmp_path / "cj.ctop")
        run_command(["new", "interval-j", "-o", path])
        code, text = run_command(["pi1", path, "--bound", "3"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "objects: 0,1,m; arrows: 6; preorder: yes; truncated: no"
        assert "hom(0,1): [e1,e2]" in lines

    def test_machine_output_is_one_json_object_per_class(self, ci_file):
        code, text = run_command(["pi1", ci_file, "--bound", "2", "--format", "machine"])
        assert code == 0
        rows = [json.loads(line) for line in text.splitlines()]
        assert len(rows) == 3
        assert {"source", "target", "word", "size", "truncated"} <= set(rows[0])

    def test_hom_lists_class_representatives(self, ci_file):
        code, text = run_command(["hom", ci_file, "0", "1", "--bound", "2"])
        assert code == 0
        assert text.splitlines() == ["classes: 1; truncated: no", "[e]"]

    def test_monoid_prints_the_composition_table(self, circle_file):
        code, text = run_command(["monoid", circle_file, "0", "--bound", "3"])
        assert code == 0
        lines = text.splitlines()
        assert lines[0] == "classes: 4; identity: 0; truncated: yes"
        assert lines[-1] == "3: 3 - - -"

    def test_hom_rejects_vertices_that_are_not_objects(self, ci_file):
        code, text = run_command(["hom", ci_file, "0", "zzz", "--bound", "2"])
        assert code == 2
        assert "zzz" in text

    def test_monoid_and_hom_render_a_vertex_that_is_not_an_object_alike(self, tmp_path):
        path = str(tmp_path / "md.ctop")
        run_command(["new", "interval-middle-delay", "-o", path])
        want = (2, "error: m is not a flexible vertex")
        assert run_command(["monoid", path, "m", "--bound", "3"]) == want
        assert run_command(["hom", path, "0", "m", "--bound", "3"]) == want


class TestCheck:
    def test_positive_verdicts_exit_zero(self, ci_file):
        assert run_command(["check", ci_file, "flexible", "--bound", "3"])[0] == 0
        assert run_command(["check", ci_file, "preflexible", "--bound", "3"])[0] == 0
        assert run_command(["check", ci_file, "border-flexible"])[0] == 0
        assert run_command(["check", ci_file, "one-simple", "--bound", "3"])[0] == 0
        assert run_command(["check", ci_file, "total-support"])[0] == 0

    def test_negative_verdicts_exit_one_with_witness(self, tmp_path):
        path = str(tmp_path / "dm.ctop")
        run_command(["new", "interval-delayed-minus", "-o", path])
        code, text = run_command(["check", path, "border-flexible"])
        assert code == 1
        assert "witness: (0;[e];{}) is not controlled" in text

    def test_one_simple_failure_names_the_hom_set(self, circle_file):
        code, text = run_command(["check", circle_file, "one-simple", "--bound", "3"])
        assert code == 1
        assert "hom(0,0)" in text

    def test_negative_bound_is_an_input_error(self, tmp_path):
        path = str(tmp_path / "dm.ctop")
        run_command(["new", "interval-delayed-minus", "-o", path])
        for prop in ("preflexible", "flexible", "one-simple"):
            code, text = run_command(["check", path, prop, "--bound", "-3"])
            assert (code, text) == (2, "error: bound must be >= 0")

    def test_flexibility_of_restricted_documents_needs_no_bound(self, tmp_path, ci_file):
        kept = str(tmp_path / "kept.ctop")
        run_command(["restrict", ci_file, "--keep", "0,1", "-o", kept])
        assert run_command(["check", kept, "flexible"]) == (0, "flexible: yes")
        delayed = str(tmp_path / "dm.ctop")
        run_command(["new", "interval-delayed-minus", "-o", delayed])
        run_command(["restrict", delayed, "--keep", "0,1", "-o", kept])
        assert run_command(["check", kept, "flexible"]) == (1, (
            "flexible: no\n"
            "witness: base: generator (0;[e];{0}) has an uncontrolled restriction"))

    def test_products_and_sums_name_the_part_that_is_not_flexible(self, tmp_path, ci_file):
        delayed = str(tmp_path / "dm.ctop")
        run_command(["new", "interval-delayed-minus", "-o", delayed])
        kept = str(tmp_path / "r.ctop")
        run_command(["restrict", delayed, "--keep", "0,1", "-o", kept])
        cases = (
            (["product", ci_file, kept], "right factor: base: "),
            (["product", kept, ci_file], "left factor: base: "),
            (["sum", kept, ci_file], "left summand: base: "),
            (["product", ci_file, delayed], "right factor: "),
        )
        for args, where in cases:
            out = str(tmp_path / "built.ctop")
            assert run_command(args + ["-o", out])[0] == 0
            assert run_command(["check", out, "flexible"]) == (1, (
                "flexible: no\nwitness: " + where
                + "generator (0;[e];{0}) has an uncontrolled restriction"))

    def test_missing_bound_is_a_usage_error(self, ci_file):
        code, text = run_command(["check", ci_file, "preflexible"])
        assert code == 2
        assert "bound" in text


class TestConstructions:
    def test_product_and_report(self, tmp_path, ci_file):
        out = str(tmp_path / "prod.ctop")
        assert run_command(["product", ci_file, ci_file, "-o", out])[0] == 0
        code, text = run_command(["report", out, "--bound", "4"])
        assert code == 0
        assert "flexible space: yes" in text
        assert "arrows: 9" in text

    def test_restrict_and_hom(self, tmp_path):
        path = str(tmp_path / "cj.ctop")
        run_command(["new", "interval-j", "-o", path])
        out = str(tmp_path / "ends.ctop")
        assert run_command(["restrict", path, "--keep", "0,1", "-o", out])[0] == 0
        code, text = run_command(["hom", out, "0", "1", "--bound", "3"])
        assert code == 0
        assert text.splitlines()[1] == "[e1,e2]"

    def test_quotient_collapses_via_a_spec_file(self, tmp_path):
        path = str(tmp_path / "rigid.ctop")
        run_command(["new", "rigid-line", "--length", "2", "-o", path])
        spec = tmp_path / "spec.json"
        spec.write_text('{"blocks": [["1", "2"]], "collapse": ["e1"]}')
        out = str(tmp_path / "q.ctop")
        assert run_command(["quotient", path, "--spec", str(spec), "-o", out])[0] == 0
        code, text = run_command(["check", out, "border-flexible"])
        assert code == 1

    def test_report_on_oracle_backed_documents(self, tmp_path, ci_file):
        for args in (["reflect", ci_file, "fl"], ["reflect", ci_file, "pf"],
                     ["restrict", ci_file, "--keep", "0,1"]):
            out = str(tmp_path / "derived.ctop")
            assert run_command(args + ["-o", out])[0] == 0
            code, text = run_command(["report", out, "--bound", "3"])
            assert code == 0, text
            assert ("path support: not available (needs a generator presentation)"
                    in text.splitlines())

    def test_reflected_sums_round_trip_through_documents(self, tmp_path, ci_file):
        summed = str(tmp_path / "sum.ctop")
        assert run_command(["sum", ci_file, ci_file, "-o", summed])[0] == 0
        for which in ("dhat", "bf"):
            out = str(tmp_path / f"{which}.ctop")
            code, text = run_command(["reflect", summed, which, "-o", out])
            assert code == 0, text
            with open(out, encoding="utf-8") as fh:
                written = fh.read()
            assert json.loads(written)["recipe"]["op"] == which
            assert canonical_json(serialize_complex(load_complex(out))) == written

    def test_sums_and_products_with_a_restricted_part(self, tmp_path, ci_file):
        kept = str(tmp_path / "kept.ctop")
        run_command(["restrict", ci_file, "--keep", "0,1", "-o", kept])
        for op in ("sum", "product"):
            out = str(tmp_path / f"{op}.ctop")
            assert run_command([op, ci_file, kept, "-o", out])[0] == 0
            code, text = run_command(["report", out, "--bound", "3"])
            assert code == 0, text
            assert "flexible space: yes" in text.splitlines()
            code, text = run_command(["check", out, "flexible", "--bound", "3"])
            assert (code, text) == (0, "flexible: yes")
            code, text = run_command(["pi1", out, "--bound", "3"])
            assert code == 0, text
            assert "preorder: yes; truncated: no" in text.splitlines()[0]

    def test_opposite_of_a_restricted_document(self, tmp_path, ci_file):
        kept = str(tmp_path / "kept.ctop")
        run_command(["restrict", ci_file, "--keep", "0,1", "-o", kept])
        out = str(tmp_path / "op.ctop")
        assert run_command(["op", kept, "-o", out])[0] == 0
        assert load_complex(out).recipe()[0] == "restrict"
        code, text = run_command(["hom", out, "1", "0", "--bound", "2"])
        assert code == 0
        assert text.splitlines() == ["classes: 1; truncated: no", "[e]"]

    def test_opposite_swaps_hom_direction(self, tmp_path, ci_file):
        out = str(tmp_path / "op.ctop")
        assert run_command(["op", ci_file, "-o", out])[0] == 0
        code, text = run_command(["hom", out, "1", "0", "--bound", "2"])
        assert code == 0
        assert text.splitlines()[0] == "classes: 1; truncated: no"


class TestCovering:
    def test_exponential_shorthand_validates(self):
        code, text = run_command(
            ["cover-validate", "--exponential", "1", "--window", "3", "--bound", "4"]
        )
        assert code == 0
        assert "covering: valid" in text

    def test_lift_prints_the_lifted_route(self):
        code, text = run_command([
            "cover-lift", "--exponential", "1", "--window", "3",
            "--route", '{"start": "0", "edges": ["e0", "e0"], "dwells": [1]}',
            "--from", "0",
        ])
        assert code == 0
        assert text == "lift: (0;[e0,e1];{1})"

    def test_bijection_summarizes_both_sides(self):
        code, text = run_command([
            "cover-bijection", "--exponential", "1", "--window", "5",
            "--from", "0", "--to", "0", "--bound", "5",
        ])
        assert code == 0
        assert "base classes: 6; total classes: 6" in text
        assert "bijection: yes (bound 5)" in text

    def test_negative_bound_is_an_input_error(self):
        code, text = run_command([
            "cover-validate", "--exponential", "2", "--window", "4", "--bound", "-2",
        ])
        assert (code, text) == (2, "error: bound must be >= 0")

    def test_exponential_needs_its_window(self):
        code, text = run_command(
            ["cover-validate", "--exponential", "1", "--bound", "3"]
        )
        assert code == 2
        assert "window" in text

    def test_explicit_maps_from_files(self, tmp_path, circle_file):
        total = str(tmp_path / "line.ctop")
        run_command(["new", "line-c", "--window", "2", "-o", total])
        vmap = tmp_path / "vmap.json"
        vmap.write_text(json.dumps({str(k): "0" for k in range(-2, 3)}))
        emap = tmp_path / "emap.json"
        emap.write_text(json.dumps({f"e{k}": "e0" for k in range(-2, 2)}))
        code, text = run_command([
            "cover-validate", total, circle_file,
            "--vmap", str(vmap), "--emap", str(emap),
            "--excluded=-2,2", "--bound", "3",
        ])
        assert code == 0, text


class TestUsage:
    def test_unknown_subcommand_is_a_usage_error(self):
        assert run_command(["frobnicate"])[0] == 2

    def test_missing_files_exit_two(self):
        assert run_command(["pi1", "/does/not/exist.ctop", "--bound", "2"])[0] == 2

    def test_deeply_nested_recipes_exit_two(self, tmp_path, ci_file):
        with open(ci_file, encoding="utf-8") as fh:
            text = fh.read()
        for _ in range(600):
            text = '{"schema": 1, "recipe": {"op": "op", "base": ' + text + "}}"
        path = tmp_path / "deep.ctop"
        path.write_text(text)
        code, out = run_command(["pi1", str(path), "--bound", "2"])
        assert code == 2
        assert out.startswith("document error: ") and "nesting is too deep" in out


class TestSharedParser:
    """One parser serves every call in a process, and no call leaves state in it."""

    def test_many_calls_build_the_parser_once(self, monkeypatch, ci_file):
        built = []
        init = cli._Parser.__init__

        def counting_init(self, *args, **kwargs):
            if kwargs.get("prog") == "cspace":
                built.append(self)
            init(self, *args, **kwargs)

        monkeypatch.setattr(cli._Parser, "__init__", counting_init)
        for _ in range(5):
            assert run_command(["pi1", ci_file, "--bound", "2"])[0] == 0
            assert run_command(["reflect", ci_file, "zz"])[0] == 2
        assert len(built) <= 1

    def test_usage_errors_leave_no_state_between_calls(self, ci_file):
        calls = [
            ["pi1", ci_file, "--bound", "2", "--format", "machine"],
            ["reflect", ci_file, "zz"],
            ["pi1", ci_file, "--bound", "2"],
            ["product", ci_file],
            ["restrict", ci_file, "--keep", "0,1"],
            ["hom", ci_file, "0", "1"],
            ["reflect", ci_file, "fl"],
        ]
        env = {**os.environ, "PYTHONPATH": str(Path(cli.__file__).parents[1])}
        for argv in calls:
            fresh = subprocess.run([sys.executable, "-m", "cspace.cli", *argv],
                                   capture_output=True, text=True, env=env)
            code, text = run_command(argv)
            assert (code, text) == (fresh.returncode, fresh.stdout.removesuffix("\n"))


class TestSideInputShapes:
    """Malformed side inputs exit 2 with the field path, never a traceback."""

    @pytest.mark.parametrize("route, want", [
        ('{"start": "0", "edges": 5}', "--route.edges: expected a list"),
        ('{"start": "0", "dwells": 5}', "--route.dwells: expected a list"),
        ('{"start": "0", "edges": ["e0"], "dwells": [[1]]}',
         "--route.dwells[0]: expected an integer position"),
        ('{"start": 5}', "--route.start: expected a string id or an array of ids"),
    ])
    def test_cover_lift_route(self, route, want):
        code, text = run_command([
            "cover-lift", "--exponential", "3", "--window", "6",
            "--route", route, "--from", "0",
        ])
        assert (code, text) == (2, "document error: " + want)

    @pytest.mark.parametrize("spec, want", [
        ('{"blocks": 5}', "--spec.blocks: expected a list"),
        ('{"blocks": [5]}', "--spec.blocks[0]: expected a list"),
        ('{"blocks": [["1", 2]]}',
         "--spec.blocks[0][1]: expected a string id or an array of ids"),
        ('{"collapse": 5}', "--spec.collapse: expected a list"),
        ('{"collapse": "e1"}', "--spec.collapse: expected a list"),
    ])
    def test_quotient_spec(self, tmp_path, spec, want):
        path = str(tmp_path / "rigid.ctop")
        run_command(["new", "rigid-line", "--length", "2", "-o", path])
        spec_file = tmp_path / "spec.json"
        spec_file.write_text(spec)
        code, text = run_command(["quotient", path, "--spec", str(spec_file)])
        assert (code, text) == (2, "document error: " + want)

    @pytest.mark.parametrize("vmap, want", [
        ("[5]", "--vmap[0]: expected a pair of ids"),
        ("[[1]]", "--vmap[0]: expected a pair of ids"),
        ('[["0", 1]]', "--vmap[0][1]: expected a string id or an array of ids"),
        ('{"0": {}}', "--vmap.0: expected a string id or an array of ids"),
    ])
    def test_cover_map_files(self, tmp_path, circle_file, vmap, want):
        total = str(tmp_path / "line.ctop")
        run_command(["new", "line-c", "--window", "2", "-o", total])
        vmap_file = tmp_path / "vmap.json"
        vmap_file.write_text(vmap)
        emap_file = tmp_path / "emap.json"
        emap_file.write_text(json.dumps({f"e{k}": "e0" for k in range(-2, 2)}))
        code, text = run_command([
            "cover-validate", total, circle_file, "--vmap", str(vmap_file),
            "--emap", str(emap_file), "--bound", "2",
        ])
        assert (code, text) == (2, "document error: " + want)

    def test_json_ids_on_the_command_line(self, ci_file):
        code, text = run_command(["restrict", ci_file, "--keep", "[{}]"])
        assert (code, text) == (
            2, "document error: --keep[0]: expected a string id or an array of ids")
        code, text = run_command(["hom", ci_file, "[5]", "0", "--bound", "2"])
        assert (code, text) == (
            2, "document error: source[0]: expected a string id or an array of ids")

    def test_deeply_nested_ids(self, tmp_path, ci_file, circle_file):
        deep = json.loads("[" * 600 + '"0"' + "]" * 600)
        code, text = run_command(["hom", ci_file, json.dumps(deep), "0", "--bound", "2"])
        assert (code, text) == (2, "document error: source: nesting is deeper than 100")
        code, text = run_command([
            "cover-lift", "--exponential", "3", "--window", "6",
            "--route", '{"start": "0"}', "--from", json.dumps(deep),
        ])
        assert (code, text) == (2, "document error: --from: nesting is deeper than 100")
        vmap_file = tmp_path / "vmap.json"
        vmap_file.write_text(json.dumps({"0": deep}))
        code, text = run_command([
            "cover-validate", ci_file, circle_file, "--vmap", str(vmap_file),
            "--emap", str(vmap_file), "--bound", "2",
        ])
        assert (code, text) == (2, "document error: --vmap.0: nesting is deeper than 100")

    def test_recipe_keep_ids(self, tmp_path, ci_file):
        with open(ci_file, encoding="utf-8") as fh:
            base = json.load(fh)
        doc = tmp_path / "restricted.ctop"
        doc.write_text(json.dumps(
            {"schema": 1, "recipe": {"op": "restrict", "base": base, "keep": [{}]}}))
        code, text = run_command(["pi1", str(doc), "--bound", "2"])
        assert (code, text) == (
            2, "document error: recipe.keep[0]: expected a string id or an array of ids")

    def test_deeply_nested_side_inputs(self, tmp_path, ci_file):
        spec = tmp_path / "spec.json"
        spec.write_text("[" * 100000 + "]" * 100000)
        code, text = run_command(["quotient", ci_file, "--spec", str(spec)])
        assert (code, text) == (2, f"document error: {spec}: not valid JSON: nesting is too deep")
        code, text = run_command([
            "cover-lift", "--exponential", "3", "--window", "6",
            "--route", "[" * 100000 + "]" * 100000, "--from", "0",
        ])
        assert (code, text) == (2, "usage error: bad --route JSON: nesting is too deep")


class TestDocumentShapes:
    """Malformed document fields exit 2 with the field path."""

    @pytest.mark.parametrize("change, want", [
        ({"generators": [{"start": "0", "edges": ["e"], "dwells": [[1]]}]},
         "generators[0].dwells[0]: expected an integer position"),
        ({"cells": 5}, "cells: expected a list"),
        ({"cells": None}, "cells: expected a list"),
        ({"vertices": 5}, "vertices: expected a list"),
    ])
    def test_field_paths(self, tmp_path, ci_file, change, want):
        with open(ci_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "bad.ctop"
        path.write_text(json.dumps({**doc, **change}))
        code, text = run_command(["pi1", str(path), "--bound", "2"])
        assert (code, text) == (2, "document error: " + want)

    @pytest.mark.parametrize("build, want", [
        (lambda ci: {k: v for k, v in ci.items() if k != "vertices"},
         "document: missing field 'vertices'"),
        (lambda ci: _recipe("product", args=[{**ci, "vertices": [5]}, ci]),
         "recipe.args[0].vertices[0]: expected a string vertex id"),
        (lambda ci: _recipe("product", args=[ci, 5]), "recipe.args[1]: expected a JSON object"),
        (lambda ci: _recipe("op", base={"schema": 1, "edges": []}),
         "recipe.base: missing field 'vertices'"),
        (lambda ci: _recipe("restrict", keep=["0"], base=_recipe("sum", args=[ci, {**ci, "cells": 5}])),
         "recipe.base.recipe.args[1].cells: expected a list"),
    ])
    def test_nested_documents_are_named_from_the_top(self, tmp_path, ci_file, build, want):
        with open(ci_file, encoding="utf-8") as fh:
            doc = json.load(fh)
        path = tmp_path / "bad.ctop"
        path.write_text(json.dumps(build(doc)))
        code, text = run_command(["pi1", str(path), "--bound", "2"])
        assert (code, text) == (2, "document error: " + want)

    def test_recipes_nest_as_deep_as_ids(self, tmp_path):
        """A product of points nests its one vertex's id once per recipe, so
        the recipe depth cap is the id depth cap: at 100 the vertex can be
        named, and a 101st recipe is refused."""
        point = json.loads(run_command(["new", "discrete", "--points", "1"])[1])
        doc, vertex = point, '"0"'
        for _ in range(100):
            doc, vertex = _recipe("product", args=[doc, point]), f'[{vertex}, "0"]'
        path = tmp_path / "deep100.ctop"
        path.write_text(json.dumps(doc))
        code, text = run_command(["hom", str(path), vertex, vertex, "--bound", "2"])
        assert (code, text) == (0, "classes: 1; truncated: no\n[]")
        path.write_text(json.dumps(_recipe("product", args=[doc, point])))
        code, text = run_command(["pi1", str(path), "--bound", "2"])
        assert (code, text) == (
            2, "document error: recipe: nesting is too deep (more than 100 recipes)")


def _recipe(op: str, **fields) -> dict:
    return {"schema": 1, "recipe": {"op": op, **fields}}


class TestFileErrors:
    """Files that cannot be read or written exit 2, never a traceback."""

    def test_an_input_path_that_is_a_directory(self, tmp_path):
        code, text = run_command(["pi1", str(tmp_path), "--bound", "2"])
        assert code == 2 and text.startswith("file error: ")

    def test_an_output_path_that_is_a_directory(self, tmp_path):
        code, text = run_command(["new", "interval-c", "-o", str(tmp_path)])
        assert code == 2 and text.startswith("file error: ")

    def test_a_document_that_is_not_utf8(self, tmp_path):
        path = tmp_path / "latin1.ctop"
        path.write_bytes(b'{"schema": 1, "name": "\xe9"}')
        code, text = run_command(["pi1", str(path), "--bound", "2"])
        assert code == 2 and text.startswith(f"document error: {path}: not UTF-8: ")

    def test_a_map_file_that_is_not_utf8(self, tmp_path, ci_file, circle_file):
        vmap_file = tmp_path / "vmap.json"
        vmap_file.write_bytes(b'{"0": "\xe9"}')
        code, text = run_command([
            "cover-validate", ci_file, circle_file, "--vmap", str(vmap_file),
            "--emap", str(vmap_file), "--bound", "2",
        ])
        assert code == 2 and text.startswith(f"document error: {vmap_file}: not UTF-8: ")
