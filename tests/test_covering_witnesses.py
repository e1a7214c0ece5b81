"""The exact witness texts of the covering audits on small failing maps."""
from __future__ import annotations

import json

import pytest

from oracles import brute_validate_covering
from cspace import (
    CoveringMap,
    Graph,
    PresentedComplex,
    Route,
    StructureError,
    check_lifting_bijection,
    exponential_cover,
    interval_c,
    interval_j,
    interval_reversible,
    lift_route,
    symmetrize,
    validate_covering,
)
from cspace.cli import run_command
from cspace.documents import save_complex


def _reversible_over_symmetrized():
    """No cancellation upstairs: the loop e,er is its own class there but
    the identity downstairs."""
    return CoveringMap(interval_reversible(), symmetrize(interval_c()),
                       {"0": "0", "1": "1"}, {"e": "e", "er": "e~"})


def _symmetrized_over_reversible():
    return CoveringMap(symmetrize(interval_c()), interval_reversible(),
                       {"0": "0", "1": "1"}, {"e": "e", "e~": "er"})


def _interval_j_without_its_second_generator():
    g = interval_j().graph
    total = PresentedComplex(
        g, {g.route("0", ["e1"]), Route.constant("m"), Route.constant("1")})
    return CoveringMap(total, interval_j(), {v: v for v in g.vertices},
                       {e: e for e in g.edge_ids})


def _parallel_edges_over_one():
    g = Graph(["0", "1"], {"a": ("0", "1"), "b": ("0", "1")})
    total = PresentedComplex(g, {g.route("0", ["a"]), g.route("0", ["b"])})
    return CoveringMap(total, interval_c(), {"0": "0", "1": "1"}, {"a": "e", "b": "e"})


class TestLiftingBijectionWitnesses:
    def test_a_total_class_never_lifted_to(self):
        report = check_lifting_bijection(_reversible_over_symmetrized(), "0", "0", 2)
        assert not report.bijective
        assert (report.base_classes, report.total_classes, report.fibre) == (1, 2, ("0",))
        assert report.witnesses == (
            "total class of (0;[e,er];{}) (projects to (0;[e,e~];{})) is never lifted to",
        )

    def test_two_base_classes_lifting_to_one(self):
        report = check_lifting_bijection(_symmetrized_over_reversible(), "0", "0", 2)
        assert not report.bijective
        assert (report.base_classes, report.total_classes) == (2, 1)
        assert report.witnesses == (
            "classes of (0;[];{}) and (0;[e,er];{}) lift to one class upstairs",
        )
        assert [(str(b), x, str(t)) for b, x, t in report.pairs] == [
            ("(0;[];{})", "0", "(0;[];{})"), ("(0;[e,er];{})", "0", "(0;[];{})")]

    def test_lifts_that_run_off_the_window(self):
        report = check_lifting_bijection(exponential_cover(1, 2), "0", "0", 4)
        assert not report.bijective
        assert (report.base_classes, report.total_classes) == (5, 3)
        assert report.witnesses == (
            "cannot lift (0;[e0,e0,e0];{}): lift runs off at window boundary 2: no edge over e0",
            "cannot lift (0;[e0,e0,e0,e0];{}): lift runs off at window boundary 2: "
            "no edge over e0",
        )
        assert [(x, str(t)) for _, x, t in report.pairs] == [
            ("0", "(0;[];{})"), ("1", "(0;[e0];{})"), ("2", "(0;[e0,e1];{})")]

    def test_a_lift_that_is_not_realizable_upstairs(self):
        report = check_lifting_bijection(
            _interval_j_without_its_second_generator(), "0", "1", 3)
        assert not report.bijective
        assert (report.base_classes, report.total_classes) == (1, 0)
        assert report.witnesses == ("lift (0;[e1,e2];{}) is not realizable upstairs",)
        assert report.pairs == ()


class TestNonUniqueLifts:
    def test_lift_route_names_the_parallel_edges(self):
        p = _parallel_edges_over_one()
        with pytest.raises(StructureError) as err:
            lift_route(p, p.base.graph.route("0", ["e"]), "0")
        assert str(err.value) == "lift is not unique at 0: 2 edges over e"

    def test_cover_lift_exits_two(self, tmp_path):
        p = _parallel_edges_over_one()
        save_complex(p.total, str(tmp_path / "total.ctop"))
        save_complex(p.base, str(tmp_path / "base.ctop"))
        (tmp_path / "vmap.json").write_text(json.dumps(p.vmap))
        (tmp_path / "emap.json").write_text(json.dumps(p.emap))
        code, text = run_command([
            "cover-lift", str(tmp_path / "total.ctop"), str(tmp_path / "base.ctop"),
            "--vmap", str(tmp_path / "vmap.json"), "--emap", str(tmp_path / "emap.json"),
            "--route", '{"start": "0", "edges": ["e"]}', "--from", "0",
        ])
        assert (code, text) == (2, "error: lift is not unique at 0: 2 edges over e")


def test_a_star_with_as_many_edges_but_repeated_images_is_not_bijective():
    """Both edges out of a lie over f, so the star at a has two edges, as
    its image 0 has, but misses g."""
    bg = Graph(["0", "1"], {"f": ("0", "1"), "g": ("0", "1")})
    base = PresentedComplex(bg, {bg.route("0", ["f"]), bg.route("0", ["g"])})
    tg = Graph(["a", "b", "c"], {"x": ("a", "b"), "y": ("a", "c")})
    total = PresentedComplex(tg, {tg.route("a", ["x"]), tg.route("a", ["y"])})
    p = CoveringMap(total, base, {"a": "0", "b": "1", "c": "1"}, {"x": "f", "y": "f"})
    report = validate_covering(p, 1)
    assert report == brute_validate_covering(p, 1)
    assert report.witnesses[:3] == (
        "star not bijective at a (out-edges)",
        "star not bijective at b (in-edges)",
        "star not bijective at c (in-edges)",
    )
