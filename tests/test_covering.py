"""Covering maps: validation, unique lifting, and the hom-set bijection."""
from __future__ import annotations

import random
import time

import pytest
from hypothesis import given
from hypothesis import strategies as st

from oracles import brute_validate_covering
from strategies import presented_complexes, routes_on
from cspace import (
    CoveringMap,
    Graph,
    PresentedComplex,
    Route,
    StructureError,
    check_lifting_bijection,
    circle_n_stop,
    enumerate_words,
    exponential_cover,
    identity_cover,
    full_substructure,
    idkey,
    interval_c,
    interval_delayed_minus,
    interval_delayed_plus,
    interval_j,
    interval_reversible,
    lift_route,
    line_c,
    minimal_dwell_sets,
    product,
    reflect_fl,
    reflect_pf,
    sum_complex,
    validate_covering,
)
from cspace.cli import run_command


class TestCoveringMapConstruction:
    def test_maps_must_cover_every_vertex_and_edge(self):
        X = line_c(1)
        B = circle_n_stop(1)
        with pytest.raises(StructureError):
            CoveringMap(X, B, {"-1": "0", "0": "0"}, {})

    def test_maps_must_commute_with_endpoints(self):
        X = line_c(1)
        B = circle_n_stop(1)
        vmap = {"-1": "0", "0": "0", "1": "0"}
        with pytest.raises(StructureError):
            CoveringMap(X, B, vmap, {"e-1": "e0", "e0": "bad"})

    @pytest.mark.parametrize("vmap, emap, want", [
        ({"9": "0", "x": "0"}, {}, "vmap key 9 is not a total vertex"),
        ({"1x": "0", "-1x": "0"}, {}, "vmap key -1x is not a total vertex"),
        ({}, {"typo": "e0", "e1": "e0"}, "emap key e1 is not a total edge"),
        ({"x": "0"}, {"typo": "e0"}, "vmap key x is not a total vertex"),
    ])
    def test_maps_name_only_total_vertices_and_edges(self, vmap, emap, want):
        """The least stray key in ``idkey`` order is named."""
        vmap = {"-1": "0", "0": "0", "1": "0", **vmap}
        emap = {"e-1": "e0", "e0": "e0", **emap}
        with pytest.raises(StructureError) as err:
            CoveringMap(line_c(1), circle_n_stop(1), vmap, emap)
        assert str(err.value) == want

    def test_fibres_are_sorted_preimages(self):
        p = exponential_cover(3, 6)
        assert p.fibre("0") == ("-6", "-3", "0", "3", "6")
        assert p.fibre("1") == ("-5", "-2", "1", "4")

    def test_projection_carries_dwells_verbatim(self):
        p = exponential_cover(1, 3)
        r = p.total.graph.route("0", ["e0", "e1"], {1})
        image = p.project(r)
        assert image.edges == ("e0", "e0")
        assert image.dwells == frozenset({1})


class TestLifting:
    def test_lifts_follow_the_unique_edge_over_each_step(self):
        p = exponential_cover(3, 6)
        b = p.base.graph.route("0", ["e0", "e1", "e2", "e0"])
        lift = lift_route(p, b, "0")
        assert lift.edges == ("e0", "e1", "e2", "e3")
        assert lift.end == "4"

    def test_lifts_carry_dwells_verbatim(self):
        p = exponential_cover(1, 3)
        b = p.base.graph.route("0", ["e0", "e0"], {1})
        lift = lift_route(p, b, "0")
        assert lift.dwells == frozenset({1})
        assert p.project(lift) == b

    def test_a_lift_is_built_without_validating_it_again(self, monkeypatch):
        p = exponential_cover(3, 6)
        b = p.base.graph.route("0", ["e0", "e1"], {0, 2})
        with monkeypatch.context() as patched:
            built = []
            patched.setattr(Route, "__post_init__", lambda self: built.append(self))
            lift = lift_route(p, b, "3")
            assert built == []
        assert lift == Route("3", "5", ("e3", "e4"), frozenset({0, 2}))

    def test_lifts_can_start_anywhere_in_the_fibre(self):
        p = exponential_cover(1, 3)
        b = p.base.graph.route("0", ["e0"])
        assert lift_route(p, b, "-2").end == "-1"

    def test_running_off_the_window_is_reported(self):
        p = exponential_cover(1, 2)
        b = p.base.graph.route("0", ["e0"])
        with pytest.raises(StructureError, match="window boundary"):
            lift_route(p, b, "2")

    def test_basepoint_must_lie_over_the_start(self):
        p = exponential_cover(3, 6)
        b = p.base.graph.route("1", ["e1"])
        with pytest.raises(StructureError):
            lift_route(p, b, "0")


class TestValidation:
    def test_winding_cover_of_the_one_stop_circle(self):
        report = validate_covering(exponential_cover(1, 5), 6)
        assert report.valid
        assert report.star_ok and report.lift_ok and report.flexible_ok
        assert report.skipped_lifts > 0

    def test_winding_cover_of_the_three_stop_circle(self):
        report = validate_covering(exponential_cover(3, 6), 6)
        assert report.valid

    def test_identity_cover_always_validates(self, cj):
        report = validate_covering(identity_cover(cj), 4)
        assert report.valid
        assert report.skipped_lifts == 0

    def test_missing_generator_breaks_controlled_lifting(self):
        B = circle_n_stop(1)
        vertices = [str(k) for k in range(-2, 3)]
        edges = {f"e{k}": (str(k), str(k + 1)) for k in range(-2, 2)}
        g = Graph(vertices, edges)
        gens = {g.route(str(k), [f"e{k}"]) for k in range(-2, 2) if k != 0}
        broken = PresentedComplex(g, gens)
        p = CoveringMap(
            broken, B,
            {v: "0" for v in vertices},
            {e: "e0" for e in edges},
            excluded=frozenset({"-2", "2"}),
        )
        report = validate_covering(p, 3)
        assert not report.valid
        assert not report.lift_ok
        assert report.witnesses

    def test_broken_star_condition_is_caught(self):
        B = interval_c()
        g = Graph(["a", "b", "c"], {"x": ("a", "b"), "y": ("a", "c")})
        total = PresentedComplex(g, {g.route("a", ["x"]), g.route("a", ["y"])})
        p = CoveringMap(
            total, B,
            {"a": "0", "b": "1", "c": "1"},
            {"x": "e", "y": "e"},
        )
        report = validate_covering(p, 2)
        assert not report.star_ok


    def test_negative_bound_is_rejected(self):
        with pytest.raises(StructureError, match="bound must be >= 0"):
            validate_covering(exponential_cover(2, 4), -2)


class TestLiftingBijection:
    def test_one_stop_circle_window_five(self):
        p = exponential_cover(1, 5)
        report = check_lifting_bijection(p, "0", "0", 5)
        assert report.bijective
        assert report.base_classes == 6
        assert report.total_classes == 6
        endpoints = sorted(int(lift.end) for _, _, lift in report.pairs)
        assert endpoints == [0, 1, 2, 3, 4, 5]

    def test_three_stop_circle_window_six_per_vertex(self):
        p = exponential_cover(3, 6)
        for target, classes in (("0", 3), ("1", 2), ("2", 2)):
            report = check_lifting_bijection(p, "0", target, 6)
            assert report.bijective, report.witnesses
            assert report.base_classes == classes
            assert report.total_classes == classes

    def test_identity_cover_bijection_is_trivial(self, cj):
        report = check_lifting_bijection(identity_cover(cj), "0", "1", 3)
        assert report.bijective
        assert report.fibre == ("1",)

    def test_lift_endpoints_separate_the_winding_classes(self):
        p = exponential_cover(1, 5)
        report = check_lifting_bijection(p, "0", "0", 5)
        ends = {lift.end for _, _, lift in report.pairs}
        assert len(ends) == report.base_classes

    def test_repeated_audits_on_one_cover_match_fresh_covers(self):
        """Both categories are answered from stores kept on the cover's
        complexes; asking one cover again, with targets and bounds in
        decreasing order, reports what a fresh cover reports."""
        for build, x0 in ((lambda: exponential_cover(3, 6), "0"), (_broken_cover, "-1")):
            p = build()
            targets = sorted(p.base.flexible, key=idkey, reverse=True)
            for bound in (7, 5, 3):
                for y in targets:
                    fresh = check_lifting_bijection(build(), x0, y, bound)
                    assert check_lifting_bijection(p, x0, y, bound) == fresh


def _line_over_loop(window, base_gens, total_gens, excluded=True):
    """A window of the line over a one-vertex loop, each side presented
    by the given generator lists of (edge count, dwells) per start."""
    B_graph = Graph(["0"], {"e0": ("0", "0")})
    B = PresentedComplex(
        B_graph, {B_graph.route("0", ["e0"] * m, d) for m, d in base_gens})
    vertices = [str(k) for k in range(-window, window + 1)]
    edges = {f"e{k}": (str(k), str(k + 1)) for k in range(-window, window)}
    g = Graph(vertices, edges)
    gens = {g.route(str(k), [f"e{k + i}" for i in range(m)], d)
            for m, d in total_gens for k in range(-window, window - m + 1)}
    ends = frozenset({str(-window), str(window)}) if excluded else frozenset()
    return CoveringMap(PresentedComplex(g, gens), B, {v: "0" for v in vertices},
                       {e: "e0" for e in edges}, ends)


def _broken_cover():
    B = circle_n_stop(1)
    vertices = [str(k) for k in range(-2, 3)]
    edges = {f"e{k}": (str(k), str(k + 1)) for k in range(-2, 2)}
    g = Graph(vertices, edges)
    gens = {g.route(str(k), [f"e{k}"]) for k in range(-2, 2) if k != 0}
    return CoveringMap(PresentedComplex(g, gens), B, {v: "0" for v in vertices},
                       {e: "e0" for e in edges}, excluded=frozenset({"-2", "2"}))


def _forked_cover():
    B = interval_c()
    g = Graph(["a", "b", "c"], {"x": ("a", "b"), "y": ("a", "c")})
    total = PresentedComplex(g, {g.route("a", ["x"]), g.route("a", ["y"])})
    return CoveringMap(total, B, {"a": "0", "b": "1", "c": "1"}, {"x": "e", "y": "e"})


def _stranded_fibre_cover():
    """A fibre point with no edges: the generator's lift from it runs off
    at an excluded vertex, but its constant lift is not controlled, since
    no generator makes it flexible upstairs."""
    g = Graph(["-1", "0", "1", "s"], {"e-1": ("-1", "0"), "e0": ("0", "1")})
    total = PresentedComplex(g, {g.route("-1", ["e-1"]), g.route("0", ["e0"])})
    return CoveringMap(total, circle_n_stop(1), {v: "0" for v in g.vertices},
                       {"e-1": "e0", "e0": "e0"}, excluded=frozenset({"-1", "1", "s"}))


def _identity_map(total, base):
    """The identity map from ``total`` onto ``base``, two complexes on
    one graph."""
    return CoveringMap(total, base, {v: v for v in total.graph.vertices},
                       {e: e for e in total.graph.edge_ids})


DIFFERENTIAL_COVERS = {
    "exponential-1-5": (lambda: exponential_cover(1, 5), 6),
    "exponential-3-6": (lambda: exponential_cover(3, 6), 6),
    "identity-j": (lambda: identity_cover(interval_j()), 4),
    "broken": (_broken_cover, 3),
    "dwell-at-start": (lambda: _line_over_loop(3, [(1, {0})], [(1, {0})]), 4),
    "dwell-at-start-lifted-to-end": (
        lambda: _line_over_loop(3, [(1, {0})], [(1, {1})]), 4),
    "middle-dwell": (lambda: _line_over_loop(3, [(2, {1})], [(2, {1})]), 5),
    "middle-dwell-lifted-to-both-ends": (
        lambda: _line_over_loop(3, [(2, {1})], [(2, {0, 2})]), 5),
    "mixed-needs": (
        lambda: _line_over_loop(3, [(1, {0}), (2, set())], [(1, {1}), (2, {2})]), 4),
    "either-end-lifted-to-one": (
        lambda: _line_over_loop(3, [(1, {0}), (1, {1})], [(1, {0})]), 3),
    "runs-off-unexcluded": (
        lambda: _line_over_loop(2, [(1, set())], [(1, set())], excluded=False), 3),
    "non-unique-lift": (_forked_cover, 2),
    "stranded-fibre-point": (_stranded_fibre_cover, 2),
    **{f"exponential-{n}-{w}-bound-{b}": (lambda n=n, w=w: exponential_cover(n, w), b)
       for n in range(1, 5) for w in (6, 8, 10) for b in range(9)},
    # kinds without generators: the walk asks each word's antichain of the base
    "identity-product": (
        lambda: identity_cover(product(interval_c(), circle_n_stop(2))), 4),
    "identity-flexible-part-of-product": (
        lambda: identity_cover(reflect_fl(product(interval_delayed_minus(), interval_c()))), 3),
    "identity-sum": (
        lambda: identity_cover(sum_complex(interval_j(), circle_n_stop(1))), 3),
    "identity-full-substructure": (
        lambda: identity_cover(full_substructure(line_c(2), ["-1", "1"])), 4),
    "identity-flexible-part-of-reversible-product": (
        lambda: identity_cover(reflect_fl(product(interval_reversible(), interval_c()))), 3),
    "delayed-over-its-preflexible-hull": (
        lambda: _identity_map(interval_delayed_minus(), reflect_pf(interval_delayed_minus())), 3),
    "delayed-product-over-product": (
        lambda: _identity_map(product(interval_delayed_minus(), line_c(1)),
                              product(interval_c(), line_c(1))), 3),
    "product-over-delayed-product": (
        lambda: _identity_map(product(interval_c(), line_c(1)),
                              product(interval_delayed_plus(), line_c(1))), 3),
    "reversible-over-its-flexible-part": (
        lambda: _identity_map(interval_reversible(), reflect_fl(interval_reversible())), 3),
}


class TestValidationAgainstTheBruteAudit:
    """Reports equal the per-decoration audit, witness order included."""

    @pytest.mark.parametrize("name", sorted(DIFFERENTIAL_COVERS))
    def test_reports_match_field_for_field(self, name):
        build, bound = DIFFERENTIAL_COVERS[name]
        p = build()
        assert validate_covering(p, bound) == brute_validate_covering(p, bound)

    def test_the_differential_covers_exercise_every_outcome(self):
        reports = {name: validate_covering(build(), bound)
                   for name, (build, bound) in DIFFERENTIAL_COVERS.items()}
        assert not reports["dwell-at-start-lifted-to-end"].lift_ok
        assert reports["dwell-at-start"].valid and reports["middle-dwell"].valid
        assert not reports["middle-dwell-lifted-to-both-ends"].lift_ok
        assert not reports["either-end-lifted-to-one"].lift_ok
        assert any(w.startswith("no edge over")
                   for w in reports["runs-off-unexcluded"].witnesses)
        assert any("not unique" in w for w in reports["non-unique-lift"].witnesses)
        assert reports["exponential-1-5"].skipped_lifts > 0

    @given(st.data())
    def test_random_generator_sets_on_one_graph(self, data):
        """Identity maps between two presentations of one graph: lifts
        fail exactly where the base controls a decoration the total does
        not."""
        X = data.draw(presented_complexes())
        gens = data.draw(st.lists(routes_on(X, max_len=2), min_size=1, max_size=3))
        Y = PresentedComplex(X.graph, gens)
        p = CoveringMap(X, Y, {v: v for v in X.graph.vertices},
                        {e: e for e in X.graph.edge_ids})
        assert validate_covering(p, 3) == brute_validate_covering(p, 3)


class TestOneLiftWalk:
    """The lifts are checked by one walk over the base words, whose state
    grows with the words walked, not with the bound."""

    @pytest.mark.parametrize("name", [
        "exponential-3-6", "broken", "identity-product", "delayed-product-over-product",
    ])
    def test_the_base_words_are_walked_once_per_vertex(self, monkeypatch, name):
        build, bound = DIFFERENTIAL_COVERS[name]
        p = build()
        entered = []
        real = Graph.iter_words

        def counted(graph, start, max_len):
            entered.append((graph, start))
            return real(graph, start, max_len)

        monkeypatch.setattr(Graph, "iter_words", counted)
        validate_covering(p, bound)
        assert sorted(start for _, start in entered) == sorted(p.base.graph.vertices)
        assert all(graph is p.base.graph for graph, _ in entered)

    @pytest.mark.parametrize("build, bound", [
        (lambda: exponential_cover(3, 12), 9), DIFFERENTIAL_COVERS["exponential-3-6"],
    ], ids=["exponential-3-12", "exponential-3-6"])
    def test_a_valid_cover_asks_each_whole_lift_once_per_minimal_dwell_set(
        self, monkeypatch, build, bound
    ):
        """Membership is monotone in the dwells, so a passing word's lifts
        are asked only at the word's minimal dwell sets, never decoration
        by decoration, and never twice."""
        p = build()
        expected = []
        for start, word, end in enumerate_words(p.base.graph, bound):
            needs = minimal_dwell_sets(p.base, start, word)
            for x0 in p.fibre(start):
                try:
                    lift = lift_route(p, Route(start, end, word), x0)
                except StructureError:
                    continue
                expected += [(x0, lift.edges, need) for need in needs]
        asked = []
        real = p.total._accepts

        def counted(x0, edges, x, dwells, memo):
            asked.append((x0, edges, frozenset(i for i in range(len(edges) + 1)
                                               if dwells >> i & 1)))
            return real(x0, edges, x, dwells, memo)

        monkeypatch.setattr(p.total, "_accepts", counted)
        assert validate_covering(p, bound).valid
        assert len(asked) == len(set(asked))
        assert sorted(asked, key=repr) == sorted(expected, key=repr)

    def test_a_bound_past_the_longest_word_costs_nothing(self):
        p = identity_cover(interval_c())
        started = time.perf_counter()
        huge = validate_covering(p, 10**18)
        assert time.perf_counter() - started < 1
        small = validate_covering(p, 1)
        assert huge.valid and huge.bound == 10**18
        assert (huge.checked_lifts, huge.skipped_lifts) == (small.checked_lifts,
                                                             small.skipped_lifts)


LIFT_STORE_COVERS = {
    **DIFFERENTIAL_COVERS,
    **{f"exponential-{n}-{w}": (lambda n=n, w=w: exponential_cover(n, w), 9)
       for n in range(1, 5) for w in (6, 8, 10)},
}


class TestLiftStore:
    """A cover keeps what its audit decided: every bound up to the one
    walked is read from the lift store, and a larger bound walks again only
    when the last walk reached its own bound."""

    @staticmethod
    def _count_walks(monkeypatch, p):
        """Record each ``Graph.iter_words`` call and each question to the
        total space made through the cover."""
        walks, asked = [], []
        iter_words, accepts = Graph.iter_words, p.total._accepts

        def counted_walk(graph, start, max_len):
            walks.append((graph, start))
            return iter_words(graph, start, max_len)

        def counted_accepts(*args):
            asked.append(args)
            return accepts(*args)

        monkeypatch.setattr(Graph, "iter_words", counted_walk)
        monkeypatch.setattr(p.total, "_accepts", counted_accepts)
        return walks, asked

    @pytest.mark.parametrize("name", sorted(LIFT_STORE_COVERS))
    def test_any_order_of_asking_matches_fresh_covers(self, name):
        build, bound = LIFT_STORE_COVERS[name]
        bounds = list(range(bound + 3))
        fresh = {b: validate_covering(build(), b) for b in bounds}
        shuffled = bounds[:]
        random.Random(name).shuffle(shuffled)
        for order in (bounds, bounds[::-1], shuffled):
            p = build()
            for b in order:
                assert validate_covering(p, b) == fresh[b], (order, b)

    @pytest.mark.parametrize("name", ["exponential-3-6", "broken", "identity-product"])
    def test_a_repeated_or_smaller_bound_walks_nothing(self, monkeypatch, name):
        build, bound = DIFFERENTIAL_COVERS[name]
        p = build()
        first = validate_covering(p, bound)
        walks, asked = self._count_walks(monkeypatch, p)
        assert validate_covering(p, bound) == first
        for b in range(bound):
            validate_covering(p, b)
        assert walks == [] and asked == []

    def test_a_larger_bound_on_a_cyclic_base_walks_once_more(self, monkeypatch):
        fresh = validate_covering(exponential_cover(3, 6), 5)
        p = exponential_cover(3, 6)
        validate_covering(p, 4)
        walks, _ = self._count_walks(monkeypatch, p)
        report = validate_covering(p, 6)
        assert sorted(start for _, start in walks) == sorted(p.base.graph.vertices)
        assert all(graph is p.base.graph for graph, _ in walks)
        walks.clear()
        assert validate_covering(p, 5) == fresh
        assert validate_covering(p, 6) == report
        assert walks == []

    def test_a_bound_past_an_acyclic_base_walks_nothing_more(self, monkeypatch):
        p = identity_cover(interval_c())
        validate_covering(p, 3)
        walks, asked = self._count_walks(monkeypatch, p)
        huge = validate_covering(p, 10**18)
        assert walks == [] and asked == []
        assert huge == validate_covering(identity_cover(interval_c()), 10**18)
        assert huge.valid and huge.bound == 10**18

    def test_an_empty_base_walks_once_and_checks_nothing(self, monkeypatch):
        p = identity_cover(PresentedComplex(Graph([], {}), set()))
        assert validate_covering(p, 0).valid
        walks, _ = self._count_walks(monkeypatch, p)
        report = validate_covering(p, 3)
        assert report.valid and walks == []
        assert (report.checked_lifts, report.skipped_lifts, report.witnesses) == (0, 0, ())


def test_cli_text_of_a_large_exponential_audit():
    code, text = run_command([
        "cover-validate", "--exponential", "3", "--window", "12", "--bound", "10",
    ])
    assert code == 0
    assert text.splitlines() == [
        "star condition: ok",
        "controlled lifts: ok (65457 checked, 36868 skipped at the window boundary)",
        "flexible fibres: ok",
        "covering: valid (bound 10)",
    ]
