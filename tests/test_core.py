"""Routes, graphs, membership, reflectors, and classification checks."""
from __future__ import annotations

import itertools

import pytest

from cspace import (
    CompositionError,
    Graph,
    InvalidRouteError,
    PresentedComplex,
    Route,
    StructureError,
    border_flexibility,
    check_lifting_bijection,
    check_middle_restriction,
    exponential_cover,
    has_total_path_support,
    idkey,
    is_border_flexible,
    is_flexible_route,
    is_flexible_space,
    is_preflexible,
    oracle_equivalent,
    path_support,
    pi1,
    preflexibility,
    reflect_bf,
    reflect_dhat,
    reflect_fl,
    reflect_pf,
    route_concat,
    route_insert_dwell,
    validate_covering,
)
from cspace.spaces import diagonal_square, interval_c, line_c, rigid_line


# ---------------------------------------------------------------------------
# routes


class TestRoute:
    def test_constant_routes_discard_dwells(self):
        assert Route("v", "v", (), frozenset({0})).dwells == frozenset()
        assert Route.constant("v").is_constant()
        assert not Route("0", "1", ("e",)).is_constant()

    def test_dwell_positions_are_bounded_by_the_word_length(self):
        Route("0", "1", ("e",), frozenset({0, 1}))
        with pytest.raises(InvalidRouteError):
            Route("0", "1", ("e",), frozenset({2}))
        with pytest.raises(InvalidRouteError):
            Route("0", "1", ("e",), frozenset({-1}))

    def test_concatenation_shifts_the_second_dwell_set(self):
        r1 = Route("0", "1", ("e",), frozenset({1}))
        r2 = Route("1", "2", ("f",), frozenset({0, 1}))
        glued = route_concat(r1, r2)
        assert glued.edges == ("e", "f")
        assert glued.dwells == frozenset({1, 2})
        assert glued.start == "0" and glued.end == "2"

    def test_concatenation_needs_matching_endpoints(self):
        with pytest.raises(CompositionError):
            route_concat(Route("0", "1", ("e",)), Route("2", "3", ("f",)))

    def test_inserting_a_dwell_keeps_the_word(self):
        r = Route("0", "1", ("e",))
        assert route_insert_dwell(r, 0).dwells == frozenset({0})
        with pytest.raises(InvalidRouteError):
            route_insert_dwell(r, 5)

    def test_text_form_lists_word_and_dwells(self):
        assert str(Route("0", "1", ("e",), frozenset({1}))) == "(0;[e];{1})"


class TestGraph:
    def test_rejects_edges_at_unknown_vertices(self):
        with pytest.raises(InvalidRouteError):
            Graph(["0"], {"e": ("0", "q")})

    def test_route_builder_checks_the_walk(self):
        g = Graph(["0", "1"], {"e": ("0", "1")})
        assert g.route("0", ["e"]).end == "1"
        with pytest.raises(InvalidRouteError):
            g.route("1", ["e"])

    def test_word_iteration_includes_the_empty_word(self):
        g = Graph(["0", "1"], {"e": ("0", "1")})
        words = dict(g.iter_words("0", 2))
        assert words == {(): "0", ("e",): "1"}

    def test_restriction_keeps_open_interior_dwells_reindexed(self):
        g = Graph(["0", "1", "2", "3"],
                  {"a": ("0", "1"), "b": ("1", "2"), "c": ("2", "3")})
        r = g.route("0", ["a", "b", "c"], {0, 1, 2, 3})
        cut = g.restrict(r, 1, 3)
        assert cut.edges == ("b", "c")
        assert cut.dwells == frozenset({1})


# ---------------------------------------------------------------------------
# membership over the interval family


def all_dwell_sets(n):
    for k in range(n + 2):
        yield from (frozenset(c) for c in itertools.combinations(range(n + 1), k))


class TestMembership:
    def test_plain_interval_controls_every_decoration(self, ci):
        for dwells in all_dwell_sets(1):
            assert ci.is_controlled(Route("0", "1", ("e",), dwells))
        assert ci.is_controlled(Route.constant("0"))
        assert ci.is_controlled(Route.constant("1"))

    def test_initial_delay_requires_the_starting_dwell(self, delayed_minus):
        X = delayed_minus
        assert X.is_controlled(Route("0", "1", ("e",), frozenset({0})))
        assert X.is_controlled(Route("0", "1", ("e",), frozenset({0, 1})))
        assert not X.is_controlled(Route("0", "1", ("e",)))
        assert not X.is_controlled(Route("0", "1", ("e",), frozenset({1})))

    def test_final_delay_mirrors_the_initial_one(self, delayed_plus):
        X = delayed_plus
        assert X.is_controlled(Route("0", "1", ("e",), frozenset({1})))
        assert not X.is_controlled(Route("0", "1", ("e",), frozenset({0})))

    def test_middle_delay_requires_the_junction_dwell(self, middle_delay):
        X = middle_delay
        ok = Route("0", "1", ("e1", "e2"), frozenset({1}))
        assert X.is_controlled(ok)
        assert not X.is_controlled(ok.strip_dwells())
        assert not X.is_controlled(Route("0", "m", ("e1",), frozenset({0, 1})))
        assert not X.is_controlled(Route.constant("m"))

    def test_two_step_interval_composes_at_the_junction(self, cj):
        for dwells in all_dwell_sets(2):
            assert cj.is_controlled(Route("0", "1", ("e1", "e2"), dwells))
        assert cj.is_controlled(Route.constant("m"))

    def test_rigid_line_admits_no_partial_sweep(self):
        X = rigid_line(2)
        assert X.is_controlled(Route("0", "2", ("e0", "e1")))
        assert X.is_controlled(Route("0", "2", ("e0", "e1"), frozenset({1})))
        assert not X.is_controlled(Route("0", "1", ("e0",)))
        assert not X.is_controlled(Route("1", "2", ("e1",)))
        assert not X.is_controlled(Route.constant("1"))

    def test_flexible_vertices_are_the_generator_endpoints(self, middle_delay):
        assert middle_delay.flexible == frozenset({"0", "1"})
        assert rigid_line(2).flexible == frozenset({"0", "2"})


# ---------------------------------------------------------------------------
# flexibility and the reflectors


class TestFlexibility:
    def test_route_flexibility_needs_all_restrictions_controlled(self, delayed_minus):
        r = Route("0", "1", ("e",), frozenset({0}))
        assert delayed_minus.is_controlled(r)
        assert not is_flexible_route(delayed_minus, r)

    def test_plain_interval_is_a_flexible_space(self, ci, cj):
        assert is_flexible_space(ci)
        assert is_flexible_space(cj)
        assert is_flexible_space(line_c(2))

    def test_delayed_intervals_are_not_flexible(self, delayed_minus, middle_delay):
        assert not is_flexible_space(delayed_minus)
        assert not is_flexible_space(middle_delay)

    def test_flexible_space_verdicts_are_exact_for_every_kind(self, corpus):
        from cspace import (
            enumerate_routes, full_substructure, product, render_id, sum_complex,
        )

        def by_routes(Y, bound):
            return Y.graph.vertices == Y.flexible and all(
                is_flexible_route(Y, r)
                for r in enumerate_routes(Y.graph, bound) if Y.is_controlled(r)
            )

        def named_part(Y, witness):
            """The part a witness names, and what it says fails there."""
            *names, claim = witness.split(": ")
            for name in names:
                Y = getattr(Y, name.split()[0])  # left, right or base
            return Y, claim

        claims = set()
        for name, X in corpus.items():
            kept = full_substructure(X, X.flexible)
            one = full_substructure(X, [min(X.flexible, key=idkey)])
            for Y in (X, kept, one, reflect_fl(X), reflect_pf(X),
                      product(kept, interval_c()), sum_complex(interval_c(), kept),
                      sum_complex(interval_c(), X)):
                witness = Y.flexibility_witness()
                if witness is not None:
                    part, claim = named_part(Y, witness)
                    stiff = {f"vertex {render_id(v)} is not flexible"
                             for v in part.graph.vertices - part.flexible}
                    failing = {f"generator {g} has an uncontrolled restriction"
                               for g in part.generators or ()
                               if not is_flexible_route(part, g)}
                    assert claim in stiff | failing, (name, witness)
                    claims.add(claim.split()[0])
                assert is_flexible_space(Y) == by_routes(Y, 3), (name, Y.describe())
        assert claims == {"vertex", "generator"}


class TestReflectors:
    def test_generated_structure_frees_every_infix(self, middle_delay):
        dhat = reflect_dhat(middle_delay)
        assert dhat.is_controlled(Route("0", "m", ("e1",)))
        assert dhat.is_controlled(Route("0", "1", ("e1", "e2")))
        assert dhat.is_controlled(Route.constant("m"))

    def test_generated_structure_is_literally_idempotent(self, corpus):
        for X in corpus.values():
            once = reflect_dhat(X)
            assert reflect_dhat(once).generators == once.generators

    def test_flexible_part_of_a_delayed_interval_is_discrete(self, delayed_minus):
        fl = reflect_fl(delayed_minus)
        assert fl.flexible == frozenset({"0", "1"})
        assert not fl.is_controlled(Route("0", "1", ("e",), frozenset({0})))
        assert fl.is_controlled(Route.constant("0"))

    def test_flexible_part_of_a_flexible_space_changes_nothing(self, cj):
        fl = reflect_fl(cj)
        for dwells in all_dwell_sets(2):
            r = Route("0", "1", ("e1", "e2"), dwells)
            assert fl.is_controlled(r) == cj.is_controlled(r)

    def test_preflexible_hull_of_initial_delay_is_the_plain_interval(self, delayed_minus, ci):
        pf = reflect_pf(delayed_minus)
        assert oracle_equivalent(pf, ci, 3)
        assert pf.is_controlled(Route("0", "1", ("e",)))

    def test_border_reflection_strips_boundary_dwells(self, delayed_minus, ci):
        bf = reflect_bf(delayed_minus)
        assert oracle_equivalent(bf, ci, 3)

    def test_border_reflection_keeps_interior_dwells(self, middle_delay):
        bf = reflect_bf(middle_delay)
        assert bf.is_controlled(Route("0", "1", ("e1", "e2"), frozenset({1})))
        assert not bf.is_controlled(Route("0", "1", ("e1", "e2")))

    def test_all_reflectors_are_idempotent_on_the_corpus(self, corpus):
        for X in corpus.values():
            for reflect in (reflect_dhat, reflect_fl, reflect_pf, reflect_bf):
                once = reflect(X)
                assert oracle_equivalent(reflect(once), once, 3)


# ---------------------------------------------------------------------------
# classification predicates


class TestClassification:
    def test_preflexibility_of_the_interval_family(self, ci, cj, middle_delay):
        assert is_preflexible(ci, 6)
        assert is_preflexible(cj, 6)
        assert is_preflexible(line_c(2), 6)
        assert is_preflexible(rigid_line(2), 6)
        assert not is_preflexible(middle_delay, 6)

    def test_preflexibility_witness_names_the_uncontrolled_route(self, diag):
        report = preflexibility(diag, 4)
        assert not report.holds
        assert (report.witness.start, report.witness.end) == ("00", "10")

    def test_border_flexibility_fails_on_boundary_delays(self, delayed_minus, delayed_plus):
        report = border_flexibility(delayed_minus)
        assert not report.holds
        assert report.witnesses == (Route("0", "1", ("e",)),)
        assert not is_border_flexible(delayed_plus)

    def test_border_flexibility_holds_for_interior_delays(self, middle_delay, ci):
        assert is_border_flexible(middle_delay)
        assert is_border_flexible(ci)

    def test_path_support_of_the_diagonal_square_misses_the_sides(self, diag):
        verts, edges = path_support(diag)
        assert verts == frozenset({"00", "01", "10", "11", "c"})
        assert edges == frozenset({"a1", "a2", "b1", "b2"})
        assert not has_total_path_support(diag)
        assert has_total_path_support(interval_c())

    def test_middle_restriction_holds_on_preflexible_spaces(self, ci, cj):
        for X in (ci, cj, line_c(2), rigid_line(2)):
            report = check_middle_restriction(X, 4)
            assert report.applicable and report.holds

    def test_middle_restriction_is_not_applicable_without_preflexibility(
        self, middle_delay, diag
    ):
        assert not check_middle_restriction(middle_delay, 4).applicable
        assert not check_middle_restriction(diag, 4).applicable


# ---------------------------------------------------------------------------
# oracle comparison utility


class TestOracleComparison:
    def test_renamed_copies_compare_equal(self, ci):
        g = Graph(["a", "b"], {"x": ("a", "b")})
        Y = PresentedComplex(g, {g.route("a", ["x"])})
        assert oracle_equivalent(ci, Y, 3, {"0": "a", "1": "b"}, {"e": "x"})

    def test_compares_words_without_building_routes(self, ci, monkeypatch):
        g = Graph(["a", "b"], {"x": ("a", "b")})
        Y = PresentedComplex(g, {g.route("a", ["x"])})
        built = []
        monkeypatch.setattr(Route, "__post_init__", lambda self: built.append(self))
        assert oracle_equivalent(ci, Y, 3, {"0": "a", "1": "b"}, {"e": "x"})
        assert built == []

    @pytest.mark.parametrize("x, message", [
        (("b", "a"), "edge x starts at b, route is at a"),
        (("a", "a"), "route ends at a, not b"),
    ])
    def test_an_image_off_the_other_graph_is_named(self, ci, x, message):
        g = Graph(["a", "b"], {"x": x})
        Y = PresentedComplex(g, {g.route(x[0], ["x"]), Route.constant("a"), Route.constant("b")})
        with pytest.raises(InvalidRouteError) as err:
            oracle_equivalent(ci, Y, 3, {"0": "a", "1": "b"}, {"e": "x"})
        assert str(err.value) == message

    def test_different_structures_compare_unequal(self, ci, delayed_minus):
        assert not oracle_equivalent(ci, delayed_minus, 3)

    def test_identifier_ordering_is_numeric_then_lexicographic(self):
        items = ["10", "2", "b", "a", ("L", "e")]
        assert sorted(items, key=idkey) == ["2", "10", "a", "b", ("L", "e")]

    def test_presentations_reject_generators_off_the_graph(self):
        g = Graph(["0", "1"], {"e": ("0", "1")})
        with pytest.raises(InvalidRouteError):
            PresentedComplex(g, {Route("0", "1", ("f",))})

    def test_negative_bounds_are_rejected_everywhere(self, ci):
        for call in (
            lambda: preflexibility(ci, -3),
            lambda: check_middle_restriction(ci, -1),
            lambda: oracle_equivalent(ci, ci, -1),
        ):
            with pytest.raises(StructureError, match="bound must be >= 0"):
                call()

    @pytest.mark.parametrize("bound", [2.5, True])
    def test_bounds_that_are_not_integers_are_rejected_everywhere(self, bound):
        p = exponential_cover(2, 6)
        for call in (
            lambda: pi1(line_c(2), bound),
            lambda: validate_covering(p, bound),
            lambda: preflexibility(line_c(2), bound),
            lambda: check_middle_restriction(line_c(2), bound),
            lambda: check_lifting_bijection(p, "0", "0", bound),
        ):
            with pytest.raises(StructureError, match="bound must be an integer"):
                call()

    def test_structure_errors_name_the_missing_presentation(self, ci, cj):
        from cspace import product

        with pytest.raises(StructureError):
            reflect_dhat(product(ci, cj))


class TestPublicSurface:
    def test_every_package_export_is_exported_by_its_home_module(self):
        import importlib

        import cspace

        modules = [importlib.import_module(f"cspace.{m}")
                   for m in ("core", "spaces", "pi1", "covering", "documents")]
        for name in cspace.__all__:
            obj = getattr(cspace, name)
            home = getattr(obj, "__module__", None)
            if home is None:  # plain data: the one module that holds it
                (home,) = [m.__name__ for m in modules if vars(m).get(name) is obj]
            assert name in importlib.import_module(home).__all__, (name, home)


class TestPackageExports:
    def test_the_package_exports_the_union_of_the_module_exports(self):
        import importlib

        import cspace

        union = [name for m in ("core", "covering", "documents", "pi1", "spaces")
                 for name in importlib.import_module(f"cspace.{m}").__all__]
        assert len(set(union)) == len(union)
        assert sorted(cspace.__all__) == sorted(union)

    def test_the_report_types_import_from_the_package(self):
        from cspace import (
            BorderFlexibilityReport,
            ComparisonFunctors,
            CoveringReport,
            FullnessReport,
            LiftingBijectionReport,
            MiddleRestrictionReport,
            PreflexibilityReport,
            ProductPreservationReport,
            SumPreservationReport,
        )

        for report in (BorderFlexibilityReport, ComparisonFunctors, CoveringReport,
                       FullnessReport, LiftingBijectionReport, MiddleRestrictionReport,
                       PreflexibilityReport, ProductPreservationReport,
                       SumPreservationReport):
            assert report.__module__.startswith("cspace.")
