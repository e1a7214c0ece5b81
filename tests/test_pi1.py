"""Truncated fundamental categories: the worked interval, line, circle,
product, and comparison computations."""
from __future__ import annotations

import dataclasses
import gc
import importlib
import weakref

import pytest

from oracles import brute_pi1_components
from cspace import (
    ArrowClass,
    FundamentalCategory,
    Graph,
    PresentedComplex,
    Route,
    SquareCell,
    StructureError,
    check_fullness,
    check_product_preservation,
    check_sum_preservation,
    circle_n_stop,
    fundamental_monoid,
    hom_classes,
    induced_comparisons,
    interval_c,
    interval_j,
    is_one_simple,
    is_realizable,
    line_c,
    pi1,
    product,
    reflect_fl,
    rigid_line,
    sum_complex,
    symmetrize,
)
from cspace.pi1 import _LabelStore
from cspace.spaces import diagonal_square


class TestIntervalCategories:
    def test_plain_interval_is_the_two_element_order(self, ci):
        cat = pi1(ci, 2)
        assert cat.objects == ("0", "1")
        assert cat.arrow_count == 3
        assert cat.is_preorder()
        assert not cat.possibly_incomplete
        assert [a.rep.edges for a in cat.hom("0", "1")] == [("e",)]

    def test_two_step_interval_is_the_three_element_order(self, cj):
        cat = pi1(cj, 3)
        assert cat.objects == ("0", "1", "m")
        assert cat.arrow_count == 6
        assert cat.is_preorder()
        assert not cat.possibly_incomplete

    def test_delay_decorations_do_not_change_the_class(self, delayed_minus):
        cat = pi1(delayed_minus, 2)
        delayed = cat.class_of(Route("0", "1", ("e",), frozenset({0})))
        extra = cat.class_of(Route("0", "1", ("e",), frozenset({0, 1})))
        assert delayed is not None and delayed == extra

    def test_rigid_interior_vertices_are_not_objects(self):
        cat = pi1(rigid_line(2), 3)
        assert cat.objects == ("0", "2")
        assert cat.arrow_count == 3


class TestLineCategory:
    def test_window_three_matches_the_integer_order(self):
        X = line_c(3)
        cat = pi1(X, 6)
        ks = list(range(-3, 4))
        assert cat.objects == tuple(str(k) for k in ks)
        assert cat.arrow_count == 28
        assert not cat.possibly_incomplete
        for i in ks:
            for j in ks:
                hom = cat.hom(str(i), str(j))
                assert len(hom) == (1 if i <= j else 0)

    def test_short_bound_raises_the_truncation_flag(self):
        cat = pi1(line_c(3), 5)
        assert cat.possibly_incomplete
        assert cat.hom("-3", "3") == ()


class TestCircleCategories:
    def test_one_stop_monoid_is_additive_truncated_counting(self):
        table = fundamental_monoid(circle_n_stop(1), "0", 5)
        assert len(table.classes) == 6
        assert table.identity_index == 0
        assert table.truncated
        for i in range(6):
            for j in range(6):
                want = i + j if i + j <= 5 else None
                assert table.table[i][j] == want
        assert [len(c.rep.edges) for c in table.classes] == list(range(6))

    def test_three_stop_homs_count_lengths_mod_three(self):
        cat = pi1(circle_n_stop(3), 7)
        assert cat.possibly_incomplete
        assert cat.arrow_count == 24
        for i in range(3):
            for j in range(3):
                lengths = sorted(
                    len(a.rep.edges) for a in cat.hom(str(i), str(j))
                )
                want = [n for n in range(8) if n % 3 == (j - i) % 3]
                assert lengths == want, (i, j)

    def test_loop_spaces_are_not_one_simple(self):
        assert not is_one_simple(circle_n_stop(1), 4)
        assert is_one_simple(interval_j(), 4)


class TestComposition:
    def test_composition_is_diagrammatic_concatenation(self, cj):
        cat = pi1(cj, 3)
        first = cat.class_of(Route("0", "m", ("e1",)))
        second = cat.class_of(Route("m", "1", ("e2",)))
        both = cat.compose(first, second)
        assert both == cat.class_of(Route("0", "1", ("e1", "e2")))

    def test_identities_are_neutral(self, cj):
        cat = pi1(cj, 3)
        walk = cat.class_of(Route("0", "m", ("e1",)))
        assert cat.compose(cat.identity("0"), walk) == walk
        assert cat.compose(walk, cat.identity("m")) == walk

    def test_composition_past_the_bound_is_unknown(self):
        cat = pi1(circle_n_stop(1), 3)
        loop3 = cat.class_of(Route("0", "0", ("e0",) * 3))
        loop1 = cat.class_of(Route("0", "0", ("e0",)))
        assert cat.compose(loop3, loop1) is None

    def test_mismatched_endpoints_cannot_compose(self, cj):
        from cspace import CompositionError

        cat = pi1(cj, 3)
        walk = cat.class_of(Route("0", "m", ("e1",)))
        with pytest.raises(CompositionError):
            cat.compose(walk, walk)

    def test_errors_render_vertex_ids_like_every_other_vertex_error(self):
        from cspace import CompositionError, interval_middle_delay

        with pytest.raises(StructureError) as err:
            pi1(interval_middle_delay(), 3).identity("m")
        assert str(err.value) == "no identity at m: vertex is not an object"
        cat = pi1(product(interval_c(), interval_c()), 3)
        step = cat.class_of(Route(("0", "0"), ("1", "0"), (("L", "e", "0"),)))
        with pytest.raises(CompositionError) as err:
            cat.compose(step, step)
        assert str(err.value) == (
            "cannot compose: first arrow ends at (1,0), second starts at (0,0)")


class TestRealizability:
    def test_words_realize_when_their_fullest_decoration_is_controlled(
        self, middle_delay
    ):
        assert is_realizable(middle_delay, "0", ("e1", "e2"))
        assert not is_realizable(middle_delay, "0", ("e1",))

    def test_hom_classes_need_flexible_endpoints(self, middle_delay):
        with pytest.raises(StructureError):
            hom_classes(middle_delay, "0", "m", 3)


class TestComparisons:
    def test_flexible_space_comparisons_are_isomorphisms(self, cj):
        comp = induced_comparisons(cj, 3)
        assert comp.first_functorial and comp.second_functorial
        assert comp.second_full and comp.second_faithful
        assert len(comp.first_arrow_map) == comp.flexible_part.arrow_count
        assert comp.whole.arrow_count == comp.generated.arrow_count == 6

    def test_diagonal_square_comparison_is_not_full(self, diag):
        comp = induced_comparisons(diag, 4)
        assert comp.second_functorial
        assert not comp.second_full
        pairs = {(x, y) for x, y, _ in comp.non_fullness}
        assert pairs == {("00", "10"), ("01", "11")}

    def test_restriction_to_interval_ends_is_full_and_faithful(self, cj):
        report = check_fullness(cj, ["0", "1"], 3)
        assert report.full and report.faithful

    def test_diagonal_square_corner_restriction_stays_full(self, diag):
        report = check_fullness(diag, ["00", "11"], 4)
        assert report.full and report.faithful


class TestProductPreservation:
    def test_square_of_intervals_merges_the_two_staircases(self, ci):
        P = product(ci, ci)
        cat = pi1(P, 4)
        assert len(cat.hom(("0", "0"), ("1", "1"))) == 1
        report = check_product_preservation(ci, ci, 4)
        assert report.objects_bijective and report.homs_bijective
        assert report.product_objects == 4
        assert report.product_arrows == 9

    def test_interval_times_two_step_interval(self, ci, cj):
        report = check_product_preservation(ci, cj, 5)
        assert bool(report)
        assert report.product_objects == 6
        assert report.product_arrows == 18

    def test_two_step_square(self, cj):
        report = check_product_preservation(cj, cj, 5)
        assert bool(report)
        assert report.product_objects == 9
        assert report.product_arrows == 36

    def test_line_window_two_square(self):
        X = line_c(2)
        report = check_product_preservation(X, X, 8)
        assert bool(report)
        assert report.product_objects == 25
        assert report.product_arrows == 225


class TestSumPreservation:
    def test_sum_splits_into_the_factor_categories(self, ci, cj):
        report = check_sum_preservation(ci, cj, 3)
        assert report.objects_bijective and report.homs_bijective

    def test_sum_category_size_adds_up(self, ci, cj):
        cat = pi1(sum_complex(ci, cj), 3)
        assert cat.arrow_count == 9


class TestClassesLeavingAFactorCategory:
    """A class with a label outside the factor category is reported once,
    as leaving it, whichever of its labels is read first."""

    @pytest.fixture()
    def empty_j(self, monkeypatch):
        Y = interval_j()
        module = importlib.import_module("cspace.pi1")
        real = module.pi1
        monkeypatch.setattr(module, "pi1", lambda X, b: (
            FundamentalCategory(Y.flexible, [], b, False) if X is Y else real(X, b)))
        return Y

    def test_product_preservation(self, ci, empty_j):
        report = check_product_preservation(ci, empty_j, 3)
        assert not report.homs_bijective
        assert report.product_arrows == len(report.mismatches) == 18
        assert all(m.startswith("projection of [") and m.endswith(
            "] leaves the factor category") for m in report.mismatches)

    def test_sum_preservation(self, ci, empty_j):
        report = check_sum_preservation(ci, empty_j, 3)
        assert not report.homs_bijective
        assert len(report.mismatches) == 6
        assert all(m.startswith("untagging of [((R,") and m.endswith(
            "] leaves the factor category") for m in report.mismatches)


class TestClassesDisagreeingAcrossTheirLabels:
    """A factor with two parallel edges joined by a cell, given a category
    with one class per label: a class joining both edges' labels has
    images that disagree, and is reported once, as disagreeing."""

    @pytest.fixture()
    def split_y(self, monkeypatch):
        g = Graph({"0", "1"}, {"a": ("0", "1"), "b": ("0", "1")})
        a, b = g.route("0", ["a"]), g.route("0", ["b"])
        Y = PresentedComplex(g, {a, b}, [SquareCell(a, b)])
        module = importlib.import_module("cspace.pi1")
        real = module.pi1

        def split(X, bound):
            cat = real(X, bound)
            if X is not Y:
                return cat
            labelled = [(c, lab) for c in cat.arrows for lab in sorted(c.labels)]
            return FundamentalCategory(Y.flexible, [
                ArrowClass(i, c.source, c.target, Route(c.source, c.target, lab[1]),
                           frozenset({lab}))
                for i, (c, lab) in enumerate(labelled)], bound, False)

        monkeypatch.setattr(module, "pi1", split)
        return Y

    def test_the_split_category_parts_the_parallel_edges(self, split_y):
        module = importlib.import_module("cspace.pi1")
        assert len(pi1(split_y, 3).hom("0", "1")) == 1
        assert len(module.pi1(split_y, 3).hom("0", "1")) == 2

    def test_product_preservation(self, ci, split_y):
        P = product(ci, split_y)
        joined = [c for c in pi1(P, 3).arrows if len(
            {P.project_right(Route(s, c.target, w)).edges for s, w in c.labels}) > 1]
        assert len(joined) == 3
        report = check_product_preservation(ci, split_y, 3)
        assert not report.homs_bijective
        disagree = [m for m in report.mismatches if "disagree" in m]
        assert sorted(disagree) == sorted(
            f"projections of {c} disagree across its labels" for c in joined)
        assert not any("leaves" in m for m in report.mismatches)

    def test_sum_preservation(self, ci, split_y):
        joined = pi1(sum_complex(ci, split_y), 3).hom(("R", "0"), ("R", "1"))
        assert len(joined) == 1
        report = check_sum_preservation(ci, split_y, 3)
        assert not report.homs_bijective
        assert report.mismatches == (
            f"untaggings of {joined[0]} disagree across its labels",
            "untagged classes do not pair off with the factors",
        )


class TestSymmetrizedCategories:
    def test_symmetrized_interval_identifies_back_and_forth(self, ci):
        S = symmetrize(ci)
        cat = pi1(S, 4)
        loop = cat.class_of(Route("0", "0", ("e", "e~")))
        assert loop == cat.identity("0")

    def test_symmetrized_circle_counts_winding_in_both_directions(self):
        S = symmetrize(circle_n_stop(1))
        table = fundamental_monoid(S, "0", 4)
        assert len(table.classes) == 9
        windings = sorted(
            len([e for e in c.rep.edges if e == "e0"])
            - len([e for e in c.rep.edges if e != "e0"])
            for c in table.classes
        )
        assert windings == list(range(-4, 5))


def _free_complex(edges, cells):
    """Every edge a free generator, with the given cells (pairs of
    (start, end, word) sides)."""
    vertices = {v for ends in edges.values() for v in ends}
    g = Graph(vertices, edges)
    gens = {g.route(s, [e]) for e, (s, _) in edges.items()}
    return PresentedComplex(g, gens, [
        SquareCell(Route(s, t, left), Route(s, t, right)) for s, t, left, right in cells
    ])


def _classes(cat):
    return {a.labels for a in cat.arrows}


def _words(cat, start, end):
    return {frozenset(w for _, w in a.labels) for a in cat.hom(start, end)}


class TestCellMoves:
    def test_two_cells_sharing_one_side(self):
        X = _free_complex(
            {"a": ("0", "1"), "b": ("0", "1"), "c": ("0", "1")},
            [("0", "1", ("a",), ("b",)), ("0", "1", ("a",), ("c",))],
        )
        cat = pi1(X, 2)
        assert _classes(cat) == brute_pi1_components(X, 2)
        assert _words(cat, "0", "1") == {frozenset({("a",), ("b",), ("c",)})}

    def test_a_side_occurring_twice_in_one_label(self):
        # (e, e) sits twice in (e, e, e), overlapping; only the second
        # occurrence leads to (e, g)
        X = _free_complex(
            {"e": ("0", "0"), "g": ("0", "0")}, [("0", "0", ("e", "e"), ("g",))]
        )
        cat = pi1(X, 3)
        assert _classes(cat) == brute_pi1_components(X, 3)
        joined = cat.class_of_label("0", ("e", "e", "e"))
        assert joined.labels == {("0", ("e", "e", "e")), ("0", ("g", "e")), ("0", ("e", "g"))}

    def test_an_empty_side_is_inserted_at_both_ends_of_a_label(self):
        # the cancellation cell sits at 1 only, the end of (e) and the
        # start of (r)
        X = _free_complex(
            {"e": ("0", "1"), "r": ("1", "0")}, [("1", "1", ("r", "e"), ())]
        )
        cat = pi1(X, 3)
        assert _classes(cat) == brute_pi1_components(X, 3)
        assert cat.class_of_label("0", ("e", "r", "e")) == cat.class_of_label("0", ("e",))
        assert cat.class_of_label("1", ("r", "e", "r")) == cat.class_of_label("1", ("r",))
        assert cat.class_of_label("0", ("e", "r")) != cat.identity("0")

    def test_a_move_past_the_bound_is_not_applied(self):
        X = _free_complex(
            {"e": ("0", "1"), "f": ("0", "m"), "g": ("m", "1")},
            [("0", "1", ("e",), ("f", "g"))],
        )
        short, long = pi1(X, 1), pi1(X, 2)
        assert _classes(short) == brute_pi1_components(X, 1)
        assert _classes(long) == brute_pi1_components(X, 2)
        assert _words(short, "0", "1") == {frozenset({("e",)})}
        assert _words(long, "0", "1") == {frozenset({("e",), ("f", "g")})}

    def test_labels_joined_only_past_the_bound_stay_apart_below_it(self):
        # (a) and (b) meet only through (f, g); asked at 2 first, the
        # store holds (f, g) when bound 1 is answered from it
        X = _free_complex(
            {"a": ("0", "1"), "b": ("0", "1"), "f": ("0", "m"), "g": ("m", "1")},
            [("0", "1", ("a",), ("f", "g")), ("0", "1", ("b",), ("f", "g"))],
        )
        long, short = pi1(X, 2), pi1(X, 1)
        assert _classes(long) == brute_pi1_components(X, 2)
        assert _classes(short) == brute_pi1_components(X, 1)
        assert _words(long, "0", "1") == {frozenset({("a",), ("b",), ("f", "g")})}
        assert _words(short, "0", "1") == {frozenset({("a",)}), frozenset({("b",)})}


def _prodpres(X, bound):
    return check_product_preservation(X, X, bound)


# (audit, how to build its base): a symmetrized circle is a flexible
# space, so its flexible part reads its store; the diagonal square is not
# full; a product of lines repeats factor words across product words
KEPT_CASES = {
    "induced-symmetrized-circle": (induced_comparisons, lambda: symmetrize(circle_n_stop(1))),
    "induced-diagonal-square": (induced_comparisons, diagonal_square),
    "prodpres-line": (_prodpres, lambda: line_c(1)),
    "prodpres-circle": (_prodpres, lambda: circle_n_stop(1)),
}


def _fields(report):
    """A report's fields, each category read as its objects, bound, flag
    and arrow classes."""
    def plain(value):
        if isinstance(value, FundamentalCategory):
            return (value.objects, value.bound, value.possibly_incomplete, value.arrows)
        return value
    return {f.name: plain(getattr(report, f.name)) for f in dataclasses.fields(report)}


def _count_stores(monkeypatch):
    """Count the label stores built from now on."""
    built = []
    real = _LabelStore.__init__

    def counted(self, X, bound, longest):
        built.append(X)
        real(self, X, bound, longest)

    monkeypatch.setattr(_LabelStore, "__init__", counted)
    return built


class TestKeptComplexes:
    """A base keeps the complexes its comparison and product audits derive
    from it, so repeated audits read warm label stores; the answers are
    those of fresh objects."""

    @pytest.mark.parametrize("name", sorted(KEPT_CASES))
    def test_a_second_audit_walks_no_word(self, name, monkeypatch):
        audit, build = KEPT_CASES[name]
        X = build()
        audit(X, 5)

        def refuse(*args, **kwargs):
            raise AssertionError("a repeated audit built a label store")

        monkeypatch.setattr(_LabelStore, "__init__", refuse)
        audit(X, 5)
        audit(X, 3)

    @pytest.mark.parametrize("name", sorted(KEPT_CASES))
    def test_audits_on_one_base_equal_audits_on_fresh_objects(self, name):
        audit, build = KEPT_CASES[name]
        X = build()
        for bound in (6, 4, 9, 4):
            assert _fields(audit(X, bound)) == _fields(audit(build(), bound)), bound

    def test_a_new_right_factor_replaces_the_kept_product(self, monkeypatch):
        X, Y, Z = line_c(1), interval_c(), interval_j()
        for factor in (X, Y, Z):
            pi1(factor, 4)
        built = _count_stores(monkeypatch)
        check_product_preservation(X, Y, 4)
        check_product_preservation(X, Y, 4)
        assert len(built) == 1
        report = check_product_preservation(X, Z, 4)
        assert len(built) == 2
        assert [part.recipe()[1] for part in built] == [(X, Y), (X, Z)]
        assert report == check_product_preservation(line_c(1), interval_j(), 4)
        built.clear()
        check_product_preservation(X, Y, 4)
        assert [part.recipe()[1] for part in built] == [(X, Y)]
        assert len(X._derived) == 1

    def test_a_base_and_what_it_keeps_are_collected_together(self):
        X = symmetrize(circle_n_stop(1))
        induced_comparisons(X, 4)
        check_product_preservation(X, line_c(1), 4)
        kept = [weakref.ref(part) for _, part in X._derived.values()]
        assert len(kept) == 3
        kept.append(weakref.ref(X))
        del X
        gc.collect()
        assert [ref() for ref in kept] == [None] * 4

    def test_a_complex_without_generators_raises_every_time_and_keeps_nothing(self):
        X = product(interval_c(), interval_c())
        for _ in range(2):
            with pytest.raises(StructureError):
                induced_comparisons(X, 3)
        assert X._derived == {}


def _count_decisions(monkeypatch):
    """Count the audits decided from now on: deciding a comparison audit
    checks fullness once, and deciding a product audit reads the product's
    classes once."""
    module = importlib.import_module("cspace.pi1")
    decided = []
    for name in ("_hom_image_check", "_class_images"):
        def counted(*args, _real=getattr(module, name), _name=name):
            decided.append(_name)
            return _real(*args)

        monkeypatch.setattr(module, name, counted)
    return decided


class TestDecidedAudits:
    """An audit is decided once per label store and bound; later calls at
    that bound read the kept result, which equals an audit of fresh
    objects."""

    @pytest.mark.parametrize("name", sorted(KEPT_CASES))
    def test_a_repeated_audit_decides_nothing(self, name, monkeypatch):
        audit, build = KEPT_CASES[name]
        X = build()
        first = _fields(audit(X, 5))
        module = importlib.import_module("cspace.pi1")

        def refuse(*args, **kwargs):
            raise AssertionError("a repeated audit was decided again")

        with monkeypatch.context() as patched:
            for helper in ("_arrow_map", "_class_images", "_hom_image_check"):
                patched.setattr(module, helper, refuse)
            assert _fields(audit(X, 5)) == first
        # a larger bound rebuilds the stores of X and of what X keeps, and
        # a rebuilt store has decided nothing
        for part in [X, *(kept for _, kept in X._derived.values())]:
            pi1(part, 9)
        fresh = _fields(audit(build(), 5))
        decisions = _count_decisions(monkeypatch)
        assert _fields(audit(X, 5)) == fresh
        assert _fields(audit(X, 5)) == fresh
        assert len(decisions) == 1

    def test_the_flexible_part_keeps_its_own_results(self):
        # the flexible part of a flexible space shares its base's labels,
        # but it is another complex: it has no generator presentation, so
        # its comparison audit raises where its base's has an answer
        X = symmetrize(circle_n_stop(1))
        want = _fields(induced_comparisons(symmetrize(circle_n_stop(1)), 5))
        assert _fields(induced_comparisons(X, 5)) == want
        part = reflect_fl(X)
        for _ in range(2):
            with pytest.raises(StructureError):
                induced_comparisons(part, 5)
        assert pi1(part, 5)._store.labels is pi1(X, 5)._store.labels
        assert pi1(part, 5)._store.decided == {}
        assert list(pi1(X, 5)._store.decided) == [(induced_comparisons, 5)]
        assert _fields(induced_comparisons(X, 5)) == want

    def test_a_returned_arrow_map_is_the_callers_own(self):
        X = symmetrize(circle_n_stop(1))
        want = _fields(induced_comparisons(symmetrize(circle_n_stop(1)), 4))
        for _ in range(2):
            got = induced_comparisons(X, 4)
            assert _fields(got) == want
            got.first_arrow_map.clear()
            got.second_arrow_map[0] = -1
        assert _fields(induced_comparisons(X, 4)) == want

    def test_a_monoid_table_is_kept_per_bound_and_basepoint(self):
        X = symmetrize(circle_n_stop(2))
        table = fundamental_monoid(X, "0", 6)
        assert fundamental_monoid(X, "0", 6) is table
        assert fundamental_monoid(X, "1", 6) is not table
        assert fundamental_monoid(X, "0", 5) is not table
        for x, bound in (("0", 6), ("1", 6), ("0", 5)):
            fresh = fundamental_monoid(symmetrize(circle_n_stop(2)), x, bound)
            assert fundamental_monoid(X, x, bound) == fresh
        # the flexible part shares X's labels but keeps its own tables
        part = reflect_fl(X)
        assert fundamental_monoid(part, "0", 6) is not table
        assert fundamental_monoid(part, "0", 6) == table
        assert pi1(X, 6) is not pi1(X, 6)

    def test_a_monoid_call_that_raises_keeps_nothing(self, monkeypatch):
        X = rigid_line(2)
        with pytest.raises(StructureError):
            fundamental_monoid(X, "1", 3)
        assert pi1(X, 3)._store.decided == {}

        def fail(*args, **kwargs):
            raise RuntimeError("interrupted")

        with monkeypatch.context() as patched:
            patched.setattr(FundamentalCategory, "compose", fail)
            with pytest.raises(RuntimeError):
                fundamental_monoid(X, "0", 3)
        assert pi1(X, 3)._store.decided == {}
        assert fundamental_monoid(X, "0", 3) == fundamental_monoid(rigid_line(2), "0", 3)

    def test_an_audit_that_raises_decides_nothing(self, monkeypatch):
        X = product(interval_c(), interval_c())
        with pytest.raises(StructureError):
            induced_comparisons(X, 3)
        assert pi1(X, 3)._store.decided == {}
        module = importlib.import_module("cspace.pi1")

        def fail(*args, **kwargs):
            raise RuntimeError("interrupted")

        for name, (audit, build) in sorted(KEPT_CASES.items()):
            X = build()
            with monkeypatch.context() as patched:
                for helper in ("_class_images", "_hom_image_check"):
                    patched.setattr(module, helper, fail)
                with pytest.raises(RuntimeError):
                    audit(X, 4)
            stores = [X, *(kept for _, kept in X._derived.values())]
            assert [pi1(part, 4)._store.decided for part in stores] == [{}] * len(stores), name
            assert _fields(audit(X, 4)) == _fields(audit(build(), 4)), name
