"""Invariant checks on randomized small instances and the corpus.

The acceptance module re-runs the core agreement suites at higher volume;
these tests cover additional algebraic laws at a faster setting.
"""
from __future__ import annotations

import functools

import pytest
from hypothesis import given

from conftest import build_corpus
from oracles import brute_pi1_components, brute_route_table
from strategies import complexes_with_route, presented_complexes, routes_on
from cspace import (
    ArrowClass,
    FundamentalCategory,
    Route,
    check_middle_restriction,
    circle_n_stop,
    enumerate_routes,
    enumerate_words,
    full_substructure,
    idkey,
    is_flexible_route,
    line_c,
    max_decoration,
    minimal_dwell_sets,
    oracle_equivalent,
    path_support,
    pi1,
    preflexibility,
    product,
    reflect_bf,
    reflect_dhat,
    reflect_fl,
    reflect_pf,
    route_concat,
    route_insert_dwell,
)
from cspace.core import MiddleRestrictionReport, PreflexibilityReport
from cspace.pi1 import _support_truncated
from cspace.spaces import (
    interval_c,
    interval_delayed_minus,
    interval_delayed_plus,
    interval_j,
    interval_middle_delay,
    opposite,
    sum_complex,
    symmetrize,
)


def _walk_and_ask_preflexibility(X, bound):
    """Preflexibility by walking every graph word and asking the
    materialized generated d-space about each."""
    dhat = reflect_dhat(X)
    for start in sorted(X.flexible, key=idkey):
        for word, end in X.graph.iter_words(start, bound):
            if not word or end not in X.flexible:
                continue
            r = Route(start, end, word)
            if dhat.is_controlled(r) and not X.is_controlled(r):
                return PreflexibilityReport(False, bound, r)
    return PreflexibilityReport(True, bound)


def _walk_and_ask_middle_restriction(X, bound):
    """Middle restriction with the prolongations walked per target vertex
    (cached, so only one walk per vertex and direction)."""
    if not _walk_and_ask_preflexibility(X, bound).holds:
        return MiddleRestrictionReport(False, False, bound, 0, ())
    dhat = reflect_dhat(X)

    def in_dhat(start, word, end):
        return dhat.is_controlled(Route(start, end, word))

    def dwelled(start, word, end):
        return Route(start, end, word, frozenset(range(len(word) + 1)))

    @functools.cache
    def words_into(v):
        out = [Route.constant(v)] if v in X.flexible else []
        for start in sorted(X.flexible, key=idkey):
            for word, end in X.graph.iter_words(start, bound):
                if word and end == v and in_dhat(start, word, end):
                    out.append(dwelled(start, word, end))
        return out

    @functools.cache
    def words_from(v):
        out = [Route.constant(v)] if v in X.flexible else []
        for word, end in X.graph.iter_words(v, bound):
            if word and end in X.flexible and in_dhat(v, word, end):
                out.append(dwelled(v, word, end))
        return out

    targets = [Route.constant(v) for v in sorted(path_support(X)[0], key=idkey)]
    for start in sorted(X.graph.vertices, key=idkey):
        for word, end in X.graph.iter_words(start, bound):
            if word and in_dhat(start, word, end):
                targets.append(Route(start, end, word))
    witnesses = []
    for r in targets:
        found = next(
            ((b1, r, b2) for b1 in words_into(r.start) for b2 in words_from(r.end)
             if X.is_controlled(route_concat(route_concat(b1, r), b2))),
            None,
        )
        if found is None:
            return MiddleRestrictionReport(
                True, False, bound, len(targets), tuple(witnesses), r
            )
        witnesses.append(found)
    return MiddleRestrictionReport(True, True, bound, len(targets), tuple(witnesses))


class TestClosureLaws:
    @given(complexes_with_route(max_len=4))
    def test_endpoint_constants_of_controlled_routes_are_controlled(self, xr):
        X, r = xr
        if X.is_controlled(r):
            assert X.is_controlled(Route.constant(r.start))
            assert X.is_controlled(Route.constant(r.end))

    @given(complexes_with_route(max_len=3))
    def test_dwell_insertion_preserves_membership(self, xr):
        X, r = xr
        if X.is_controlled(r):
            for pos in range(len(r.edges) + 1):
                assert X.is_controlled(route_insert_dwell(r, pos))

    @given(presented_complexes())
    def test_concatenation_preserves_membership(self, X):
        routes = [r for r in enumerate_routes(X.graph, 2) if X.is_controlled(r)]
        for r1 in routes[:12]:
            for r2 in routes[:12]:
                if r1.end == r2.start:
                    assert X.is_controlled(route_concat(r1, r2))

    def test_concatenation_is_associative_on_the_corpus(self):
        for X in build_corpus().values():
            routes = [r for r in enumerate_routes(X.graph, 2) if X.is_controlled(r)]
            for r1 in routes[:8]:
                for r2 in routes[:8]:
                    if r1.end != r2.start:
                        continue
                    for r3 in routes[:8]:
                        if r2.end != r3.start:
                            continue
                        assert route_concat(route_concat(r1, r2), r3) == (
                            route_concat(r1, route_concat(r2, r3))
                        )


class TestReflectorOrdering:
    @given(complexes_with_route(max_len=4))
    def test_reflections_only_widen_or_narrow_as_specified(self, xr):
        X, r = xr
        fl = reflect_fl(X)
        bf = reflect_bf(X)
        dhat = reflect_dhat(X)
        pf = reflect_pf(X)
        lives_in_fl = {r.start, r.end}.issubset(fl.graph.vertices) and all(
            fl.graph.has_edge(e) for e in r.edges
        )
        if lives_in_fl and fl.is_controlled(r):
            assert X.is_controlled(r)
        if X.is_controlled(r):
            assert bf.is_controlled(r)
            assert pf.is_controlled(r)
            assert dhat.is_controlled(r)
        if bf.is_controlled(r) or pf.is_controlled(r):
            assert dhat.is_controlled(r)

    @given(complexes_with_route(max_len=4))
    def test_border_reflection_does_not_change_the_generated_structure(self, xr):
        X, r = xr
        assert reflect_dhat(reflect_bf(X)).is_controlled(r) == (
            reflect_dhat(X).is_controlled(r)
        )

    @given(presented_complexes(max_edges=3))
    def test_reflectors_are_idempotent_on_random_instances(self, X):
        for reflect in (reflect_dhat, reflect_fl, reflect_pf, reflect_bf):
            once = reflect(X)
            assert oracle_equivalent(reflect(once), once, 3)


class TestGeneratedSpaceWalk:
    """The bounded checks walk the generator edges instead of asking
    ``reflect_dhat``; these are the facts and the equivalence that rest on."""

    @given(complexes_with_route(max_len=4))
    def test_generated_space_controls_exactly_the_generator_edge_routes(self, xr):
        X, r = xr
        used = {e for g in X.generators for e in g.edges}
        assert reflect_dhat(X).is_controlled(r) == all(e in used for e in r.edges)

    @given(complexes_with_route(max_len=4))
    def test_preflexible_hull_is_the_generated_space_between_flexible_ends(self, xr):
        X, r = xr
        ends_flexible = {r.start, r.end} <= X.flexible
        assert reflect_pf(X).is_controlled(r) == (
            ends_flexible and reflect_dhat(X).is_controlled(r)
        )

    @given(presented_complexes(max_edges=3))
    def test_reports_match_walking_the_graph_and_asking_the_generated_space(self, X):
        for Y in (X, reflect_dhat(X), symmetrize(X)):
            assert preflexibility(Y, 3) == _walk_and_ask_preflexibility(Y, 3)
            assert check_middle_restriction(Y, 3) == _walk_and_ask_middle_restriction(Y, 3)

    def test_middle_restriction_reports_match_on_the_corpus(self):
        for name, X in build_corpus().items():
            assert check_middle_restriction(X, 4) == (
                _walk_and_ask_middle_restriction(X, 4)
            ), name


class TestCategoryLaws:
    @given(presented_complexes(max_edges=3))
    def test_composition_associates_within_the_bound(self, X):
        cat = pi1(X, 6)
        small = [a for a in cat.arrows if len(a.rep.edges) <= 2][:10]
        for a in small:
            for b in small:
                if a.target != b.source:
                    continue
                ab = cat.compose(a, b)
                for c in small:
                    if b.target != c.source:
                        continue
                    bc = cat.compose(b, c)
                    if ab is not None and bc is not None:
                        left = cat.compose(ab, c)
                        right = cat.compose(a, bc)
                        if left is not None and right is not None:
                            assert left == right

    @given(presented_complexes(max_edges=3))
    def test_identities_are_neutral_for_every_arrow(self, X):
        cat = pi1(X, 4)
        for a in cat.arrows:
            assert cat.compose(cat.identity(a.source), a) == a
            assert cat.compose(a, cat.identity(a.target)) == a

    @given(complexes_with_route(max_len=4))
    def test_controlled_routes_realize_their_erased_label(self, xr):
        X, r = xr
        cat = pi1(X, 4)
        if X.is_controlled(r) and len(r.edges) <= 4:
            cls = cat.class_of(r)
            assert cls is not None
            assert cls == cat.class_of(r.strip_dwells()) or not X.is_controlled(
                r.strip_dwells()
            )


class TestDuality:
    @given(complexes_with_route(max_len=4))
    def test_opposite_controls_exactly_the_reversed_routes(self, xr):
        X, r = xr
        op = opposite(X)
        n = len(r.edges)
        reverse = Route(
            r.end, r.start, tuple(reversed(r.edges)),
            frozenset(n - d for d in r.dwells),
        )
        assert X.is_controlled(r) == op.is_controlled(reverse)

    @given(presented_complexes(max_edges=3))
    def test_opposite_category_transposes_hom_sets(self, X):
        cat = pi1(X, 4)
        cat_op = pi1(opposite(X), 4)
        assert set(cat.objects) == set(cat_op.objects)
        for x in cat.objects:
            for y in cat.objects:
                assert len(cat.hom(x, y)) == len(cat_op.hom(y, x))


class TestProductLaws:
    @given(routes_on(product(interval_c(), interval_j()), max_len=4))
    def test_membership_in_a_product_is_componentwise(self, r):
        P = product(interval_c(), interval_j())
        both = P.project_left(r), P.project_right(r)
        assert P.is_controlled(r) == (
            interval_c().is_controlled(both[0])
            and interval_j().is_controlled(both[1])
        )

    def test_product_generated_structure_matches_factorwise_words(self):
        for left, right in ((interval_c(), interval_c()), (interval_c(), interval_j())):
            P = product(left, right)
            dh_left, dh_right = reflect_dhat(left), reflect_dhat(right)
            for r in enumerate_routes(P.graph, 4, all_dwell_sets=False):
                want = dh_left.is_controlled(
                    P.project_left(r).strip_dwells()
                ) and dh_right.is_controlled(P.project_right(r).strip_dwells())
                got = P.is_controlled(
                    Route(r.start, r.end, r.edges, frozenset(range(len(r.edges) + 1)))
                )
                assert got == want


class TestOracleAgreementFast:
    def test_saturation_oracle_matches_the_literal_closure(self):
        from oracles import brute_is_controlled, literal_closure
        from cspace.spaces import (
            interval_delayed_minus,
            interval_middle_delay,
            rigid_line,
        )

        for X in (
            interval_j(),
            interval_delayed_minus(),
            interval_middle_delay(),
            rigid_line(2),
        ):
            literal = literal_closure(X, 3)
            table = brute_route_table(X, 3)
            for r in enumerate_routes(X.graph, 3):
                assert brute_is_controlled(table, r) == (r in literal), r

    @given(complexes_with_route(max_len=5))
    def test_membership_matches_the_saturation_oracle(self, xr):
        X, r = xr
        table = brute_route_table(X, 5)
        from oracles import brute_is_controlled

        assert X.is_controlled(r) == brute_is_controlled(table, r)

    @given(presented_complexes())
    def test_arrow_partitions_match_the_rewrite_closure(self, X):
        from oracles import brute_pi1_components

        cat = pi1(X, 4)
        assert {a.labels for a in cat.arrows} == brute_pi1_components(X, 4)


def _every_kind(X):
    """X and each construction kind built on it: flexible part,
    preflexible hull, full substructures, a sum and products whose other
    side needs a dwell."""
    flex = sorted(X.flexible, key=idkey)
    return {"presented": X, "fl": reflect_fl(X), "pf": reflect_pf(X),
            "restrict-all": full_substructure(X, flex),
            "restrict-first": full_substructure(X, flex[:1]),
            "sum": sum_complex(X, full_substructure(interval_delayed_plus(), ["0", "1"])),
            "product": product(X, interval_delayed_plus()),
            "product-fl": product(interval_delayed_minus(), reflect_fl(X))}


class TestMinimalDwellSets:
    @given(presented_complexes())
    def test_presented_antichains_match_the_saturation_oracle(self, X):
        table = brute_route_table(X, 4)
        for start, word, _ in enumerate_words(X.graph, 4):
            assert minimal_dwell_sets(X, start, word) == table.get((start, word), set())

    def test_every_kind_controls_exactly_the_up_set_of_its_antichains(self):
        for name, C in build_corpus().items():
            for kind, X in _every_kind(C).items():
                needs = {}
                for r in enumerate_routes(X.graph, 3):
                    key = (r.start, r.edges)
                    if key not in needs:
                        needs[key] = minimal_dwell_sets(X, r.start, r.edges)
                    expected = any(a <= r.dwells for a in needs[key])
                    assert X.is_controlled(r) == expected, (name, kind, r)

    def test_antichains_are_minimal_and_canonical(self):
        X = product(interval_middle_delay(), interval_delayed_plus())
        for start, word, _ in enumerate_words(X.graph, 3):
            sets = minimal_dwell_sets(X, start, word)
            assert all(not a < b for a in sets for b in sets)
        g = interval_middle_delay()
        assert minimal_dwell_sets(g, "0", ("e1", "e2")) == {frozenset({1})}
        assert minimal_dwell_sets(g, "0", ("e1",)) == frozenset()
        assert minimal_dwell_sets(g, "0", ()) == {frozenset()}
        assert minimal_dwell_sets(g, "m", ()) == frozenset()


def _scan_pi1(X, bound):
    """pi1 by walking words and asking ``is_controlled`` of each maximal
    decoration, scanning every cell side at every position of every
    label, and ordering words by their ``idkey`` tuples."""
    labels = {}
    for x in sorted(X.flexible, key=idkey):
        for word, end in X.graph.iter_words(x, bound):
            if X.is_controlled(max_decoration(x, end, word)):
                labels[(x, word)] = end
    parent = {lab: lab for lab in labels}

    def find(lab):
        while parent[lab] != lab:
            lab = parent[lab]
        return lab

    sides = [(c.left, c.right) for c in X.cells] + [(c.right, c.left) for c in X.cells]
    for start, word in labels:
        chain = [start] + [X.graph.dst(e) for e in word]
        for old, new in sides:
            k = len(old.edges)
            if len(word) - k + len(new.edges) > bound:
                continue
            for i in range(len(word) - k + 1):
                if word[i:i + k] != old.edges or chain[i] != old.start:
                    continue
                moved = (start, word[:i] + new.edges + word[i + k:])
                if moved in labels:
                    parent[find(moved)] = find((start, word))
    groups = {}
    for lab in labels:
        groups.setdefault(find(lab), []).append(lab)

    def word_key(word):
        return (len(word), tuple(idkey(e) for e in word))

    keyed = []
    for members in groups.values():
        start, word = min(members, key=lambda lab: word_key(lab[1]))
        end = labels[(start, word)]
        keyed.append(((idkey(start), idkey(end), word_key(word)),
                      Route(start, end, word), frozenset(members)))
    keyed.sort(key=lambda t: t[0])
    arrows = [ArrowClass(i, rep.start, rep.end, rep, members)
              for i, (_, rep, members) in enumerate(keyed)]
    return FundamentalCategory(X.flexible, arrows, bound, _support_truncated(X, bound))


def _assert_same_category(got, want, where):
    assert got.objects == want.objects, where
    assert got.possibly_incomplete == want.possibly_incomplete, where
    assert got.bound == want.bound, where
    # ArrowClass equality covers index, source, target, rep and labels
    assert got.arrows == want.arrows, where


BENCHMARK_POOL = {
    "line3xline3": (lambda: product(line_c(3), line_c(3)), range(4, 7)),
    "symcircle2": (lambda: symmetrize(circle_n_stop(2)), range(6, 10)),
    "circle3": (lambda: circle_n_stop(3), range(8, 13)),
    "middelayxline2": (lambda: product(interval_middle_delay(), line_c(2)), range(5, 8)),
    "fl(symcircle2)": (lambda: reflect_fl(symmetrize(circle_n_stop(2))), range(6, 10)),
}


class TestFundamentalCategoryAgainstTheScan:
    @given(presented_complexes())
    def test_every_kind_matches_the_scan(self, X):
        for kind, Y in _every_kind(X).items():
            _assert_same_category(pi1(Y, 4), _scan_pi1(Y, 4), kind)

    def test_benchmark_complexes_match_the_scan_over_their_bounds(self):
        for name, (build, bounds) in BENCHMARK_POOL.items():
            X = build()
            for bound in bounds:
                _assert_same_category(pi1(X, bound), _scan_pi1(X, bound), (name, bound))

    def test_flexible_part_realizability_is_flexibility_of_the_maximal_decoration(self):
        for name, C in build_corpus().items():
            F = reflect_fl(C)
            memo = {}
            for start, word, end in enumerate_words(F.graph, 5):
                want = is_flexible_route(C, max_decoration(start, end, word))
                assert F._realizable(start, word, end, memo) == want, (name, word)

    @pytest.mark.large
    @given(presented_complexes(max_vertices=4, max_edges=6, max_cells=3, max_cell_side=3))
    def test_larger_complexes_match_the_rewrite_closure_and_the_scan(self, X):
        cat = pi1(X, 5)
        assert {a.labels for a in cat.arrows} == brute_pi1_components(X, 5)
        for kind, Y in _every_kind(X).items():
            _assert_same_category(pi1(Y, 5), _scan_pi1(Y, 5), kind)
