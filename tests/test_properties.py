"""Invariant checks on randomized small instances and the corpus.

The acceptance module re-runs the core agreement suites at higher volume;
these tests cover additional algebraic laws at a faster setting.
"""
from __future__ import annotations

import functools
import importlib
import random

import pytest
from hypothesis import given

from conftest import build_corpus, shared_last_edge
from oracles import _sub_routes, brute_membership, brute_pi1_components, brute_route_table
from strategies import complexes_with_route, presented_complexes, routes_on
from cspace import (
    ArrowClass,
    FundamentalCategory,
    Graph,
    PresentedComplex,
    Route,
    StructureError,
    check_middle_restriction,
    circle_n_stop,
    enumerate_routes,
    enumerate_words,
    exponential_cover,
    full_substructure,
    idkey,
    is_flexible_route,
    is_flexible_space,
    is_realizable,
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
from cspace.core import FlexiblePart, MiddleRestrictionReport, PreflexibilityReport
from cspace.pi1 import _LabelStore, _support_longest
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

    def test_middle_restriction_reports_match_below_the_generator_lengths(self):
        """Below a generator's length the walk cannot refute
        preflexibility, so the prolongations' dwells decide the report."""
        for name, X in build_corpus().items():
            for bound in range(4):
                assert check_middle_restriction(X, bound) == (
                    _walk_and_ask_middle_restriction(X, bound)
                ), (name, bound)
        report = check_middle_restriction(interval_middle_delay(), 1)
        assert report.holds and (
            Route.constant("0"), Route("0", "m", ("e1",)),
            Route("m", "1", ("e2",), frozenset({0, 1}))) in report.witnesses


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
            for r in (Route(x, y, w) for x, w, y in enumerate_words(P.graph, 4)):
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


def _wrapping_kinds(X):
    """``_every_kind`` plus sums and full substructures wrapping the
    flexible part and a product, and the flexible part of a product."""
    kinds = _every_kind(X)
    fl, prod = kinds["fl"], kinds["product"]
    kinds["sum-fl-product"] = sum_complex(fl, prod)
    kinds["restrict-fl"] = full_substructure(fl, sorted(fl.flexible, key=idkey)[:1])
    kinds["restrict-product"] = full_substructure(prod, sorted(prod.flexible, key=idkey)[:2])
    kinds["fl-product"] = reflect_fl(product(X, interval_delayed_minus()))
    return kinds


def _assert_literal_membership(X, bound, where):
    """``is_controlled`` on every decoration up to the bound, and
    ``is_realizable`` and ``minimal_dwell_sets`` on every word, against
    ``oracles.brute_membership``."""
    member = brute_membership(X, bound)
    by_word = {}
    for r in enumerate_routes(X.graph, bound):
        by_word.setdefault((r.start, r.edges, r.end), []).append(r)
    for (start, word, end), routes in by_word.items():
        accepted = set()
        for r in routes:
            want = member(r)
            assert X.is_controlled(r) == want, (where, r)
            if want:
                accepted.add(r.dwells)
        full = max_decoration(start, end, word).dwells
        assert is_realizable(X, start, word) == (full in accepted), (where, word)
        minimal = {a for a in accepted if not any(b < a for b in accepted)}
        assert minimal_dwell_sets(X, start, word) == minimal, (where, word)


class TestLiteralMembership:
    """The package's one membership method against the literal
    definitions of each construction, on every decoration."""

    def test_every_kind_on_the_corpus_matches_its_literal_definition(self):
        for name, C in build_corpus().items():
            for kind, X in _wrapping_kinds(C).items():
                _assert_literal_membership(X, 3, (name, kind))

    @given(presented_complexes())
    def test_every_kind_matches_its_literal_definition(self, C):
        for kind, X in _wrapping_kinds(C).items():
            _assert_literal_membership(X, 2, kind)


class TestGeneratorsSharingALastEdge:
    """The presented DP tries, at each prefix, the generators ending in its
    last edge; several may, with different lengths and dwell needs."""

    def test_membership_and_antichains_match_the_literal_definition(self):
        X = shared_last_edge()
        assert [g for _, g, _ in X._ending["f"]] == [("e", "f"), ("f",)]
        assert X._accepts("0", ("e", "f"), "2", 0b100, {})
        assert not X._accepts("0", ("e", "f"), "2", 0b001, {})
        assert X._minimal_dwells("0", ("e", "f"), "2") == {0b010, 0b100}
        _assert_literal_membership(X, 4, "shared-last-edge")


class TestFlexibleRoutes:
    def test_every_kind_on_the_corpus_matches_the_literal_definition(self):
        """A route is flexible iff the literal membership controls every
        one of its restrictions."""
        for name, C in build_corpus().items():
            for kind, X in _wrapping_kinds(C).items():
                brute = brute_membership(X, 3)
                for r in enumerate_routes(X.graph, 3):
                    want = all(brute(s) for s in _sub_routes(X, r))
                    assert is_flexible_route(X, r) == want, (name, kind, r)


class TestArrowClassesOfEveryKind:
    """pi1 of each construction kind against the rewrite closure over the
    labels its literal membership realizes."""

    def test_every_kind_on_the_corpus_matches_the_rewrite_closure(self):
        for name, C in build_corpus().items():
            for kind, X in _every_kind(C).items():
                got = {a.labels for a in pi1(X, 3).arrows}
                assert got == brute_pi1_components(X, 3), (name, kind)

    @given(presented_complexes())
    def test_every_kind_matches_the_rewrite_closure(self, C):
        for kind, X in _every_kind(C).items():
            assert {a.labels for a in pi1(X, 3).arrows} == brute_pi1_components(X, 3), kind


def _over_inexact(X):
    """Whether X is, or is built from, a flexible part, a preflexible hull
    or a full substructure: the kinds whose support is a superset."""
    if X.generators is not None:
        return False
    op, parts, _ = X.recipe()
    return op in ("fl", "pf", "restrict") or any(_over_inexact(p) for p in parts)


class TestSupport:
    """``support()`` against the routes the literal definitions control."""

    def test_support_covers_every_controlled_route_and_is_exact_where_declared(self):
        for name, C in build_corpus().items():
            for kind, X in _wrapping_kinds(C).items():
                member = brute_membership(X, 3)
                used_v, used_e = set(), set()
                for r in enumerate_routes(X.graph, 3):
                    if member(r):
                        used_v.update(X.graph.visited(r))
                        used_e.update(r.edges)
                verts, edges, exact = X.support()
                assert used_v <= verts and used_e <= edges, (name, kind)
                assert exact == (not _over_inexact(X)), (name, kind)
                if exact:
                    assert (used_v, used_e) == (verts, edges), (name, kind)
                    assert path_support(X) == (verts, edges), (name, kind)
                else:
                    with pytest.raises(StructureError):
                        path_support(X)


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
    return FundamentalCategory(X.flexible, arrows, bound, _support_longest(X) > bound)


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
    "fl(middelayxline2)": (
        lambda: reflect_fl(product(interval_middle_delay(), line_c(2))), range(5, 8)),
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
                full = max_decoration(start, end, word)
                want = is_flexible_route(C, full)
                got = F._accepts(start, word, end, sum(1 << d for d in full.dwells), memo)
                assert got == want, (name, word)

    @pytest.mark.large
    @given(presented_complexes(max_vertices=4, max_edges=6, max_cells=3, max_cell_side=3))
    def test_larger_complexes_match_the_rewrite_closure_and_the_scan(self, X):
        cat = pi1(X, 5)
        assert {a.labels for a in cat.arrows} == brute_pi1_components(X, 5)
        for kind, Y in _every_kind(X).items():
            _assert_same_category(pi1(Y, 5), _scan_pi1(Y, 5), kind)


def _bound_orders(bounds):
    """The bounds increasing, decreasing and in a fixed shuffled order."""
    shuffled = list(bounds)
    random.Random(1).shuffle(shuffled)
    return [list(bounds), list(reversed(bounds)), shuffled]


def _assert_every_order_matches_the_scan(build, bounds):
    """``build()`` gives named complexes.  For each order of the bounds a
    fresh set is asked every bound in that order, and each answer equals
    the scan of a separately built complex at that bound."""
    want = {(name, b): _scan_pi1(Y, b) for name, Y in build().items() for b in bounds}
    for order in _bound_orders(bounds):
        for name, Y in build().items():
            for b in order:
                _assert_same_category(pi1(Y, b), want[name, b], (name, order, b))


class TestLabelStore:
    """pi1 keeps one label store per complex and answers every bound from
    it; whatever order bounds are asked in, each answer is a fresh build."""

    @given(presented_complexes())
    def test_every_kind_matches_the_scan_whatever_the_order_of_bounds(self, X):
        _assert_every_order_matches_the_scan(lambda: _every_kind(X), range(5))

    def test_benchmark_complexes_match_the_scan_whatever_the_order_of_bounds(self):
        for name, (build, bounds) in BENCHMARK_POOL.items():
            _assert_every_order_matches_the_scan(lambda: {name: build()}, bounds)

    def test_exponential_cover_sides_match_the_scan_whatever_the_order_of_bounds(self):
        def sides():
            p = exponential_cover(3, 12)
            return {"base": p.base, "total": p.total}
        _assert_every_order_matches_the_scan(sides, range(6, 10))

    def test_the_store_grows_to_the_largest_bound_asked(self):
        X = product(line_c(2), line_c(2))
        pi1(X, 3)
        assert X._label_store.bound == 3
        pi1(X, 2)
        assert X._label_store.bound == 3
        pi1(X, 4)
        assert X._label_store.bound == 4
        assert sorted(X._label_store.roots) == [4]

    @pytest.mark.large
    @given(presented_complexes(max_vertices=4, max_edges=6, max_cells=3, max_cell_side=3))
    def test_larger_complexes_match_the_scan_whatever_the_order_of_bounds(self, X):
        _assert_every_order_matches_the_scan(lambda: _every_kind(X), range(6))


class TestFlexiblePartOfAFlexibleSpace:
    """The flexible part of a flexible space has its base's labels and
    moves, so its store reads the base's; only its support is its own."""

    def test_it_walks_no_word_asks_no_membership_and_searches_no_move(self, monkeypatch):
        X = product(line_c(3), line_c(3))
        assert is_flexible_space(X)
        pi1(X, 6)
        F = reflect_fl(X)

        def refuse(*args, **kwargs):
            raise AssertionError("the flexible part built a store of its own")

        monkeypatch.setattr(Graph, "iter_words", refuse)
        monkeypatch.setattr(_LabelStore, "_moves", refuse)
        monkeypatch.setattr(FlexiblePart, "_accepts", refuse)
        cat = pi1(F, 5)
        monkeypatch.undo()
        base, own = X._label_store, F._label_store
        for name in ("labels", "keys", "index", "edges", "roots"):
            assert getattr(own, name) is getattr(base, name), name
        _assert_same_category(cat, _scan_pi1(F, 5), "fl(line3xline3)")

    def test_a_cold_base_store_is_built_for_it(self):
        X = symmetrize(circle_n_stop(2))
        F = reflect_fl(X)
        pi1(F, 6)
        assert X._label_store.bound == 6
        assert F._label_store.labels is X._label_store.labels

    def test_a_base_that_is_not_flexible_keeps_the_walk(self):
        X = product(interval_middle_delay(), line_c(2))
        assert not is_flexible_space(X)
        pi1(reflect_fl(X), 5)
        assert X._label_store is None

    def test_the_truncation_flag_is_its_own(self):
        # the edge back closes a cycle on no generator: outside X's exact
        # support, inside the flexible part's, which is its whole graph
        g = Graph({"0", "1"}, {"a": ("0", "1"), "b": ("1", "0")})
        X = PresentedComplex(g, {g.route("0", ["a"])})
        assert is_flexible_space(X)
        F = reflect_fl(X)
        for bound in range(1, 5):
            assert not pi1(X, bound).possibly_incomplete
            got = pi1(F, bound)
            assert got.possibly_incomplete
            _assert_same_category(got, _scan_pi1(F, bound), bound)


def _assert_asked_first(cat, first, want, where):
    """Ask ``cat`` first for the class of every label, the hom of every
    pair of objects, or the arrow list; then every answer must be the
    scan's, and each class one object however it is reached."""
    if first == "labels":
        for a in want.arrows:
            for start, word in a.labels:
                cat.class_of_label(start, word)
    elif first == "homs":
        for x in cat.objects:
            for y in cat.objects:
                cat.hom(x, y)
    else:
        cat.arrows
    _assert_same_category(cat, want, where)
    assert cat.is_preorder() == want.is_preorder(), where
    assert cat.arrow_count == want.arrow_count, where
    for x in cat.objects:
        for y in cat.objects:
            assert cat.hom(x, y) == want.hom(x, y), where
    for a in cat.arrows:
        assert any(b is a for b in cat.hom(a.source, a.target)), where
        for start, word in a.labels:
            assert cat.class_of_label(start, word) is a, where


class TestLazyCategory:
    """A category from pi1 builds a hom's classes when they are asked for;
    whatever is asked first, the answers are the scan's, and a class is
    one object however it is reached."""

    def test_every_order_of_asking_matches_the_scan(self):
        """At bound 4, and at bound 2 over the store that bound 4 built."""
        for name, C in build_corpus().items():
            for kind, X in _every_kind(C).items():
                for bound in (4, 2):
                    want = _scan_pi1(X, bound)
                    for first in ("labels", "homs", "arrows"):
                        _assert_asked_first(pi1(X, bound), first, want,
                                            (name, kind, bound, first))

    def test_a_hom_builds_only_its_own_classes(self, monkeypatch):
        built = []

        def counted(*args):
            built.append(args)
            return ArrowClass(*args)

        cat = pi1(exponential_cover(3, 12).total, 9)
        monkeypatch.setattr(importlib.import_module("cspace.pi1"), "ArrowClass", counted)
        assert cat.is_preorder()
        assert cat.arrow_count == len(_scan_pi1(exponential_cover(3, 12).total, 9).arrows)
        assert built == []
        hom = cat.hom("0", "3")
        assert len(hom) == 1 and len(built) == 1
        assert cat.hom("0", "3") is hom
        assert cat.class_of_label("0", ("e0", "e1", "e2")) is hom[0]
        assert len(built) == 1
