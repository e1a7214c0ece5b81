"""Standard spaces, products, sums, opposites, quotients, symmetrization."""
from __future__ import annotations

import pytest

from cspace import (
    ControlledComplex,
    Graph,
    ProductComplex,
    QuotientSpec,
    Route,
    SquareCell,
    StructureError,
    circle_n_stop,
    discrete,
    PresentedComplex,
    full_substructure,
    idkey,
    interval_c,
    interval_delayed_plus,
    interval_j,
    interval_reversible,
    line_c,
    opposite,
    oracle_equivalent,
    product,
    reflect_fl,
    reflect_pf,
    quotient,
    reversible_cancellation,
    rigid_line,
    std_space,
    sum_complex,
    symmetrize,
    tag_left,
    tag_right,
)
from cspace.spaces import _reverse_ids


def _reverse(r: Route) -> Route:
    n = len(r.edges)
    return Route(r.end, r.start, tuple(reversed(r.edges)), frozenset(n - d for d in r.dwells))


class _Reversed(ControlledComplex):
    """The opposite by definition: controls exactly the reversed routes."""

    def __init__(self, X: ControlledComplex) -> None:
        g = X.graph
        edges = {e: (g.dst(e), g.src(e)) for e in g.edge_ids}
        super().__init__(Graph(g.vertices, edges), (), X.flexible)
        self.X = X

    def _accepts(self, start, word, end, dwells, memo) -> bool:
        positions = frozenset(d for d in range(len(word) + 1) if dwells >> d & 1)
        return self.X.is_controlled(_reverse(Route(start, end, word, positions)))


class TestStandardSpaces:
    def test_dispatch_builds_every_kind(self):
        assert std_space("interval-c").graph.edge_ids == frozenset({"e"})
        assert std_space("line-c", window=2).graph.vertices == frozenset(
            {"-2", "-1", "0", "1", "2"}
        )
        assert std_space("circle-n-stop", stops=2).flexible == frozenset({"0", "1"})
        assert std_space("discrete", points=3).graph.edge_ids == frozenset()
        assert std_space("rigid-line", length=3).flexible == frozenset({"0", "3"})

    def test_dispatch_validates_kind_and_parameters(self):
        with pytest.raises(StructureError):
            std_space("moebius")
        with pytest.raises(StructureError):
            std_space("line-c")
        with pytest.raises(StructureError):
            std_space("interval-c", window=1)

    def test_zero_window_line_is_a_flexible_point(self):
        X = line_c(0)
        assert X.graph.vertices == frozenset({"0"})
        assert X.is_controlled(Route.constant("0"))

    def test_circle_loops_compose_around_the_basepoint(self):
        X = circle_n_stop(1)
        loop = Route("0", "0", ("e0",))
        assert X.is_controlled(loop)
        assert X.is_controlled(Route("0", "0", ("e0", "e0", "e0")))

    def test_discrete_space_controls_only_constants(self):
        X = discrete(2)
        assert X.is_controlled(Route.constant("0"))
        assert X.is_controlled(Route.constant("1"))
        assert X.flexible == frozenset({"0", "1"})


class TestProduct:
    def test_vertices_edges_and_flexibility_are_componentwise(self, ci, cj):
        P = product(ci, cj)
        assert isinstance(P, ProductComplex)
        assert ("0", "m") in P.graph.vertices
        assert P.flexible == frozenset(
            (x, y) for x in ("0", "1") for y in ("0", "m", "1")
        )

    def test_membership_is_decided_by_both_projections(self, ci):
        P = product(ci, ci)
        across = P.graph.route(("0", "0"), [("L", "e", "0"), ("R", "1", "e")])
        assert P.is_controlled(across)
        other = P.graph.route(("0", "0"), [("R", "0", "e"), ("L", "e", "1")])
        assert P.is_controlled(other)

    def test_projections_turn_opposite_steps_into_dwells(self, ci):
        P = product(ci, ci)
        r = P.graph.route(("0", "0"), [("L", "e", "0"), ("R", "1", "e")], {1})
        left = P.project_left(r)
        assert left.edges == ("e",)
        assert 1 in left.dwells
        right = P.project_right(r)
        assert right.edges == ("e",)
        assert 0 in right.dwells

    def test_interchange_cells_exist_for_each_edge_pair(self, ci):
        P = product(ci, ci)
        assert len(P.cells) == 1
        cell = P.cells[0]
        sides = {cell.left.edges, cell.right.edges}
        assert sides == {
            (("L", "e", "0"), ("R", "1", "e")),
            (("R", "0", "e"), ("L", "e", "1")),
        }

    def test_cells_are_listed_in_sort_key_order(self):
        L, R = symmetrize(interval_c()), symmetrize(interval_j())
        P = product(L, R)
        # an interchange square per edge pair, each factor cell at each
        # vertex of the other factor
        assert len(P.cells) == 2 * 4 + 2 * 3 + 4 * 2
        assert (len(L.cells), len(R.cells)) == (2, 4)
        assert list(P.cells) == sorted(P.cells, key=SquareCell.sort_key)

    def test_delayed_factor_forces_the_dwell_in_the_product(self, ci, delayed_minus):
        P = product(delayed_minus, ci)
        r = P.graph.route(("0", "0"), [("L", "e", "0"), ("R", "1", "e")])
        assert not P.is_controlled(r)
        assert P.is_controlled(Route(r.start, r.end, r.edges, frozenset({0})))


class TestSum:
    def test_summands_are_tagged_and_disjoint(self, ci, cj):
        S = sum_complex(ci, cj)
        assert tag_left("0") in S.graph.vertices
        assert tag_right("m") in S.graph.vertices
        assert S.is_controlled(Route(("L", "0"), ("L", "1"), (("L", "e"),)))
        assert S.is_controlled(Route(("R", "0"), ("R", "m"), (("R", "e1"),)))
        assert S.flexible == {("L", v) for v in ("0", "1")} | {
            ("R", v) for v in ("0", "m", "1")
        }

    def test_no_routes_cross_between_summands(self, ci):
        S = sum_complex(ci, ci)
        for e in S.graph.edge_ids:
            assert S.graph.src(e)[0] == S.graph.dst(e)[0] == e[0]


class TestOpposite:
    def test_opposite_reverses_every_controlled_route(self, delayed_minus):
        op = opposite(delayed_minus)
        assert op.is_controlled(Route("1", "0", ("e",), frozenset({1})))
        assert not op.is_controlled(Route("1", "0", ("e",), frozenset({0})))

    def test_opposite_is_an_involution_up_to_oracle(self, corpus):
        for name, X in corpus.items():
            if X.generators is None:
                continue
            assert oracle_equivalent(opposite(opposite(X)), X, 3), name

    def test_opposite_commutes_with_oracle_backed_constructions(self, corpus):
        for name, X in corpus.items():
            built = [full_substructure(X, X.flexible), reflect_fl(X), reflect_pf(X)]
            built.append(product(built[0], interval_c()))
            for R in built:
                op = opposite(R)
                assert type(op) is type(R) and op.recipe()[0] == R.recipe()[0], name
                assert oracle_equivalent(op, _Reversed(R), 3), (name, R.recipe()[0])

    def test_opposite_of_initial_delay_is_final_delay(self, delayed_minus):
        assert oracle_equivalent(
            opposite(delayed_minus), interval_delayed_plus(), 3,
            {"0": "1", "1": "0"},
        )


class TestRestriction:
    def test_substructure_keeps_only_routes_inside(self, cj):
        R = full_substructure(cj, ["0", "1"])
        assert R.flexible == frozenset({"0", "1"})
        assert R.is_controlled(Route("0", "1", ("e1", "e2")))
        assert not R.is_controlled(Route("0", "m", ("e1",)))

    def test_substructure_requires_flexible_vertices(self, middle_delay):
        with pytest.raises(StructureError):
            full_substructure(middle_delay, ["0", "m"])


class TestQuotient:
    def test_collapsing_the_second_edge_delays_the_end(self):
        X = rigid_line(2)
        Q = quotient(X, QuotientSpec(blocks=[["1", "2"]], collapse=["e1"]))
        assert oracle_equivalent(
            Q, interval_delayed_plus(), 3, {"0": "0", "1": "1"}, {"e0": "e"}
        )

    def test_collapsing_the_first_edge_delays_the_start(self):
        from cspace import interval_delayed_minus

        X = rigid_line(2)
        Q = quotient(X, QuotientSpec(blocks=[["0", "1"]], collapse=["e0"]))
        assert oracle_equivalent(
            Q, interval_delayed_minus(), 3, {"0": "0", "2": "1"}, {"e1": "e"}
        )

    def test_cells_map_through_unless_their_image_is_degenerate(self):
        S = symmetrize(interval_c())
        both = quotient(S, QuotientSpec(blocks=[["0", "1"]], collapse=["e", "e~"]))
        assert both.cells == ()
        assert both.generators == {Route.constant("0")}
        one = quotient(S, QuotientSpec(blocks=[["0", "1"]], collapse=["e"]))
        assert one.cells == (SquareCell(Route("0", "0", ("e~",)), Route.constant("0")),)
        assert one.generators == {Route("0", "0", ("e~",)), Route.constant("0")}

    def test_blocks_must_cover_collapsed_edges(self):
        X = rigid_line(2)
        with pytest.raises(StructureError):
            quotient(X, QuotientSpec(blocks=[], collapse=["e0"]))
        with pytest.raises(StructureError):
            quotient(X, QuotientSpec(blocks=[["0", "0"]], collapse=["e1"]))

    def test_blocks_must_be_disjoint(self):
        X = rigid_line(2)
        with pytest.raises(StructureError):
            quotient(X, QuotientSpec(blocks=[["0", "1"], ["1", "2"]]))


def _probe_reverse_ids(edges):
    """Reverse ids named by probing: each edge in ``idkey`` order takes
    the first of e~, e~~, ... (("rev", e), ("rev", ("rev", e)), ... for an
    id that is not a string) that names no edge and no reverse named
    before."""
    taken, out = set(edges), {}
    for e in sorted(edges, key=idkey):
        cand = e + "~" if isinstance(e, str) else ("rev", e)
        while cand in taken:
            cand = cand + "~" if isinstance(e, str) else ("rev", cand)
        taken.add(cand)
        out[e] = cand
    return out


def _assert_reverses_as_probed(X):
    want = _probe_reverse_ids(X.graph.edge_ids)
    assert _reverse_ids(X.graph.edge_ids) == want
    S = symmetrize(X)
    assert S.graph.edge_ids == X.graph.edge_ids | set(want.values())
    for e, r in want.items():
        s, d = X.graph.endpoints(e)
        assert Route(d, s, (r,)) in S.generators


def _one_generator_per_edge(edges):
    g = Graph({v for ends in edges.values() for v in ends}, edges)
    return PresentedComplex(g, {Route(s, d, (e,)) for e, (s, d) in edges.items()})


class TestSymmetrize:
    def test_nested_reverses_are_named_as_by_probing(self):
        X = interval_c()
        for _ in range(9):
            _assert_reverses_as_probed(X)
            X = symmetrize(X)

    def test_reverses_skip_taken_ids_as_probing_does(self):
        _assert_reverses_as_probed(_one_generator_per_edge(
            {"e": ("0", "1"), "e~~": ("1", "0"), "f~": ("0", "1"), "f": ("1", "0")}))
        # a string and a wrapped id of one root and depth name different edges
        _assert_reverses_as_probed(_one_generator_per_edge(
            {"e": ("0", "1"), "e~~": ("1", "0"), ("rev", "e"): ("0", "1"),
             ("rev", ("rev", "e~")): ("1", "0"), 5: ("0", "0"), ("rev", 5): ("1", "1")}))

    def test_tuple_reverses_are_named_as_by_probing(self):
        X = sum_complex(interval_c(), interval_j())
        for _ in range(4):
            _assert_reverses_as_probed(X)
            X = symmetrize(X)

    def test_reverse_edges_and_cancellation_cells_appear(self, ci):
        S = symmetrize(ci)
        assert S.is_controlled(Route("1", "0", ("e~",)))
        assert S.is_controlled(Route("0", "0", ("e", "e~")))
        assert len(S.cells) == 2

    def test_reversible_interval_gains_cancellation_cells(self):
        X = interval_reversible()
        Y = reversible_cancellation(X, "e", "er")
        assert len(Y.cells) == 2
        assert Y.is_controlled(Route("0", "0", ("e", "er")))

    def test_cancellation_requires_a_reversing_edge(self, ci):
        with pytest.raises(StructureError):
            reversible_cancellation(ci, "e", "e")
