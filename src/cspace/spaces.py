"""Constructors: standard spaces and the closed combinators.

Standard spaces are tiny presented complexes (intervals with and without
mandatory pauses, windows of the controlled line, cyclic spaces, discrete
spaces).  Combinators build products with interchange cells, sums,
opposites, full substructures, edge-collapsing quotients and the
symmetrization that turns the fundamental category into a groupoid.
"""
from __future__ import annotations

from collections.abc import Iterable
from dataclasses import dataclass

from .core import (
    ControlledComplex,
    EdgeId,
    Graph,
    PresentedComplex,
    Recipe,
    Route,
    SquareCell,
    StructureError,
    Support,
    VertexId,
    _realizable_in,
    idkey,
    is_flexible_route,
    is_flexible_space,
    path_support,
    reflect_fl,
    reflect_pf,
    render_id,
)

__all__ = [
    "STANDARD_KINDS",
    "std_space",
    "interval_c",
    "interval_j",
    "interval_delayed_minus",
    "interval_delayed_plus",
    "interval_middle_delay",
    "interval_reversible",
    "line_c",
    "circle_n_stop",
    "discrete",
    "rigid_line",
    "diagonal_square",
    "ProductComplex",
    "product",
    "SumComplex",
    "tag_left",
    "tag_right",
    "sum_complex",
    "opposite",
    "RestrictedComplex",
    "full_substructure",
    "QuotientSpec",
    "quotient",
    "symmetrize",
    "reversible_cancellation",
]


# ---------------------------------------------------------------------------
# standard spaces


def interval_c() -> PresentedComplex:
    """One directed edge, free traversal."""
    g = Graph({"0", "1"}, {"e": ("0", "1")})
    return PresentedComplex(g, {g.route("0", ["e"])})


def interval_j() -> PresentedComplex:
    """Two directed edges through a flexible midpoint, each freely traversable."""
    g = Graph({"0", "m", "1"}, {"e1": ("0", "m"), "e2": ("m", "1")})
    return PresentedComplex(g, {g.route("0", ["e1"]), g.route("m", ["e2"])})


def interval_delayed_minus() -> PresentedComplex:
    """One edge whose traversal must pause at the start."""
    g = Graph({"0", "1"}, {"e": ("0", "1")})
    return PresentedComplex(g, {g.route("0", ["e"], {0})})


def interval_delayed_plus() -> PresentedComplex:
    """One edge whose traversal must pause at the end."""
    g = Graph({"0", "1"}, {"e": ("0", "1")})
    return PresentedComplex(g, {g.route("0", ["e"], {1})})


def interval_middle_delay() -> PresentedComplex:
    """Two edges traversed in one go with a mandatory pause in the middle."""
    g = Graph({"0", "m", "1"}, {"e1": ("0", "m"), "e2": ("m", "1")})
    return PresentedComplex(g, {g.route("0", ["e1", "e2"], {1})})


def interval_reversible() -> PresentedComplex:
    """One edge in each direction, both freely traversable, no cancellation."""
    g = Graph({"0", "1"}, {"e": ("0", "1"), "er": ("1", "0")})
    return PresentedComplex(g, {g.route("0", ["e"]), g.route("1", ["er"])})


def line_c(window: int) -> PresentedComplex:
    """Window -window..window of the controlled line, one generator per unit edge."""
    if window < 0:
        raise StructureError("window must be >= 0")
    vertices = [str(k) for k in range(-window, window + 1)]
    edges = {f"e{k}": (str(k), str(k + 1)) for k in range(-window, window)}
    g = Graph(vertices, edges)
    gens = {g.route(str(k), [f"e{k}"]) for k in range(-window, window)}
    if not gens:
        gens = {Route.constant("0")}
    return PresentedComplex(g, gens)


def circle_n_stop(stops: int) -> PresentedComplex:
    """Directed cycle with ``stops`` flexible vertices, one generator per edge."""
    if stops < 1:
        raise StructureError("a cyclic space needs at least one stop")
    vertices = [str(i) for i in range(stops)]
    edges = {f"e{i}": (str(i), str((i + 1) % stops)) for i in range(stops)}
    g = Graph(vertices, edges)
    return PresentedComplex(g, {g.route(str(i), [f"e{i}"]) for i in range(stops)})


def discrete(points: int) -> PresentedComplex:
    """No edges; a constant generator marks every vertex flexible."""
    if points < 0:
        raise StructureError("points must be >= 0")
    vertices = [str(i) for i in range(points)]
    g = Graph(vertices, {})
    return PresentedComplex(g, {Route.constant(v) for v in vertices})


def rigid_line(length: int) -> PresentedComplex:
    """Interval of ``length`` edges with one generator spanning all of them.

    Interior vertices are crossed without stopping, so they are not
    flexible and nothing shorter than the full sweep is controlled."""
    if length < 1:
        raise StructureError("length must be >= 1")
    vertices = [str(k) for k in range(length + 1)]
    edges = {f"e{k}": (str(k), str(k + 1)) for k in range(length)}
    g = Graph(vertices, edges)
    return PresentedComplex(g, {g.route("0", [f"e{k}" for k in range(length)])})


def diagonal_square() -> PresentedComplex:
    """Square whose only generators are the two diagonals through the center.

    The four boundary edges belong to the graph but to no generator, so
    path support is not total; the half-diagonal concatenations witness
    the failure of preflexibility.
    """
    vertices = {"00", "01", "10", "11", "c"}
    edges = {
        "a1": ("00", "c"),
        "a2": ("c", "11"),
        "b1": ("01", "c"),
        "b2": ("c", "10"),
        "s1": ("00", "01"),
        "s2": ("01", "11"),
        "s3": ("00", "10"),
        "s4": ("10", "11"),
    }
    g = Graph(vertices, edges)
    return PresentedComplex(g, {g.route("00", ["a1", "a2"]), g.route("01", ["b1", "b2"])})


STANDARD_KINDS: dict[str, tuple] = {
    "interval-c": (interval_c, ()),
    "interval-j": (interval_j, ()),
    "interval-delayed-minus": (interval_delayed_minus, ()),
    "interval-delayed-plus": (interval_delayed_plus, ()),
    "interval-middle-delay": (interval_middle_delay, ()),
    "interval-reversible": (interval_reversible, ()),
    "line-c": (line_c, ("window",)),
    "circle-n-stop": (circle_n_stop, ("stops",)),
    "discrete": (discrete, ("points",)),
    "rigid-line": (rigid_line, ("length",)),
}


def std_space(kind: str, **params: int) -> PresentedComplex:
    if kind not in STANDARD_KINDS:
        known = ", ".join(sorted(STANDARD_KINDS))
        raise StructureError(f"unknown standard space {kind!r} (known: {known})")
    builder, names = STANDARD_KINDS[kind]
    missing = [n for n in names if n not in params]
    extra = [n for n in params if n not in names]
    if missing or extra:
        raise StructureError(
            f"{kind} takes parameters {list(names)}, got {sorted(params)}"
        )
    return builder(**params)


# ---------------------------------------------------------------------------
# product


def _h_edge(e: EdgeId, y: VertexId) -> tuple:
    return ("L", e, y)


def _v_edge(x: VertexId, f: EdgeId) -> tuple:
    return ("R", x, f)


class ProductComplex(ControlledComplex):
    """Product of two complexes.

    Vertices are pairs.  A step in one factor projects to a dwell in the
    other, and adjacent projected dwells merge, so a route is controlled
    iff both projections are.  Cells are one interchange square per edge
    pair plus every factor cell lifted at each opposite-factor vertex
    (over-emission is harmless: moves are filtered by realizability).
    """

    tag = "product"

    def __init__(self, left: ControlledComplex, right: ControlledComplex) -> None:
        lv, rv = left.graph.vertices, right.graph.vertices
        vertices = {(x, y) for x in lv for y in rv}
        edges: dict[EdgeId, tuple[VertexId, VertexId]] = {}
        for e in left.graph.edge_ids:
            src, dst = left.graph.endpoints(e)
            for y in rv:
                edges[_h_edge(e, y)] = ((src, y), (dst, y))
        for f in right.graph.edge_ids:
            src, dst = right.graph.endpoints(f)
            for x in lv:
                edges[_v_edge(x, f)] = ((x, src), (x, dst))
        graph = Graph(vertices, edges)

        cells: list[SquareCell] = []
        for e in sorted(left.graph.edge_ids, key=idkey):
            es, ed = left.graph.endpoints(e)
            for f in sorted(right.graph.edge_ids, key=idkey):
                fs, fd = right.graph.endpoints(f)
                one = Route((es, fs), (ed, fd), (_h_edge(e, fs), _v_edge(ed, f)))
                two = Route((es, fs), (ed, fd), (_v_edge(es, f), _h_edge(e, fd)))
                cells.append(SquareCell(one, two))
        for c in left.cells:
            for y in sorted(rv, key=idkey):
                cells.append(SquareCell(self._lift_left(c.left, y), self._lift_left(c.right, y)))
        for c in right.cells:
            for x in sorted(lv, key=idkey):
                cells.append(SquareCell(self._lift_right(x, c.left), self._lift_right(x, c.right)))

        flexible = {(x, y) for x in left.flexible for y in right.flexible}
        super().__init__(graph, cells, flexible)
        self.left = left
        self.right = right

    @staticmethod
    def _lift_left(r: Route, y: VertexId) -> Route:
        return Route((r.start, y), (r.end, y), tuple(_h_edge(e, y) for e in r.edges))

    @staticmethod
    def _lift_right(x: VertexId, r: Route) -> Route:
        return Route((x, r.start), (x, r.end), tuple(_v_edge(x, e) for e in r.edges))

    def project_left(self, r: Route) -> Route:
        return self._project(r, 0)

    def project_right(self, r: Route) -> Route:
        return self._project(r, 1)

    def _project(self, r: Route, side: int) -> Route:
        mine = "L" if side == 0 else "R"
        pos = 0
        pos_at = [0]
        edges: list[EdgeId] = []
        for step in r.edges:
            if step[0] == mine:
                edges.append(step[1] if side == 0 else step[2])
                pos += 1
            pos_at.append(pos)
        dwells = {pos_at[i] for i in r.dwells}
        dwells.update(
            pos_at[i] for i, step in enumerate(r.edges) if step[0] != mine
        )
        return Route(r.start[side], r.end[side], tuple(edges), frozenset(dwells))

    def _decide(self, r: Route) -> bool:
        return self.left.is_controlled(self.project_left(r)) and self.right.is_controlled(
            self.project_right(r)
        )

    def _realizable(
        self, start: VertexId, word: tuple[EdgeId, ...], end: VertexId, memo: dict
    ) -> bool:
        """The maximal decoration projects to the maximal decorations of
        the factor words."""
        lw = tuple(step[1] for step in word if step[0] == "L")
        rw = tuple(step[2] for step in word if step[0] == "R")
        return _realizable_in(self.left, start[0], lw, end[0], memo) and _realizable_in(
            self.right, start[1], rw, end[1], memo
        )

    def structural_flexibility(self) -> bool:
        if not self.graph.vertices:
            return True
        return is_flexible_space(self.left) and is_flexible_space(self.right)

    @staticmethod
    def _pair_support(left: Support, right: Support) -> Support:
        (lv, le), (rv, re) = left, right
        verts = frozenset((x, y) for x in lv for y in rv)
        edges = {_h_edge(e, y) for e in le for y in rv}
        edges |= {_v_edge(x, f) for x in lv for f in re}
        return verts, frozenset(edges)

    def path_support(self) -> Support:
        return self._pair_support(path_support(self.left), path_support(self.right))

    def support_upper(self) -> Support:
        return self._pair_support(self.left.support_upper(), self.right.support_upper())

    def recipe(self) -> Recipe:
        return ("product", (self.left, self.right), None)


def product(left: ControlledComplex, right: ControlledComplex) -> ProductComplex:
    return ProductComplex(left, right)


# ---------------------------------------------------------------------------
# sum


def tag_left(v: VertexId) -> tuple:
    return ("L", v)


def tag_right(v: VertexId) -> tuple:
    return ("R", v)


def _tag_route(r: Route, tag: str) -> Route:
    return Route(
        (tag, r.start), (tag, r.end), tuple((tag, e) for e in r.edges), r.dwells
    )


class SumComplex(ControlledComplex):
    """Disjoint union; a route lives wholly in one summand."""

    tag = "sum"

    def __init__(self, left: ControlledComplex, right: ControlledComplex) -> None:
        vertices = {tag_left(v) for v in left.graph.vertices}
        vertices |= {tag_right(v) for v in right.graph.vertices}
        edges: dict[EdgeId, tuple[VertexId, VertexId]] = {}
        for e in left.graph.edge_ids:
            s, d = left.graph.endpoints(e)
            edges[("L", e)] = (tag_left(s), tag_left(d))
        for e in right.graph.edge_ids:
            s, d = right.graph.endpoints(e)
            edges[("R", e)] = (tag_right(s), tag_right(d))
        graph = Graph(vertices, edges)
        cells = [
            SquareCell(_tag_route(c.left, "L"), _tag_route(c.right, "L"))
            for c in left.cells
        ]
        cells += [
            SquareCell(_tag_route(c.left, "R"), _tag_route(c.right, "R"))
            for c in right.cells
        ]
        flexible = {tag_left(v) for v in left.flexible}
        flexible |= {tag_right(v) for v in right.flexible}
        super().__init__(graph, cells, flexible)
        self.left = left
        self.right = right
        lg, rg = left.generators, right.generators
        if lg is not None and rg is not None:
            self._generators = frozenset(
                {_tag_route(g, "L") for g in lg} | {_tag_route(g, "R") for g in rg}
            )
        else:
            self._generators = None

    @property
    def generators(self) -> frozenset[Route] | None:
        return self._generators

    def _untag(self, r: Route) -> tuple[ControlledComplex, Route]:
        """The summand r lives in, and r in its ids."""
        summand = self.left if r.start[0] == "L" else self.right
        return summand, Route(
            r.start[1], r.end[1], tuple(e[1] for e in r.edges), r.dwells
        )

    def _decide(self, r: Route) -> bool:
        summand, plain = self._untag(r)
        return summand.is_controlled(plain)

    def _minimal_dwells(self, r: Route) -> frozenset[int]:
        summand, plain = self._untag(r)
        return summand._minimal_dwells(plain)

    def structural_flexibility(self) -> bool:
        return is_flexible_space(self.left) and is_flexible_space(self.right)

    @staticmethod
    def _tag_support(left: Support, right: Support) -> Support:
        (lv, le), (rv, re) = left, right
        verts = {tag_left(v) for v in lv} | {tag_right(v) for v in rv}
        edges = {("L", e) for e in le} | {("R", e) for e in re}
        return frozenset(verts), frozenset(edges)

    def path_support(self) -> Support:
        return self._tag_support(path_support(self.left), path_support(self.right))

    def support_upper(self) -> Support:
        return self._tag_support(self.left.support_upper(), self.right.support_upper())

    def recipe(self) -> Recipe:
        return ("sum", (self.left, self.right), None)


def sum_complex(left: ControlledComplex, right: ControlledComplex) -> SumComplex:
    return SumComplex(left, right)


# ---------------------------------------------------------------------------
# opposite


def _reverse_route(X: ControlledComplex, r: Route) -> Route:
    n = len(r.edges)
    return Route(
        r.end, r.start, tuple(reversed(r.edges)), frozenset(n - d for d in r.dwells)
    )


def opposite(X: ControlledComplex) -> ControlledComplex:
    """Reverse every edge; generator words reverse and dwells mirror.
    Without generators, rebuild the recipe from the opposites of its parts."""
    gens = X.generators
    if gens is not None:
        edges = {
            e: (X.graph.dst(e), X.graph.src(e)) for e in X.graph.edge_ids
        }
        graph = Graph(X.graph.vertices, edges)
        new_gens = {_reverse_route(X, g) for g in gens}
        cells = {
            SquareCell(_reverse_route(X, c.left), _reverse_route(X, c.right))
            for c in X.cells
        }
        return PresentedComplex.derived("op", X, graph, new_gens, cells)
    recipe = X.recipe()
    if recipe is None:
        raise StructureError("opposite needs a generator presentation or a recipe")
    op, parts, keep = recipe
    flipped = [opposite(part) for part in parts]
    if op == "restrict":
        return full_substructure(flipped[0], keep)
    build = {"product": product, "sum": sum_complex, "fl": reflect_fl, "pf": reflect_pf}
    return build[op](*flipped)


# ---------------------------------------------------------------------------
# full substructure


class RestrictedComplex(ControlledComplex):
    """Full substructure on a set of flexible vertices: same support, and a
    route is controlled iff it is controlled in the base with both
    endpoints in the kept set."""

    tag = "restricted"

    def __init__(self, base: ControlledComplex, keep: Iterable[VertexId]) -> None:
        keep = frozenset(keep)
        if not keep <= base.flexible:
            bad = sorted(keep - base.flexible, key=idkey)
            raise StructureError(
                "substructure vertices must be flexible: " + render_id(tuple(bad))
            )
        super().__init__(base.graph, base.cells, keep)
        self.base = base
        self.keep = keep

    def _decide(self, r: Route) -> bool:
        if r.start not in self.keep or r.end not in self.keep:
            return False
        return self.base.is_controlled(r)

    def _minimal_dwells(self, r: Route) -> frozenset[int]:
        if r.start not in self.keep or r.end not in self.keep:
            return frozenset()
        return self.base._minimal_dwells(r)

    def structural_flexibility(self) -> bool:
        """Keeping every vertex controls exactly what the base controls."""
        return is_flexible_space(self.base)

    def support_upper(self) -> Support:
        return self.base.support_upper()

    def recipe(self) -> Recipe:
        return ("restrict", (self.base,), self.keep)


def full_substructure(X: ControlledComplex, keep: Iterable[VertexId]) -> RestrictedComplex:
    return RestrictedComplex(X, keep)


# ---------------------------------------------------------------------------
# quotient


@dataclass(frozen=True)
class QuotientSpec:
    """Blocks of identified vertices plus the edges to collapse.

    Unlisted vertices stay as singletons.  Collapsed edges must have both
    endpoints in one block.
    """

    blocks: tuple[frozenset[VertexId], ...] = ()
    collapse: frozenset[EdgeId] = frozenset()

    def __init__(
        self,
        blocks: Iterable[Iterable[VertexId]] = (),
        collapse: Iterable[EdgeId] = (),
    ) -> None:
        object.__setattr__(
            self, "blocks", tuple(frozenset(b) for b in blocks)
        )
        object.__setattr__(self, "collapse", frozenset(collapse))


def quotient(X: ControlledComplex, spec: QuotientSpec) -> PresentedComplex:
    """Collapse vertex blocks and selected edges.

    A traversal of a collapsed edge becomes a dwell at the block vertex
    (adjacent dwells merge); other edges map through; cells map through
    with degenerate images dropped.  Blocks are named by their least
    member.
    """
    gens = X.generators
    if gens is None:
        raise StructureError("quotient needs a generator presentation")
    seen: set[VertexId] = set()
    for b in spec.blocks:
        if not b:
            raise StructureError("empty block in quotient")
        if not b <= X.graph.vertices:
            raise StructureError("block mentions unknown vertices")
        if b & seen:
            raise StructureError("blocks must be disjoint")
        seen |= b
    rep: dict[VertexId, VertexId] = {}
    for b in spec.blocks:
        r = min(b, key=idkey)
        for v in b:
            rep[v] = r
    for v in X.graph.vertices:
        rep.setdefault(v, v)
    for e in spec.collapse:
        if not X.graph.has_edge(e):
            raise StructureError(f"cannot collapse unknown edge {render_id(e)}")
        if rep[X.graph.src(e)] != rep[X.graph.dst(e)]:
            raise StructureError(
                f"collapsed edge {render_id(e)} must join vertices of one block"
            )

    vertices = {rep[v] for v in X.graph.vertices}
    edges = {
        e: (rep[X.graph.src(e)], rep[X.graph.dst(e)])
        for e in X.graph.edge_ids
        if e not in spec.collapse
    }
    graph = Graph(vertices, edges)

    def image(r: Route) -> Route:
        out_edges: list[EdgeId] = []
        dwells: set[int] = set()
        pos_at = [0]
        pos = 0
        for e in r.edges:
            if e in spec.collapse:
                dwells.add(pos)
            else:
                out_edges.append(e)
                pos += 1
            pos_at.append(pos)
        dwells.update(pos_at[i] for i in r.dwells)
        return Route(rep[r.start], rep[r.end], tuple(out_edges), frozenset(dwells))

    new_gens = {image(g) for g in gens}
    new_cells: set[SquareCell] = set()
    for c in X.cells:
        left = image(c.left).strip_dwells()
        right = image(c.right).strip_dwells()
        if left != right:
            new_cells.add(SquareCell(left, right))
    return PresentedComplex(graph, new_gens, new_cells)


# ---------------------------------------------------------------------------
# symmetrization and cancellation


def _fresh_reverse_id(e: EdgeId, taken: set[EdgeId]) -> EdgeId:
    if isinstance(e, str):
        cand = e + "~"
        while cand in taken:
            cand += "~"
        return cand
    cand: EdgeId = ("rev", e)
    while cand in taken:
        cand = ("rev", cand)
    return cand


def symmetrize(X: ControlledComplex) -> PresentedComplex:
    """Add a reversed edge per edge, single-edge generators both ways,
    constants everywhere and cancellation cells in both orders.  The
    fundamental category of the result is a groupoid on all vertices."""
    if X.generators is None:
        raise StructureError("symmetrize needs a generator presentation")
    edges = {e: X.graph.endpoints(e) for e in X.graph.edge_ids}
    taken = set(edges)
    reverse: dict[EdgeId, EdgeId] = {}
    for e in sorted(X.graph.edge_ids, key=idkey):
        r = _fresh_reverse_id(e, taken)
        taken.add(r)
        reverse[e] = r
        s, d = X.graph.endpoints(e)
        edges[r] = (d, s)
    graph = Graph(X.graph.vertices, edges)
    gens: set[Route] = {Route.constant(v) for v in X.graph.vertices}
    cells: set[SquareCell] = set(X.cells)
    for e, r in reverse.items():
        s, d = X.graph.endpoints(e)
        gens.add(Route(s, d, (e,)))
        gens.add(Route(d, s, (r,)))
        cells.add(SquareCell(Route(s, s, (e, r)), Route.constant(s)))
        cells.add(SquareCell(Route(d, d, (r, e)), Route.constant(d)))
    return PresentedComplex.derived("symmetrize", X, graph, gens, cells)


def reversible_cancellation(
    X: ControlledComplex, e: EdgeId, e_reverse: EdgeId
) -> PresentedComplex:
    """Record that ``e_reverse`` undoes ``e`` by adding both cancellation
    cells.  Requires both single-edge routes to be controlled and flexible;
    mere reversibility without flexibility is not enough to cancel."""
    gens = X.generators
    if gens is None:
        raise StructureError("cancellation cells need a generator presentation")
    for eid in (e, e_reverse):
        if not X.graph.has_edge(eid):
            raise StructureError(f"unknown edge {render_id(eid)}")
    s, d = X.graph.endpoints(e)
    rs, rd = X.graph.endpoints(e_reverse)
    if (rs, rd) != (d, s):
        raise StructureError(
            f"{render_id(e_reverse)} does not reverse {render_id(e)}"
        )
    fwd = Route(s, d, (e,))
    bwd = Route(d, s, (e_reverse,))
    for r in (fwd, bwd):
        if not X.is_controlled(r):
            raise StructureError(f"route {r} is not controlled; cannot cancel")
        if not is_flexible_route(X, r):
            raise StructureError(f"route {r} is not flexible; cannot cancel")
    cells = set(X.cells)
    cells.add(SquareCell(Route(s, s, (e, e_reverse)), Route.constant(s)))
    cells.add(SquareCell(Route(d, d, (e_reverse, e)), Route.constant(d)))
    edges = {eid: X.graph.endpoints(eid) for eid in X.graph.edge_ids}
    return PresentedComplex(Graph(X.graph.vertices, edges), gens, cells)
