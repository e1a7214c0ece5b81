"""Covering maps between controlled complexes.

A covering map sends vertices and edges of a total complex onto a base
complex so that every vertex star maps bijectively, every controlled base
route lifts to a controlled total route from any fibre point, and the
flexible vertices upstairs are exactly the fibres of the flexible
vertices downstairs.  Lifting is edge-by-edge and unique; dwells lift
verbatim.

Finite windows of the controlled line stand in for the infinite total
spaces of exponential covers, so window boundary vertices are excluded
from the star condition and lifts that run off through them are counted
as skipped rather than failed.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .core import (
    ControlledComplex,
    EdgeId,
    Route,
    StructureError,
    VertexId,
    _decorate,
    _dwell_masks,
    _dwell_width,
    _satisfies,
    _upset_size,
    check_bound,
    enumerate_words,
    idkey,
    render_id,
)
from .pi1 import pi1
from .spaces import circle_n_stop, line_c

__all__ = [
    "CoveringMap",
    "identity_cover",
    "exponential_cover",
    "CoveringReport",
    "validate_covering",
    "lift_route",
    "LiftingBijectionReport",
    "check_lifting_bijection",
]


@dataclass(frozen=True, eq=False)
class CoveringMap:
    """Vertex and edge maps from a total complex onto a base complex.

    ``excluded`` lists total-space vertices (window boundaries) exempt
    from the star condition.  Construction checks the maps are total and
    commute with endpoints; the covering conditions themselves are
    checked by ``validate_covering``.
    """

    total: ControlledComplex
    base: ControlledComplex
    vmap: Mapping[VertexId, VertexId]
    emap: Mapping[EdgeId, EdgeId]
    excluded: frozenset[VertexId] = frozenset()

    def __post_init__(self) -> None:
        object.__setattr__(self, "vmap", dict(self.vmap))
        object.__setattr__(self, "emap", dict(self.emap))
        object.__setattr__(self, "excluded", frozenset(self.excluded))
        tg, bg = self.total.graph, self.base.graph
        for v in tg.vertices:
            if v not in self.vmap:
                raise StructureError(f"vmap misses vertex {render_id(v)}")
            if self.vmap[v] not in bg.vertices:
                raise StructureError(f"vmap sends {render_id(v)} outside the base")
        for e in tg.edge_ids:
            if e not in self.emap:
                raise StructureError(f"emap misses edge {render_id(e)}")
            img = self.emap[e]
            if not bg.has_edge(img):
                raise StructureError(f"emap sends {render_id(e)} outside the base")
            if self.vmap[tg.src(e)] != bg.src(img) or self.vmap[tg.dst(e)] != bg.dst(img):
                raise StructureError(
                    f"emap does not commute with endpoints at {render_id(e)}"
                )
        if not self.excluded <= tg.vertices:
            raise StructureError("excluded set mentions unknown vertices")

    def fibre(self, y: VertexId) -> tuple[VertexId, ...]:
        return tuple(
            sorted((x for x in self.total.graph.vertices if self.vmap[x] == y), key=idkey)
        )

    def project(self, r: Route) -> Route:
        """Image of a total route downstairs; dwells carry over verbatim."""
        self.total.graph.validate_route(r)
        return Route(
            self.vmap[r.start],
            self.vmap[r.end],
            tuple(self.emap[e] for e in r.edges),
            r.dwells,
        )


def identity_cover(X: ControlledComplex) -> CoveringMap:
    return CoveringMap(
        X,
        X,
        {v: v for v in X.graph.vertices},
        {e: e for e in X.graph.edge_ids},
    )


def exponential_cover(n: int, window: int) -> CoveringMap:
    """Winding cover of the n-stop cyclic space by a window of the line.

    Vertex k maps to k mod n, edge k to cycle edge k mod n; the window
    edges -window and window are excluded from the star condition.
    """
    if n < 1:
        raise StructureError("the cyclic base needs n >= 1")
    if window < 1:
        raise StructureError("the line window needs window >= 1")
    total = line_c(window)
    base = circle_n_stop(n)
    vmap = {str(k): str(k % n) for k in range(-window, window + 1)}
    emap = {f"e{k}": f"e{k % n}" for k in range(-window, window)}
    return CoveringMap(total, base, vmap, emap, frozenset({str(-window), str(window)}))


class _LiftRunsOff(Exception):
    def __init__(self, vertex: VertexId, edge: EdgeId) -> None:
        self.vertex = vertex
        self.edge = edge
        super().__init__(vertex, edge)


def _lift_edges(p: CoveringMap, b: Route, x0: VertexId) -> Route:
    tg = p.total.graph
    x = x0
    edges: list[EdgeId] = []
    for f in b.edges:
        matches = [e for e in tg.out_edges(x) if p.emap[e] == f]
        if not matches:
            raise _LiftRunsOff(x, f)
        if len(matches) > 1:
            raise StructureError(
                f"lift is not unique at {render_id(x)}: "
                f"{len(matches)} edges over {render_id(f)}"
            )
        edges.append(matches[0])
        x = tg.dst(matches[0])
    return Route(x0, x, tuple(edges), b.dwells)


def _lift_or_witness(p: CoveringMap, b: Route, x0: VertexId) -> Route | str | None:
    """The lift of b from x0, None when it runs off through an excluded
    vertex, or the witness text when lifting fails."""
    try:
        return _lift_edges(p, b, x0)
    except _LiftRunsOff as stop:
        if stop.vertex in p.excluded:
            return None
        return f"no edge over {render_id(stop.edge)} at {render_id(stop.vertex)}"
    except StructureError as err:
        return str(err)


def lift_route(p: CoveringMap, b: Route, x0: VertexId) -> Route:
    """The unique lift of a base route starting at x0; dwells verbatim."""
    p.base.graph.validate_route(b)
    if x0 not in p.total.graph.vertices:
        raise StructureError(f"unknown vertex {render_id(x0)}")
    if p.vmap[x0] != b.start:
        raise StructureError(
            f"{render_id(x0)} lies over {render_id(p.vmap[x0])}, "
            f"but the route starts at {render_id(b.start)}"
        )
    try:
        return _lift_edges(p, b, x0)
    except _LiftRunsOff as stop:
        where = "window boundary " if stop.vertex in p.excluded else ""
        raise StructureError(
            f"lift runs off at {where}{render_id(stop.vertex)}: "
            f"no edge over {render_id(stop.edge)}"
        ) from None


@dataclass(frozen=True)
class CoveringReport:
    valid: bool
    star_ok: bool
    lift_ok: bool
    flexible_ok: bool
    bound: int
    excluded: frozenset[VertexId]
    checked_lifts: int
    skipped_lifts: int
    witnesses: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.valid


def validate_covering(p: CoveringMap, bound: int) -> CoveringReport:
    """Check the covering conditions to the given bound.

    Star bijections and the flexible-support equation are exact; the
    controlled-lift condition is checked for every controlled base route
    up to the bound from every fibre point.  Lifts that run off through
    an excluded vertex are skipped, not failed.

    Lifting ignores dwells and membership is monotone in them, so each
    dwell-free base word is lifted once per fibre point, and its lift is
    asked only at the base word's minimal dwell sets; the counts still
    add one per controlled decoration and fibre point.  A word whose
    lifts fail is replayed decoration by decoration, so the witnesses are
    listed in route enumeration order.
    """
    check_bound(bound)
    tg, bg = p.total.graph, p.base.graph
    witnesses: list[str] = []

    star_ok = True
    for x in sorted(tg.vertices - p.excluded, key=idkey):
        for mine, theirs, side in (
            (tg.out_edges(x), bg.out_edges(p.vmap[x]), "out"),
            (tg.in_edges(x), bg.in_edges(p.vmap[x]), "in"),
        ):
            images = [p.emap[e] for e in mine]
            if len(set(images)) != len(images) or sorted(
                images, key=idkey
            ) != sorted(theirs, key=idkey):
                star_ok = False
                witnesses.append(
                    f"star not bijective at {render_id(x)} ({side}-edges)"
                )

    flexible_ok = p.total.flexible == {
        x for x in tg.vertices if p.vmap[x] in p.base.flexible
    }
    if not flexible_ok:
        witnesses.append("flexible vertices upstairs are not the flexible fibres")

    lift_ok = True
    checked = 0
    skipped = 0
    total, memo = p.total, {}
    fibres = {y: p.fibre(y) for y in bg.vertices}
    for start, word, end in enumerate_words(bg, bound):
        needs = p.base._minimal_dwells(start, word, end)
        if not needs:
            continue
        b = Route(start, end, word)
        lifts = [_lift_or_witness(p, b, x0) for x0 in fibres[start]]
        if not any(isinstance(lift, str) for lift in lifts) and all(
            total._accepts(lift.start, lift.edges, lift.end, need, memo)
            for lift in lifts if lift is not None for need in needs
        ):
            decorations = _upset_size(needs, _dwell_width(len(word)))
            skipped += decorations * lifts.count(None)
            checked += decorations * (len(lifts) - lifts.count(None))
            continue
        lift_ok = False
        for mask in _dwell_masks(len(word)):
            if not _satisfies(mask, needs):
                continue
            for lift in lifts:
                if lift is None:
                    skipped += 1
                elif isinstance(lift, str):
                    witnesses.append(lift)
                else:
                    checked += 1
                    if not total._accepts(lift.start, lift.edges, lift.end, mask, memo):
                        witnesses.append(
                            f"lift {_decorate(lift, mask)} of {_decorate(b, mask)} "
                            "is not controlled"
                        )
    valid = star_ok and lift_ok and flexible_ok
    return CoveringReport(
        valid, star_ok, lift_ok, flexible_ok, bound, p.excluded,
        checked, skipped, tuple(witnesses),
    )


@dataclass(frozen=True)
class LiftingBijectionReport:
    """Outcome of the hom-set bijection audit at one base target."""

    bijective: bool
    base_point: VertexId
    target: VertexId
    fibre: tuple[VertexId, ...]
    base_classes: int
    total_classes: int
    pairs: tuple[tuple[Route, VertexId, Route], ...]
    witnesses: tuple[str, ...] = ()

    def __bool__(self) -> bool:
        return self.bijective


def check_lifting_bijection(
    p: CoveringMap, x0: VertexId, y: VertexId, bound: int
) -> LiftingBijectionReport:
    """Audit the bijection between base classes out of the image of x0
    into y and the total classes out of x0 into the fibre of y.

    Lifts representatives of base classes, checks injectivity upstairs,
    and checks surjectivity by projecting every unmatched total class.
    """
    if x0 not in p.total.flexible:
        raise StructureError(f"{render_id(x0)} is not flexible upstairs")
    if y not in p.base.flexible:
        raise StructureError(f"{render_id(y)} is not flexible in the base")
    cat_base = pi1(p.base, bound)
    cat_total = pi1(p.total, bound)
    fibre = p.fibre(y)
    witnesses: list[str] = []
    pairs: list[tuple[Route, VertexId, Route]] = []
    hit: dict[tuple[VertexId, int], Route] = {}
    ok = True

    base_hom = cat_base.hom(p.vmap[x0], y)
    for c in base_hom:
        try:
            lift = lift_route(p, c.rep, x0)
        except StructureError as err:
            ok = False
            witnesses.append(f"cannot lift {c.rep}: {err}")
            continue
        t = cat_total.class_of(lift)
        if t is None:
            ok = False
            witnesses.append(f"lift {lift} is not realizable upstairs")
            continue
        key = (lift.end, t.index)
        if key in hit:
            ok = False
            witnesses.append(
                f"classes of {hit[key]} and {c.rep} lift to one class upstairs"
            )
        hit[key] = c.rep
        pairs.append((c.rep, lift.end, t.rep))

    total_count = 0
    for x in fibre:
        for t in cat_total.hom(x0, x):
            total_count += 1
            if (x, t.index) not in hit:
                ok = False
                down = p.project(t.rep)
                witnesses.append(
                    f"total class of {t.rep} (projects to {down}) is never lifted to"
                )
    return LiftingBijectionReport(
        ok, x0, y, fibre, len(base_hom), total_count, tuple(pairs), tuple(witnesses)
    )
