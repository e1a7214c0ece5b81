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

One walk over the base words up to the bound checks the lift condition,
carrying each prefix's minimal dwell sets and the fibre points' lifts.
When base and total are both presented, a finite certificate decides
whether the walk asks the total space anything: every fibre point over
a flexible base vertex is flexible upstairs, and every base generator
within the bound, lifted from every fibre point over its start, is
controlled upstairs with its own dwells or runs off at an excluded
vertex.  Lifts commute with concatenation and a presented space is
closed under it, so then every controlled base route within the bound
lifts or runs off, and the walk only counts the lifts.  Otherwise it
asks the total about each word's lifts and lists the witnesses.
"""
from __future__ import annotations

from collections.abc import Mapping
from dataclasses import dataclass

from .core import (
    ControlledComplex,
    EdgeId,
    PresentedComplex,
    Route,
    StructureError,
    VertexId,
    Word,
    _dwell_masks,
    _dwell_width,
    _mask,
    _positions,
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
    from the star condition.  Construction checks the maps are total,
    have no key outside the total space and commute with endpoints, and
    indexes the total edges at each vertex over each base edge and each
    fibre in ``idkey`` order; the covering conditions themselves are
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
        fibres: dict[VertexId, tuple[VertexId, ...]] = {}
        for v in tg._ordered_vertices:
            if v not in self.vmap:
                raise StructureError(f"vmap misses vertex {render_id(v)}")
            if self.vmap[v] not in bg.vertices:
                raise StructureError(f"vmap sends {render_id(v)} outside the base")
            fibres[self.vmap[v]] = fibres.get(self.vmap[v], ()) + (v,)
        # (total vertex, base edge) -> the total edges out of it over that edge
        over: dict[tuple[VertexId, EdgeId], tuple[EdgeId, ...]] = {}
        for e in tg.edge_ids:
            if e not in self.emap:
                raise StructureError(f"emap misses edge {render_id(e)}")
            img = self.emap[e]
            if not bg.has_edge(img):
                raise StructureError(f"emap sends {render_id(e)} outside the base")
            src = tg.src(e)
            if self.vmap[src] != bg.src(img) or self.vmap[tg.dst(e)] != bg.dst(img):
                raise StructureError(
                    f"emap does not commute with endpoints at {render_id(e)}"
                )
            over[src, img] = over.get((src, img), ()) + (e,)
        for name, keys, ids, noun in (("vmap", self.vmap, tg.vertices, "vertex"),
                                      ("emap", self.emap, tg.edge_ids, "edge")):
            if stray := sorted(keys.keys() - ids, key=idkey):
                raise StructureError(f"{name} key {render_id(stray[0])} is not a total {noun}")
        if not self.excluded <= tg.vertices:
            raise StructureError("excluded set mentions unknown vertices")
        object.__setattr__(self, "_fibres", fibres)
        object.__setattr__(self, "_over", over)

    def fibre(self, y: VertexId) -> tuple[VertexId, ...]:
        return self._fibres.get(y, ())

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


def _lift(p: CoveringMap, x0: VertexId, word: Word) -> tuple[Word, VertexId, int]:
    """Lift a base word from x0 through the map's index: the lifted edges,
    the vertex reached, and 1 when the lift goes through.  Otherwise the
    lift stopped at that vertex before ``word[len(edges)]``, and the count
    is how many total edges lie over that base edge there: 0 when the lift
    runs off, more when it is not unique."""
    over, dst = p._over, p.total.graph.dst
    x = x0
    edges: list[EdgeId] = []
    for f in word:
        above = over.get((x, f), ())
        if len(above) != 1:
            return tuple(edges), x, len(above)
        edges.append(above[0])
        x = dst(above[0])
    return tuple(edges), x, 1


def _stuck(p: CoveringMap, x: VertexId, count: int, f: EdgeId) -> str:
    """Why a lift stopped at x before the base edge f, with ``count``
    total edges over f there."""
    if count:
        return f"lift is not unique at {render_id(x)}: {count} edges over {render_id(f)}"
    where = "window boundary " if x in p.excluded else ""
    return f"lift runs off at {where}{render_id(x)}: no edge over {render_id(f)}"


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
    edges, x, count = _lift(p, x0, b.edges)
    if count != 1:
        raise StructureError(_stuck(p, x, count, b.edges[len(edges)]))
    # b is a valid route, so its dwells are canonical for a word of this length
    return Route._known(x0, x, edges, b.dwells)


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

    One walk over the base words (``_walk_lifts``) checks the lifts.  When
    the generator certificate holds (``_generators_lift``), every controlled
    base route within the bound lifts or runs off at an excluded vertex, so
    the walk asks the total space nothing; otherwise it lists the witnesses.
    The walk keeps one entry per word length it reaches, so a bound past
    the base's longest word costs nothing more.
    """
    check_bound(bound)
    tg, bg = p.total.graph, p.base.graph
    witnesses: list[str] = []

    # the maps commute with endpoints, so every image of an edge at x is an
    # edge at vmap[x]: the star bijects iff its images are distinct and as
    # many as theirs
    star_ok = True
    for x in tg._ordered_vertices:
        if x in p.excluded:
            continue
        for mine, theirs, side in (
            (tg.out_edges(x), bg.out_edges(p.vmap[x]), "out"),
            (tg.in_edges(x), bg.in_edges(p.vmap[x]), "in"),
        ):
            if not len({p.emap[e] for e in mine}) == len(mine) == len(theirs):
                star_ok = False
                witnesses.append(
                    f"star not bijective at {render_id(x)} ({side}-edges)"
                )

    flexible_ok = p.total.flexible == {
        x for x in tg.vertices if p.vmap[x] in p.base.flexible
    }
    if not flexible_ok:
        witnesses.append("flexible vertices upstairs are not the flexible fibres")

    lift_ok, checked, skipped = _walk_lifts(p, bound, witnesses)
    valid = star_ok and lift_ok and flexible_ok
    return CoveringReport(
        valid, star_ok, lift_ok, flexible_ok, bound, p.excluded,
        checked, skipped, tuple(witnesses),
    )


def _generators_lift(p: CoveringMap, bound: int) -> bool:
    """The generator certificate for the lift condition at ``bound``.

    It applies when base and total are both presented, and holds iff
    every fibre point over a flexible base vertex is flexible upstairs,
    and every base generator of length <= bound, lifted from every fibre
    point over its start, is controlled upstairs with the generator's own
    dwells or runs off at an excluded vertex.

    Then every controlled base route of length <= bound lifts to a
    controlled route or runs off at an excluded vertex.  A nonempty
    controlled route splits into generator words, each of length <= bound,
    whose dwells, shifted to where each starts, lie in the route's dwells.
    Lifts are unique and commute with concatenation, so the lift from x0
    is the concatenation of the generators' lifts, each from a fibre point
    over that generator's start, up to where it stops.  A lift that stops
    stops inside one generator's lift, which therefore runs off at an
    excluded vertex.  A whole lift is a concatenation of controlled
    generator lifts, and a presented total accepts any concatenation of
    accepted pieces, and any larger dwell set, so it is controlled with
    the route's dwells, which lift verbatim.  An empty route is controlled
    iff its vertex is flexible, and its lifts are the constants over it,
    flexible upstairs by the first condition."""
    base, total = p.base, p.total
    if not (isinstance(base, PresentedComplex) and isinstance(total, PresentedComplex)):
        return False
    if any(x not in total.flexible for y in base.flexible for x in p.fibre(y)):
        return False
    for g in base.generators:
        if not g.edges or len(g.edges) > bound:
            continue
        dwells = _mask(g.dwells)
        for x0 in p.fibre(g.start):
            edges, x, count = _lift(p, x0, g.edges)
            if count == 1:
                if not total._accepts(x0, edges, x, dwells, {}):
                    return False
            elif count or x not in p.excluded:
                return False
    return True


def _walk_lifts(p: CoveringMap, bound: int, witnesses: list[str]) -> tuple[bool, int, int]:
    """The lift condition over every base word up to the bound, with
    witnesses appended in route enumeration order: whether it holds, and
    the checked and skipped counts, one per controlled decoration and fibre
    point.  ``enumerate_words`` lists the words from each base vertex, a
    prefix before its extensions, so the walk carries per length the prefix
    antichains (one ``PresentedComplex._dwell_step`` per word over a
    presented base) and the vertices of the lifts still whole, one index
    step per lift and edge.  Under the generator certificate the whole
    lifts are checked and the stuck ones, which all run off at excluded
    vertices, skipped.  Otherwise lifting ignores dwells and membership is
    monotone in them, so the total is asked about each whole lift at the
    word's minimal dwell sets; a word whose lifts fail is replayed
    decoration by decoration, and only the routes named in a witness are
    built."""
    base, total, excluded = p.base, p.total, p.excluded
    certified = _generators_lift(p, bound)
    step = base._dwell_step if isinstance(base, PresentedComplex) else None
    over, dst = p._over, total.graph.dst
    lift_ok = True
    checked = skipped = 0
    memo: dict = {}
    for start, word, end in enumerate_words(base.graph, bound):
        c = len(word)
        if c:
            f = word[-1]
            # a list: tuple() over a generator allocates a fresh tuple each
            # time, and the freed ones pile up on CPython's tuple free lists
            lifted = [dst(up[0]) for x in lifts[c - 1] if len(up := over.get((x, f), ())) == 1]
            got = step(word, c, needs) if step else base._minimal_dwells(start, word, end)
            needs[c:] = [got]
            lifts[c:] = [lifted]
        else:
            # a new base vertex; per length, the prefixes of the word walked:
            # needs[0] is the empty split of the DP, not the empty word's antichain
            fibre = lifted = p.fibre(start)
            needs, lifts = [frozenset({0})], [fibre]
            got = base._minimal_dwells(start, word, end)
        if not got:
            continue
        decorations = _upset_size(got, _dwell_width(c))
        if certified:
            checked += decorations * len(lifted)
            skipped += decorations * (len(fibre) - len(lifted))
            continue
        lifts_of = [(x0, *_lift(p, x0, word)) for x0 in fibre]
        whole = [(x0, edges, x) for x0, edges, x, count in lifts_of if count == 1]
        off = sum(count == 0 and x in excluded for _, _, x, count in lifts_of)
        if len(whole) + off == len(lifts_of) and all(
            total._accepts(x0, edges, x, need, memo)
            for x0, edges, x in whole for need in got
        ):
            skipped += decorations * off
            checked += decorations * len(whole)
            continue
        lift_ok = False
        for mask in _dwell_masks(c):
            if not _satisfies(mask, got):
                continue
            for x0, edges, x, count in lifts_of:
                if count == 1:
                    checked += 1
                    if not total._accepts(x0, edges, x, mask, memo):
                        dwells = _positions(mask)
                        witnesses.append(
                            f"lift {Route(x0, x, edges, dwells)} of "
                            f"{Route(start, end, word, dwells)} is not controlled"
                        )
                elif count > 1:
                    witnesses.append(_stuck(p, x, count, word[len(edges)]))
                elif x in excluded:
                    skipped += 1
                else:
                    witnesses.append(
                        f"no edge over {render_id(word[len(edges)])} at {render_id(x)}"
                    )
    return lift_ok, checked, skipped


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
        word = c.rep.edges
        edges, x, count = _lift(p, x0, word)
        if count != 1:
            ok = False
            witnesses.append(f"cannot lift {c.rep}: {_stuck(p, x, count, word[len(edges)])}")
            continue
        t = cat_total.class_of_label(x0, edges)
        if t is None:
            ok = False
            witnesses.append(f"lift {Route(x0, x, edges)} is not realizable upstairs")
            continue
        key = (x, t.index)
        if key in hit:
            ok = False
            witnesses.append(
                f"classes of {hit[key]} and {c.rep} lift to one class upstairs"
            )
        hit[key] = c.rep
        pairs.append((c.rep, x, t.rep))

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
