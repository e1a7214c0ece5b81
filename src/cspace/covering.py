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

One walk over the base words up to the bound checks the lift condition.
Lifting ignores dwells and membership is monotone in them, so each base
word is lifted once per fibre point and the total is asked about each
whole lift only at the word's minimal dwell sets; a word whose lifts
fail is replayed decoration by decoration to list the witnesses.

A cover is immutable, so it keeps what the audit decides.  The star and
flexible-fibre facts are decided the first time the cover is asked.  The
walk keeps, per word length, the running tallies and its witnesses tagged
with their word's length: every bound up to the one walked is read from
that lift store, and the cover is walked again, once, only for a larger
bound when the last walk reached its own bound.
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
    Word,
    _dwell_masks,
    _dwell_width,
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

    The cover is immutable: the index (``_over``, ``_fibres``) and the
    lift store ``validate_covering`` keeps (``_facts``, ``_lifts``) derive
    from its maps, so neither the maps nor these may be mutated.
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
        # the lift store: (star_ok, flexible_ok, their witnesses) once asked,
        # and (bound walked, tallies, tagged witnesses) from _walk_lifts
        object.__setattr__(self, "_facts", None)
        object.__setattr__(self, "_lifts", (-1, [], []))

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

    One walk over the base words (``_walk_lifts``) checks the lifts,
    asking the total space about each whole lift of a base word at the
    word's minimal dwell sets, and lists the witnesses of a word that fails.

    The cover keeps the bound-free facts and the walk's per-length tallies
    and tagged witnesses, so a bound up to the one walked is read from them
    without walking.  A larger bound walks again, once, only when the last
    walk reached its own bound: a walk that stopped short of it has walked
    every word of the base, so a bound past the longest word costs nothing.
    """
    check_bound(bound)
    if p._facts is None:
        object.__setattr__(p, "_facts", _star_and_flexible(p))
    star_ok, flexible_ok, witnesses = p._facts
    walked, tallies, tagged = p._lifts
    if walked < bound and len(tallies) > walked:
        walked, tallies, tagged = bound, *_walk_lifts(p, bound)
        object.__setattr__(p, "_lifts", (walked, tallies, tagged))
    # tallies[c] covers the words of length <= c; an empty base has none
    lift_ok, checked, skipped = tallies[min(bound, len(tallies) - 1)] if tallies else (True, 0, 0)
    valid = star_ok and lift_ok and flexible_ok
    return CoveringReport(
        valid, star_ok, lift_ok, flexible_ok, bound, p.excluded, checked, skipped,
        (*witnesses, *(w for c, w in tagged if c <= bound)),
    )


def _star_and_flexible(p: CoveringMap) -> tuple[bool, bool, tuple[str, ...]]:
    """The bound-free conditions: whether every star outside the excluded
    vertices bijects, whether the flexible vertices upstairs are the
    flexible fibres, and their witnesses."""
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
    return star_ok, flexible_ok, tuple(witnesses)


def _walk_lifts(
    p: CoveringMap, bound: int
) -> tuple[list[tuple[bool, int, int]], list[tuple[int, str]]]:
    """The lift condition over every base word up to the bound, kept per
    word length: ``tallies[c]`` is whether it holds and the checked and
    skipped counts, one per controlled decoration and fibre point, over
    the words of length <= c, for each length c the walk reaches; the
    witnesses come in route enumeration order, each tagged with its word's
    length.  ``enumerate_words`` lists the words from each base vertex, a
    prefix before its extensions, so the words up to a smaller bound come
    in the same order, and a word's counts and witnesses do not depend on
    the bound.  Lifting ignores dwells and membership is monotone in them,
    so each word is lifted once per fibre point and the total is asked
    about each whole lift only at the word's minimal dwell sets: when all
    pass, every controlled decoration of every whole lift is controlled.
    A word whose lifts fail is replayed decoration by decoration, and only
    the routes named in a witness are built."""
    base, total, excluded = p.base, p.total, p.excluded
    per_length: list[list] = []  # [lift_ok, checked, skipped] per word length
    tagged: list[tuple[int, str]] = []
    memo: dict = {}
    for start, word, end in enumerate_words(base.graph, bound):
        c = len(word)
        if c == len(per_length):
            per_length.append([True, 0, 0])
        needs = base._minimal_dwells(start, word, end)
        if not needs:
            continue
        tally = per_length[c]
        lifts = [(x0, *_lift(p, x0, word)) for x0 in p.fibre(start)]
        whole = [(x0, edges, x) for x0, edges, x, count in lifts if count == 1]
        off = sum(count == 0 and x in excluded for _, _, x, count in lifts)
        if len(whole) + off == len(lifts) and all(
            total._accepts(x0, edges, x, need, memo)
            for x0, edges, x in whole for need in needs
        ):
            decorations = _upset_size(needs, _dwell_width(c))
            tally[1] += decorations * len(whole)
            tally[2] += decorations * off
            continue
        tally[0] = False
        for mask in _dwell_masks(c):
            if not _satisfies(mask, needs):
                continue
            for x0, edges, x, count in lifts:
                if count == 1:
                    tally[1] += 1
                    if not total._accepts(x0, edges, x, mask, memo):
                        dwells = _positions(mask)
                        tagged.append((c, (
                            f"lift {Route(x0, x, edges, dwells)} of "
                            f"{Route(start, end, word, dwells)} is not controlled"
                        )))
                elif count > 1:
                    tagged.append((c, _stuck(p, x, count, word[len(edges)])))
                elif x in excluded:
                    tally[2] += 1
                else:
                    tagged.append((c, (
                        f"no edge over {render_id(word[len(edges)])} at {render_id(x)}"
                    )))
    tallies, ok, checked, skipped = [], True, 0, 0
    for ok_c, checked_c, skipped_c in per_length:
        ok, checked, skipped = ok and ok_c, checked + checked_c, skipped + skipped_c
        tallies.append((ok, checked, skipped))
    return tallies, tagged


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
