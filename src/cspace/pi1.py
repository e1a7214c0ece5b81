"""Fundamental category of a controlled complex.

Objects are the flexible vertices.  Arrows are equivalence classes of
labels, where a label is a start vertex plus a dwell-erased edge word; a
label stands for every dwell decoration of itself, and it is realizable
iff its maximal decoration is controlled (membership only ever requires
dwells, so the maximal decoration is the weakest to refuse).  Two labels
are equivalent when a chain of cell moves joins them: replacing one
contiguous occurrence of a cell side by the other side, both whole labels
realizable and within the length bound.  Composition concatenates
representatives.

Enumeration is truncated at a length bound.  The category is exact when
the path-support graph is acyclic with longest path within the bound;
otherwise it is flagged possibly incomplete.
"""
from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Iterable, Mapping

from .core import (
    CompositionError,
    ControlledComplex,
    EdgeId,
    Route,
    StructureError,
    VertexId,
    check_bound,
    idkey,
    reflect_dhat,
    reflect_fl,
)
from .spaces import full_substructure, product, sum_complex

__all__ = [
    "Label",
    "ArrowClass",
    "FundamentalCategory",
    "pi1",
    "hom_classes",
    "MonoidTable",
    "fundamental_monoid",
    "is_one_simple",
    "ComparisonFunctors",
    "induced_comparisons",
    "FullnessReport",
    "check_fullness",
    "ProductPreservationReport",
    "check_product_preservation",
    "SumPreservationReport",
    "check_sum_preservation",
]

Label = tuple  # (start vertex, dwell-erased edge word)


class _UnionFind:
    def __init__(self, items: Iterable) -> None:
        self._parent = {x: x for x in items}
        self._rank = {x: 0 for x in self._parent}

    def find(self, x):
        root = x
        while self._parent[root] != root:
            root = self._parent[root]
        while self._parent[x] != root:
            self._parent[x], x = root, self._parent[x]
        return root

    def union(self, a, b) -> None:
        ra, rb = self.find(a), self.find(b)
        if ra == rb:
            return
        if self._rank[ra] < self._rank[rb]:
            ra, rb = rb, ra
        self._parent[rb] = ra
        if self._rank[ra] == self._rank[rb]:
            self._rank[ra] += 1


def max_decoration(start: VertexId, end: VertexId, word: tuple[EdgeId, ...]) -> Route:
    return Route(start, end, word, frozenset(range(len(word) + 1)))


def is_realizable(X: ControlledComplex, start: VertexId, word: tuple[EdgeId, ...]) -> bool:
    r = X.graph.route(start, word)
    return X.is_controlled(max_decoration(start, r.end, word))


def _word_key(word: tuple[EdgeId, ...]) -> tuple:
    return (len(word), tuple(idkey(e) for e in word))


@dataclass(frozen=True)
class ArrowClass:
    """One arrow: a move-connected set of realizable labels."""

    index: int
    source: VertexId
    target: VertexId
    rep: Route
    labels: frozenset[Label]

    @property
    def size(self) -> int:
        return len(self.labels)

    def __str__(self) -> str:
        return f"[{self.rep}]"


class FundamentalCategory:
    """Truncated fundamental category: objects, arrow classes, composition."""

    def __init__(
        self,
        objects: Iterable[VertexId],
        arrows: Iterable[ArrowClass],
        bound: int,
        possibly_incomplete: bool,
    ) -> None:
        self._objects = tuple(sorted(objects, key=idkey))
        self._arrows = tuple(arrows)
        self._bound = bound
        self._possibly_incomplete = possibly_incomplete
        self._by_label: dict[Label, int] = {}
        grouped: dict[tuple[VertexId, VertexId], list[int]] = {}
        for a in self._arrows:
            for lab in a.labels:
                self._by_label[lab] = a.index
            grouped.setdefault((a.source, a.target), []).append(a.index)
        self._homs = {k: tuple(v) for k, v in grouped.items()}

    @property
    def objects(self) -> tuple[VertexId, ...]:
        return self._objects

    @property
    def arrows(self) -> tuple[ArrowClass, ...]:
        return self._arrows

    @property
    def bound(self) -> int:
        return self._bound

    @property
    def possibly_incomplete(self) -> bool:
        return self._possibly_incomplete

    @property
    def arrow_count(self) -> int:
        return len(self._arrows)

    def hom(self, x: VertexId, y: VertexId) -> tuple[ArrowClass, ...]:
        return tuple(self._arrows[i] for i in self._homs.get((x, y), ()))

    def class_of_label(self, start: VertexId, word: Iterable[EdgeId]) -> ArrowClass | None:
        idx = self._by_label.get((start, tuple(word)))
        return None if idx is None else self._arrows[idx]

    def class_of(self, r: Route) -> ArrowClass | None:
        """Class of a route; the dwell set is erased first."""
        return self.class_of_label(r.start, r.edges)

    def identity(self, x: VertexId) -> ArrowClass:
        a = self.class_of_label(x, ())
        if a is None:
            raise StructureError(f"no identity at {x!r}: vertex is not an object")
        return a

    def compose(self, a: ArrowClass, b: ArrowClass) -> ArrowClass | None:
        """Diagrammatic composite of a: x->y then b: y->z, or None when the
        concatenated representative exceeds the bound."""
        if a.target != b.source:
            raise CompositionError(
                f"cannot compose: first arrow ends at {a.target!r}, "
                f"second starts at {b.source!r}"
            )
        word = a.rep.edges + b.rep.edges
        if len(word) > self._bound:
            return None
        out = self.class_of_label(a.source, word)
        if out is None:
            raise StructureError("concatenation of realizable labels must be realizable")
        return out

    def is_preorder(self) -> bool:
        return all(len(v) <= 1 for v in self._homs.values())


def _support_truncated(X: ControlledComplex, bound: int) -> bool:
    """True when controlled routes may outrun the bound: the support graph
    has a directed cycle, or its longest path exceeds the bound."""
    verts, edges = X.support_upper()
    out: dict[VertexId, list[VertexId]] = {v: [] for v in verts}
    indeg: dict[VertexId, int] = {v: 0 for v in verts}
    for e in edges:
        s, d = X.graph.endpoints(e)
        out[s].append(d)
        indeg[d] += 1
    queue = [v for v in verts if indeg[v] == 0]
    dist = {v: 0 for v in verts}
    seen = 0
    while queue:
        v = queue.pop()
        seen += 1
        for w in out[v]:
            dist[w] = max(dist[w], dist[v] + 1)
            indeg[w] -= 1
            if indeg[w] == 0:
                queue.append(w)
    if seen < len(verts):
        return True
    return bool(dist) and max(dist.values()) > bound


def _realizable_labels(X: ControlledComplex, bound: int) -> dict[Label, VertexId]:
    labels: dict[Label, VertexId] = {}
    for x in sorted(X.flexible, key=idkey):
        for word, end in X.graph.iter_words(x, bound):
            if X.is_controlled(max_decoration(x, end, word)):
                labels[(x, word)] = end
    return labels


def _apply_moves(
    X: ControlledComplex, labels: dict[Label, VertexId], bound: int
) -> _UnionFind:
    uf = _UnionFind(labels)
    sides = []
    for c in X.cells:
        sides.append((c.left, c.right))
        sides.append((c.right, c.left))
    for (start, word), end in labels.items():
        chain = X.graph.visited(Route(start, end, word))
        for old, new in sides:
            k = len(old.edges)
            if len(word) - k + len(new.edges) > bound:
                continue
            if k == 0:
                spots = [i for i in range(len(word) + 1) if chain[i] == old.start]
            else:
                # an edge-word match fixes the whole vertex chain
                spots = [
                    i
                    for i in range(len(word) - k + 1)
                    if word[i : i + k] == old.edges
                ]
            for i in spots:
                moved = (start, word[:i] + new.edges + word[i + k :])
                if moved in labels:
                    uf.union((start, word), moved)
    return uf


def pi1(X: ControlledComplex, bound: int) -> FundamentalCategory:
    """Truncated fundamental category at the given length bound."""
    check_bound(bound)
    labels = _realizable_labels(X, bound)
    uf = _apply_moves(X, labels, bound)
    groups: dict[Label, list[Label]] = {}
    for lab in labels:
        groups.setdefault(uf.find(lab), []).append(lab)
    keyed = []
    for members in groups.values():
        rep_start, rep_word = min(members, key=lambda L: _word_key(L[1]))
        end = labels[(rep_start, rep_word)]
        rep = Route(rep_start, end, rep_word)
        keyed.append((idkey(rep_start), idkey(end), _word_key(rep_word), rep, members))
    keyed.sort(key=lambda t: t[:3])
    arrows = [
        ArrowClass(i, rep.start, rep.end, rep, frozenset(members))
        for i, (_, _, _, rep, members) in enumerate(keyed)
    ]
    return FundamentalCategory(
        X.flexible, arrows, bound, _support_truncated(X, bound)
    )


def hom_classes(
    X: ControlledComplex, x: VertexId, y: VertexId, bound: int
) -> tuple[ArrowClass, ...]:
    for v in (x, y):
        if v not in X.flexible:
            raise StructureError(f"{v!r} is not a flexible vertex")
    return pi1(X, bound).hom(x, y)


@dataclass(frozen=True)
class MonoidTable:
    """Endo-hom at a basepoint with its composition table.

    ``table[i][j]`` is the index of class i followed by class j, or None
    when the composite representative runs past the bound.
    """

    basepoint: VertexId
    classes: tuple[ArrowClass, ...]
    table: tuple[tuple[int | None, ...], ...]
    identity_index: int
    bound: int
    truncated: bool


def fundamental_monoid(X: ControlledComplex, x0: VertexId, bound: int) -> MonoidTable:
    if x0 not in X.flexible:
        raise StructureError(f"{x0!r} is not a flexible vertex")
    cat = pi1(X, bound)
    classes = cat.hom(x0, x0)
    local = {a.index: i for i, a in enumerate(classes)}
    rows = []
    for a in classes:
        row = []
        for b in classes:
            c = cat.compose(a, b)
            row.append(None if c is None else local[c.index])
        rows.append(tuple(row))
    identity = local[cat.identity(x0).index]
    return MonoidTable(
        x0, classes, tuple(rows), identity, bound, cat.possibly_incomplete
    )


def is_one_simple(X: ControlledComplex, bound: int) -> bool:
    """Bounded verdict: every truncated hom has at most one class."""
    return pi1(X, bound).is_preorder()


# ---------------------------------------------------------------------------
# comparison functors


def _arrow_map(
    src: FundamentalCategory, dst: FundamentalCategory
) -> tuple[dict[int, int], bool]:
    """Map classes along the identity on labels; flag well-definedness
    plus functoriality (identities and in-bound composites)."""
    amap: dict[int, int] = {}
    ok = True
    for a in src.arrows:
        images = {dst.class_of_label(s, w) for s, w in a.labels}
        if None in images:
            return amap, False
        indices = {b.index for b in images}
        if len(indices) != 1:
            ok = False
        amap[a.index] = min(indices)
    for x in src.objects:
        if dst.class_of_label(x, ()) is None:
            return amap, False
        if amap[src.identity(x).index] != dst.identity(x).index:
            ok = False
    for a in src.arrows:
        for b in src.arrows:
            if a.target != b.source:
                continue
            c = src.compose(a, b)
            if c is None:
                continue
            d = dst.compose(dst.arrows[amap[a.index]], dst.arrows[amap[b.index]])
            if d is None or amap[c.index] != d.index:
                ok = False
    return amap, ok


def _hom_image_check(
    src: FundamentalCategory,
    dst: FundamentalCategory,
    amap: Mapping[int, int],
    pairs: Iterable[tuple[VertexId, VertexId]],
) -> tuple[bool, bool, tuple[tuple[VertexId, VertexId, Route], ...]]:
    """Fullness and faithfulness of the mapped functor over given object pairs."""
    full = True
    faithful = True
    missing: list[tuple[VertexId, VertexId, Route]] = []
    for x, y in pairs:
        images = [amap[a.index] for a in src.hom(x, y)]
        if len(set(images)) != len(images):
            faithful = False
        hit = set(images)
        for b in dst.hom(x, y):
            if b.index not in hit:
                full = False
                missing.append((x, y, b.rep))
    return full, faithful, tuple(missing)


@dataclass(frozen=True)
class ComparisonFunctors:
    """The two canonical comparisons: flexible part -> whole -> generated
    d-space, on truncated data."""

    flexible_part: FundamentalCategory
    whole: FundamentalCategory
    generated: FundamentalCategory
    first_arrow_map: Mapping[int, int]
    second_arrow_map: Mapping[int, int]
    first_functorial: bool
    second_functorial: bool
    second_full: bool
    second_faithful: bool
    non_fullness: tuple[tuple[VertexId, VertexId, Route], ...]


def induced_comparisons(X: ControlledComplex, bound: int) -> ComparisonFunctors:
    cat_fl = pi1(reflect_fl(X), bound)
    cat_x = pi1(X, bound)
    cat_dh = pi1(reflect_dhat(X), bound)
    first_map, first_ok = _arrow_map(cat_fl, cat_x)
    second_map, second_ok = _arrow_map(cat_x, cat_dh)
    pairs = [(x, y) for x in cat_x.objects for y in cat_x.objects]
    full, faithful, missing = _hom_image_check(cat_x, cat_dh, second_map, pairs)
    return ComparisonFunctors(
        cat_fl,
        cat_x,
        cat_dh,
        first_map,
        second_map,
        first_ok,
        second_ok,
        full,
        faithful,
        missing,
    )


@dataclass(frozen=True)
class FullnessReport:
    """Is the truncated category of a full substructure the full
    subcategory on its vertices?"""

    full: bool
    faithful: bool
    witnesses: tuple[tuple[VertexId, VertexId, Route], ...]

    def __bool__(self) -> bool:
        return self.full and self.faithful


def check_fullness(X: ControlledComplex, S: Iterable[VertexId], bound: int) -> FullnessReport:
    sub = full_substructure(X, S)
    cat_sub = pi1(sub, bound)
    cat_x = pi1(X, bound)
    amap, ok = _arrow_map(cat_sub, cat_x)
    pairs = [(x, y) for x in cat_sub.objects for y in cat_sub.objects]
    full, faithful, missing = _hom_image_check(cat_sub, cat_x, amap, pairs)
    return FullnessReport(full and ok, faithful, missing)


# ---------------------------------------------------------------------------
# product and sum preservation


@dataclass(frozen=True)
class ProductPreservationReport:
    objects_bijective: bool
    homs_bijective: bool
    product_objects: int
    product_arrows: int
    pairs_in_bound: int
    mismatches: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.objects_bijective and self.homs_bijective


def check_product_preservation(
    X: ControlledComplex, Y: ControlledComplex, bound: int
) -> ProductPreservationReport:
    """Compare the truncated category of a product with the product of the
    truncated factor categories: the projection pair must be a bijection
    between in-bound arrows (pairs whose representatives fit the bound
    jointly)."""
    P = product(X, Y)
    cat_p = pi1(P, bound)
    cat_x = pi1(X, bound)
    cat_y = pi1(Y, bound)
    mismatches: list[str] = []

    want_objects = {(x, y) for x in cat_x.objects for y in cat_y.objects}
    objects_ok = set(cat_p.objects) == want_objects
    if not objects_ok:
        mismatches.append("object sets differ")

    def project(label: Label) -> tuple[Label, Label]:
        (x, y), word = label
        lw = tuple(step[1] for step in word if step[0] == "L")
        rw = tuple(step[2] for step in word if step[0] == "R")
        return (x, lw), (y, rw)

    homs_ok = True
    image: dict[int, tuple[int, int]] = {}
    for a in cat_p.arrows:
        pairs = set()
        for lab in a.labels:
            (lx, lw), (ry, rw) = project(lab)
            ca = cat_x.class_of_label(lx, lw)
            cb = cat_y.class_of_label(ry, rw)
            if ca is None or cb is None:
                homs_ok = False
                mismatches.append(f"projection of {a} leaves the factor category")
                break
            pairs.add((ca.index, cb.index))
        if len(pairs) != 1:
            homs_ok = False
            mismatches.append(f"projections of {a} disagree across its labels")
            continue
        image[a.index] = next(iter(pairs))

    wanted: set[tuple[int, int]] = set()
    for a in cat_x.arrows:
        for b in cat_y.arrows:
            if a.rep.length + b.rep.length <= bound:
                wanted.add((a.index, b.index))
    got = set(image.values())
    if len(got) != len(image):
        homs_ok = False
        mismatches.append("projection pair not injective on classes")
    if got != wanted:
        homs_ok = False
        for pair in sorted(wanted - got):
            mismatches.append(f"factor pair {pair} not reached")
        for pair in sorted(got - wanted):
            mismatches.append(f"extra image pair {pair}")
    return ProductPreservationReport(
        objects_ok,
        homs_ok,
        len(cat_p.objects),
        cat_p.arrow_count,
        len(wanted),
        tuple(mismatches),
    )


@dataclass(frozen=True)
class SumPreservationReport:
    objects_bijective: bool
    homs_bijective: bool
    mismatches: tuple[str, ...]

    def __bool__(self) -> bool:
        return self.objects_bijective and self.homs_bijective


def check_sum_preservation(
    X: ControlledComplex, Y: ControlledComplex, bound: int
) -> SumPreservationReport:
    """The truncated category of a sum must be the disjoint union of the
    factor categories: untagging is a bijection on objects and arrows."""
    S = sum_complex(X, Y)
    cat_s = pi1(S, bound)
    cat_x = pi1(X, bound)
    cat_y = pi1(Y, bound)
    mismatches: list[str] = []

    want_objects = {("L", x) for x in cat_x.objects} | {("R", y) for y in cat_y.objects}
    objects_ok = set(cat_s.objects) == want_objects
    if not objects_ok:
        mismatches.append("object sets differ")

    homs_ok = True
    image: dict[int, tuple[str, int]] = {}
    for a in cat_s.arrows:
        targets = set()
        for (tag, x), word in a.labels:
            plain = tuple(e for _, e in word)
            cat = cat_x if tag == "L" else cat_y
            c = cat.class_of_label(x, plain)
            if c is None:
                homs_ok = False
                mismatches.append(f"untagging of {a} leaves the factor category")
                break
            targets.add((tag, c.index))
        if len(targets) != 1:
            homs_ok = False
            mismatches.append(f"untaggings of {a} disagree across its labels")
            continue
        image[a.index] = next(iter(targets))

    wanted = {("L", a.index) for a in cat_x.arrows}
    wanted |= {("R", a.index) for a in cat_y.arrows}
    got = set(image.values())
    if len(got) != len(image) or got != wanted:
        homs_ok = False
        mismatches.append("untagged classes do not pair off with the factors")
    return SumPreservationReport(objects_ok, homs_ok, tuple(mismatches))
