"""Fundamental category of a controlled complex.

Objects are the flexible vertices.  Arrows are equivalence classes of
labels, where a label is a start vertex plus a dwell-erased edge word; a
label stands for every dwell decoration of itself, and it is realizable
iff its maximal decoration is controlled (membership only ever requires
dwells, so the maximal decoration is the weakest to refuse).  That is
the membership method every kind declares, ``_accepts``, asked at the
full dwell mask, with one memo for the whole walk: a product's factor
words recur across many product words, and the flexible part's answers
for the word without its first or last edge are already there.  The
walk asks ``_accepts`` itself and keeps no entry for the walked word, since
no kind reads back its own answer, only those of its parts.  Two labels
are equivalent when a chain of cell moves joins them: replacing one
contiguous occurrence of a cell side by the other side, both whole labels
realizable and within the length bound.  Representatives are the least
words, by length and then by edge ids in ``idkey`` order.  Composition
concatenates representatives.

Realizability does not depend on the bound, and a move is used at bound
b iff both of its labels have length <= b, so the category at b is the
set of components of one move graph restricted to the labels within b.
Each complex therefore keeps one label store, built on the first
``pi1`` call: one walk yields the realizable labels up to the largest
bound asked so far, numbered in representative order, and the cell
moves between them as pairs of label numbers sorted by the length of
the longer label.  A move reads as a move from either of its labels, so
it is found from the label holding the nonempty side of its cell: each
cell is indexed once by that side, and inserting an empty side is found
as deleting the other side from the longer label.  A call at a bound
within the store replays union-find over the moves that fit (its class
roots and their arrow ordinals are kept as int arrays per bound) and
returns a view that builds a hom's classes when asked: the labels of
one hom lie in one run of the store, found by bisection.  A larger
bound rebuilds the store by one walk to that bound.  The flexible part
of a flexible space has its base's graph, cells and realizable labels,
so its store holds the base's by reference and walks nothing; any other
complex walks its own.

The comparison functors and the product and sum audits work on label
numbers: a label's class is its root's ordinal, composites are looked up
from the representative words, and an ``ArrowClass`` or ``Route`` is
built only for what a report returns.  A complex keeps what its audits
derive from it, one slot per kind: ``induced_comparisons`` keeps X's
flexible part and generated d-space, and ``check_product_preservation``
keeps the product with the last right factor it saw.  A later audit of
the same base then reads those complexes' warm label stores, and their
memory (about 0.6 MiB for each of the two audits on the benchmark's
pool) lives as long as the base.  ``check_sum_preservation`` and
``check_fullness`` build their complex cold on each call: no workload
repeats them, and a full substructure is keyed by an open-ended vertex
set.  The public constructors (``product``, ``reflect_fl``, ...) keep
nothing, so a complex built outside an audit does not outlive its use.

Enumeration is truncated at a length bound.  The category is exact when
the path-support graph is acyclic with longest path within the bound;
otherwise it is flagged possibly incomplete.  The store keeps that
longest path, so the flag at any bound is one comparison.
"""
from __future__ import annotations

import itertools
import math
from array import array
from bisect import bisect_left, bisect_right
from collections.abc import Callable, Hashable, Iterable, Mapping, Sequence
from dataclasses import dataclass
from operator import is_, itemgetter

from .core import (
    CompositionError,
    ControlledComplex,
    EdgeId,
    FlexiblePart,
    Route,
    StructureError,
    VertexId,
    _full_mask,
    check_bound,
    idkey,
    reflect_dhat,
    reflect_fl,
    render_id,
)
from .spaces import full_substructure, product, sum_complex

__all__ = [
    "ArrowClass",
    "FundamentalCategory",
    "pi1",
    "is_realizable",
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


def is_realizable(X: ControlledComplex, start: VertexId, word: tuple[EdgeId, ...]) -> bool:
    """Whether the maximal decoration of the word is controlled in X."""
    r = X.graph.route(start, word)
    return X._accepts(start, r.edges, r.end, _full_mask(len(r.edges)), {})


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
    """Truncated fundamental category: objects, arrow classes, composition.

    Labels are numbered, and each label within the bound names its class
    by a root, one member of that class.  Label i lies in block
    ``keys[i] // width``, one block per (source, target) pair, so a hom's
    classes are the roots in its block.  ``pi1`` returns a view over the
    complex's label store that builds a hom's ``ArrowClass`` objects when
    the hom, one of its labels or the arrow list is first asked for, and
    hands the same objects back on every later ask; the store tells it
    whether some block holds two roots.  Built from explicit arrows, a
    category fills all of that up front: each arrow is its own root,
    numbered by its place in ``arrows``, and every hom is built.
    """

    def __init__(
        self,
        objects: Iterable[VertexId],
        arrows: Iterable[ArrowClass],
        bound: int,
        possibly_incomplete: bool,
    ) -> None:
        arrows = tuple(arrows)
        homs: dict[tuple[VertexId, VertexId], list[ArrowClass]] = {}
        for a in arrows:
            homs.setdefault((a.source, a.target), []).append(a)
        self._objects = tuple(sorted(objects, key=idkey))
        self._bound = bound
        self._possibly_incomplete = possibly_incomplete
        self._index = {lab: k for k, a in enumerate(arrows) for lab in a.labels}
        self._roots: Sequence[int] = range(len(arrows))
        # no store: every hom is built, so none is left to look up
        self._store: _LabelStore | None = None
        self._ordinals: Sequence[int] = range(len(arrows) + 1)
        self._heads: Sequence[int] = range(len(arrows))
        self._classes = dict(enumerate(arrows))
        self._homs = {pair: tuple(v) for pair, v in homs.items()}
        self._arrows: tuple[ArrowClass, ...] | None = arrows
        self._preorder = all(len(v) < 2 for v in homs.values())

    @classmethod
    def _view(
        cls, store: _LabelStore, bound: int, roots: array, ordinals: array, heads: array,
        preorder: bool,
    ) -> FundamentalCategory:
        """The category at ``bound`` over ``store``, whose classes at that
        bound are ``roots``, whose arrow indices are ``ordinals``, whose
        roots in arrow order are ``heads``, and ``preorder`` when no block
        holds two roots."""
        cat = cls.__new__(cls)
        cat._objects = store.objects
        cat._bound = bound
        cat._possibly_incomplete = store.longest > bound
        cat._index = store.index
        cat._roots = roots
        cat._keys = store.keys
        cat._width = store.bound + 1
        cat._store = store
        cat._ordinals = ordinals
        cat._heads = heads
        cat._classes = {}
        cat._homs = {}
        cat._arrows = None
        cat._preorder = preorder
        return cat

    @property
    def objects(self) -> tuple[VertexId, ...]:
        return self._objects

    @property
    def arrows(self) -> tuple[ArrowClass, ...]:
        if self._arrows is None:
            self._arrows = tuple(self._class(root) for root in self._heads)
        return self._arrows

    @property
    def bound(self) -> int:
        return self._bound

    @property
    def possibly_incomplete(self) -> bool:
        return self._possibly_incomplete

    @property
    def arrow_count(self) -> int:
        return self._ordinals[-1]

    def hom(self, x: VertexId, y: VertexId) -> tuple[ArrowClass, ...]:
        got = self._homs.get((x, y))
        if got is None:
            got = self._homs[x, y] = self._build_hom(x, y)
        return got

    def class_of_label(self, start: VertexId, word: Iterable[EdgeId]) -> ArrowClass | None:
        i = self._index.get((start, tuple(word)))
        if i is None or (root := self._roots[i]) < 0:
            return None
        return self._class(root)

    def class_of(self, r: Route) -> ArrowClass | None:
        """Class of a route; the dwell set is erased first."""
        return self.class_of_label(r.start, r.edges)

    def identity(self, x: VertexId) -> ArrowClass:
        a = self.class_of_label(x, ())
        if a is None:
            raise StructureError(f"no identity at {render_id(x)}: vertex is not an object")
        return a

    def compose(self, a: ArrowClass, b: ArrowClass) -> ArrowClass | None:
        """Diagrammatic composite of a: x->y then b: y->z, or None when the
        concatenated representative exceeds the bound."""
        if a.target != b.source:
            raise CompositionError(
                f"cannot compose: first arrow ends at {render_id(a.target)}, "
                f"second starts at {render_id(b.source)}"
            )
        word = a.rep.edges + b.rep.edges
        if len(word) > self._bound:
            return None
        out = self.class_of_label(a.source, word)
        if out is None:
            raise StructureError("concatenation of realizable labels must be realizable")
        return out

    def is_preorder(self) -> bool:
        """Whether every hom has at most one class.  Builds no class."""
        return self._preorder

    def _class(self, root: int) -> ArrowClass:
        """The class whose root is ``root``, building its hom on first ask."""
        got = self._classes.get(root)
        if got is None:
            vertices = self._store.vertices
            x, y = divmod(self._keys[root] // self._width, len(vertices))
            self.hom(vertices[x], vertices[y])
            got = self._classes[root]
        return got

    def _arrow_of(self, label: Label) -> int | None:
        """The arrow index of a label's class, its root's ordinal, or None
        when the label is not one of this category's."""
        i = self._index.get(label)
        if i is None or (root := self._roots[i]) < 0:
            return None
        return self._ordinals[root]

    def _reps(self) -> list[tuple[VertexId, VertexId, tuple[EdgeId, ...]]]:
        """Source, target and representative word of every arrow, in arrow
        order; builds no class."""
        store = self._store
        if store is None:
            return [(a.source, a.target, a.rep.edges) for a in self.arrows]
        keys, width, labels, vertices = self._keys, self._width, store.labels, store.vertices
        reps = []
        for root in self._heads:
            x, y = divmod(keys[root] // width, len(vertices))
            reps.append((vertices[x], vertices[y], labels[root][1]))
        return reps

    def _build_hom(self, x: VertexId, y: VertexId) -> tuple[ArrowClass, ...]:
        """The classes of hom(x, y), one per root in its block of the
        store, listed by root."""
        rank = {} if self._store is None else self._store.rank
        rx, ry = rank.get(x), rank.get(y)
        if rx is None or ry is None:
            return ()
        keys, roots, labels = self._keys, self._roots, self._store.labels
        first = (rx * len(rank) + ry) * self._width
        lo, hi = bisect_left(keys, first), bisect_right(keys, first + self._bound)
        members: dict[int, list[Label]] = {}
        for i in range(lo, hi):
            members.setdefault(roots[i], []).append(labels[i])
        hom = []
        for root, labs in members.items():
            rep = Route._known(x, y, labels[root][1])
            a = self._classes[root] = ArrowClass(self._ordinals[root], x, y, rep, frozenset(labs))
            hom.append(a)
        return tuple(hom)


def _support_longest(X: ControlledComplex) -> float:
    """Length of the longest path in the support graph, or infinity when
    the support graph has a directed cycle."""
    verts, edges, _ = X.support()
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
        return math.inf
    return max(dist.values(), default=0)


class _LabelStore:
    """The realizable labels of one complex up to ``bound``, with the cell
    moves between them and the classes of every bound asked so far.

    ``labels`` are in representative order: by start and end vertex, then
    by length, then edge by edge in ``idkey`` order.  ``keys`` holds each
    label's sort key, (start rank * vertex count + end rank) * (bound + 1)
    + length, where ``vertices`` lists the vertices by rank and ``rank``
    maps them back, so the labels of one hom within a bound are the run
    that a bisection of ``keys`` finds.  ``index`` numbers the labels.  A
    move keeps both endpoints, so all labels of a class share a block,
    and the class member of least index is its representative; listing
    classes by that index lists the arrows in order.  ``edges`` holds
    each move as two label indices, the moves sorted by the length of
    their longer label, so the moves within bound b are the first
    ``cuts[b]`` pairs.  ``roots[b]`` gives each label of length <= b its
    class's least index, and -1 to longer labels; ``ordinals[b][i]``
    counts the roots below index i, so a root's arrow index is its
    ordinal and the arrow count is the last entry; ``heads[b]`` lists the
    roots in arrow order; ``preorder[b]`` says
    whether no block holds two roots.  ``longest`` is the support graph's
    longest path (infinite when cyclic).
    """

    __slots__ = ("bound", "objects", "vertices", "rank", "labels", "keys", "index",
                 "edges", "cuts", "roots", "ordinals", "heads", "preorder", "longest")

    def __init__(self, X: ControlledComplex, bound: int, longest: float) -> None:
        self.bound = bound
        self.longest = longest
        self.roots: dict[int, array] = {}
        self.ordinals: dict[int, array] = {}
        self.heads: dict[int, array] = {}
        self.preorder: dict[int, bool] = {}
        self.objects = tuple(sorted(X.flexible, key=idkey))
        self.vertices = tuple(sorted(X.graph.vertices, key=idkey))
        rank = self.rank = {v: i for i, v in enumerate(self.vertices)}
        width = bound + 1
        found = []
        memo: dict = {}
        # iter_words lists the words from one start in edge-by-edge idkey
        # order (a prefix before its extensions), so a stable sort by start,
        # end and length leaves each (start, end, length) block in that order
        for x in self.objects:
            for word, end in X.graph.iter_words(x, bound):
                if X._accepts(x, word, end, _full_mask(len(word)), memo):
                    key = (rank[x] * len(rank) + rank[end]) * width + len(word)
                    found.append((key, (x, word)))
        found.sort(key=itemgetter(0))
        self.keys = array("q", [key for key, _ in found])
        self.labels: list[Label] = [lab for _, lab in found]
        del found, memo
        self.index = {lab: i for i, lab in enumerate(self.labels)}
        self.edges, self.cuts = self._moves(X)

    def _moves(self, X: ControlledComplex) -> tuple[array, list[int]]:
        # A move joins two labels and reads as a move from either one, so
        # it is found from the label holding the nonempty side of its cell:
        # each cell is indexed once, by that side's length and then its word
        # (an edge-word match fixes the whole vertex chain).  One side may
        # belong to several cells.
        sides: dict[int, dict[tuple[EdgeId, ...], list[tuple[EdgeId, ...]]]] = {}
        for c in X.cells:
            old, new = (c.left, c.right) if c.left.edges else (c.right, c.left)
            if old.edges:
                sides.setdefault(len(old.edges), {}).setdefault(old.edges, []).append(new.edges)
        index = self.index
        by_length: list[list[int]] = [[] for _ in range(self.bound + 1)]
        for i, (start, word) in enumerate(self.labels):
            n = len(word)
            for k, by_word in sides.items():
                for p in range(n - k + 1):
                    for new in by_word.get(word[p : p + k], ()):
                        m = n - k + len(new)
                        if m <= self.bound:
                            j = index.get((start, word[:p] + new + word[p + k :]))
                            if j is not None:
                                by_length[n if n > m else m] += (i, j)
        edges = array("i")
        cuts = []
        for pairs in by_length:
            edges.extend(pairs)
            cuts.append(len(edges) // 2)
        return edges, cuts

    def _roots_at(self, bound: int) -> tuple[array, array, array, bool]:
        """Union-find over the moves within the bound; a union points the
        larger root at the smaller, so every parent index is at most its
        child's and one forward pass flattens the forest, counts the roots
        and, since the labels run block by block, finds whether one block
        holds two of them."""
        got = self.roots.get(bound)
        if got is not None:
            return got, self.ordinals[bound], self.heads[bound], self.preorder[bound]
        parent = list(range(len(self.labels)))
        edges = self.edges
        for t in range(0, 2 * self.cuts[bound], 2):
            a, b = edges[t], edges[t + 1]
            while (q := parent[a]) != a:
                parent[a] = a = parent[q]
            while (q := parent[b]) != b:
                parent[b] = b = parent[q]
            if a < b:
                parent[b] = a
            elif b < a:
                parent[a] = b
        ordinals = array("i", [0])
        heads = array("i")
        count = 0
        keys, width = self.keys, self.bound + 1
        block, preorder = -1, True
        for i, (_, word) in enumerate(self.labels):
            # labels past the bound have no move within it, so no label's
            # parent is one of them
            parent[i] = parent[parent[i]] if len(word) <= bound else -1
            if parent[i] == i:
                count += 1
                heads.append(i)
                here = keys[i] // width
                preorder = preorder and here != block
                block = here
            ordinals.append(count)
        got = self.roots[bound] = array("i", parent)
        self.ordinals[bound] = ordinals
        self.heads[bound] = heads
        self.preorder[bound] = preorder
        return got, ordinals, heads, preorder

    def category(self, bound: int) -> FundamentalCategory:
        """The view at ``bound``; builds no arrow class."""
        return FundamentalCategory._view(self, bound, *self._roots_at(bound))

    def _shared(self, longest: float) -> _LabelStore:
        """A store holding this one's labels, keys, index, moves and
        per-bound roots by reference, with its own ``longest``.  It keeps
        this store alive after its complex moves on to a larger one."""
        twin = _LabelStore.__new__(_LabelStore)
        for name in self.__slots__:
            setattr(twin, name, getattr(self, name))
        twin.longest = longest
        return twin


def pi1(X: ControlledComplex, bound: int) -> FundamentalCategory:
    """Truncated fundamental category at the given length bound, as a view
    over the complex's label store.

    The flexible part of a flexible space shares its base's store: every
    vertex is flexible and every controlled route is flexible, so it has
    the base's graph, cells, objects and realizable labels, and only its
    support, its whole graph, is its own."""
    check_bound(bound)
    store = X._label_store
    if store is None or store.bound < bound:
        longest = _support_longest(X) if store is None else store.longest
        if isinstance(X, FlexiblePart) and X.base.flexibility_witness() is None:
            pi1(X.base, bound)
            store = X.base._label_store._shared(longest)
        else:
            store = _LabelStore(X, bound, longest)
        X._label_store = store
    return store.category(bound)


def _kept(
    build: Callable[..., ControlledComplex], X: ControlledComplex, *partners: ControlledComplex
) -> ControlledComplex:
    """``build(X, *partners)``, kept on X under ``build`` with its partners:
    a later call with the same partners (by identity) returns the same
    complex, with whatever label store ``pi1`` has built for it.  One slot
    per ``build``, so other partners replace the kept complex; nothing is
    kept when ``build`` raises.  The slot lives on X, so the kept complex
    lives exactly as long as X; it refers back to X, so once X is dropped
    the two are freed together by the cyclic garbage collector."""
    slot = X._derived.get(build)
    if slot is None or not all(map(is_, slot[0], partners)):
        slot = X._derived[build] = (partners, build(X, *partners))
    return slot[1]


def _check_objects(X: ControlledComplex, *vertices: VertexId) -> None:
    """Raise unless every vertex is flexible, an object of pi1."""
    for v in vertices:
        if v not in X.flexible:
            raise StructureError(f"{render_id(v)} is not a flexible vertex")


def hom_classes(
    X: ControlledComplex, x: VertexId, y: VertexId, bound: int
) -> tuple[ArrowClass, ...]:
    _check_objects(X, x, y)
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
    _check_objects(X, x0)
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


def _images_by_root(
    cat: FundamentalCategory, image_of: Callable[[Label], Hashable | None]
) -> tuple[dict[int, Hashable], set[int], set[int]]:
    """Each class's least image over its labels, keyed by root, with the
    roots of the classes that have a label whose image is None and of those
    whose labels' images differ.  Reads label numbers; builds no class."""
    least: dict[int, Hashable] = {}
    leaves: set[int] = set()
    differs: set[int] = set()
    roots = cat._roots
    for label, i in cat._index.items():
        root = roots[i]
        if root < 0:
            continue
        image = image_of(label)
        if image is None:
            leaves.add(root)
        elif (seen := least.setdefault(root, image)) != image:
            differs.add(root)
            least[root] = min(seen, image)
    return least, leaves, differs


def _arrow_map(
    src: FundamentalCategory, dst: FundamentalCategory
) -> tuple[dict[int, int], bool]:
    """Map classes along the identity on labels; flag well-definedness plus
    functoriality (the label pass maps each identity by its constant).
    The map is listed in arrow order and stops before the first class
    with a label outside ``dst``.  Composites are looked up from the
    representative words, so no class is built."""
    least, leaves, differs = _images_by_root(src, dst._arrow_of)
    amap: dict[int, int] = {}
    ok = True
    for k, root in enumerate(src._heads):
        if root in leaves:
            return amap, False
        ok = ok and root not in differs
        amap[k] = least[root]
    if not ok:
        return amap, False
    reps = src._reps()
    leaving: dict[VertexId, list[int]] = {}
    for k, (x, _, _) in enumerate(reps):
        leaving.setdefault(x, []).append(k)
    images = [word for _, _, word in dst._reps()]
    for k, (x, y, word) in enumerate(reps):
        image = images[amap[k]]
        for m in leaving.get(y, ()):
            composite = word + reps[m][2]
            if len(composite) > src.bound:
                continue
            c = _composite(src, x, composite)
            composite = image + images[amap[m]]
            if len(composite) > dst.bound or amap[c] != _composite(dst, x, composite):
                return amap, False
    return amap, True


def _composite(cat: FundamentalCategory, x: VertexId, word: tuple[EdgeId, ...]) -> int:
    """The arrow of a concatenation of representatives within the bound."""
    k = cat._arrow_of((x, word))
    if k is None:
        raise StructureError("concatenation of realizable labels must be realizable")
    return k


def _hom_image_check(
    src: FundamentalCategory,
    dst: FundamentalCategory,
    amap: Mapping[int, int],
) -> tuple[bool, bool, tuple[tuple[VertexId, VertexId, Route], ...]]:
    """Fullness and faithfulness of the mapped functor on the source's
    objects; a ``Route`` is built only for each missing class."""
    images: dict[tuple[VertexId, VertexId], list[int]] = {}
    for k, (x, y, _) in enumerate(src._reps()):
        images.setdefault((x, y), []).append(amap[k])
    listed: dict[tuple[VertexId, VertexId], list[tuple[int, tuple[EdgeId, ...]]]] = {}
    for k, (x, y, word) in enumerate(dst._reps()):
        listed.setdefault((x, y), []).append((k, word))
    full = True
    faithful = True
    missing: list[tuple[VertexId, VertexId, Route]] = []
    for x, y in itertools.product(src.objects, repeat=2):
        got = images.get((x, y), [])
        hit = set(got)
        if len(hit) != len(got):
            faithful = False
        for k, word in listed.get((x, y), ()):
            if k not in hit:
                full = False
                missing.append((x, y, Route._known(x, y, word)))
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
    """Map the flexible part's classes into X's and X's into the generated
    d-space's, and check each map and the fullness of the second.

    X keeps its flexible part and generated d-space (``_kept``), so a
    later call on X reads their warm label stores: on
    ``symmetrize(circle_n_stop(2))`` at bound 9 they hold about 555 KiB,
    which lives as long as X.  A complex without generators has no
    generated d-space: the call raises ``StructureError`` and keeps
    nothing."""
    # X first: the flexible part of a flexible space reads X's store
    cat_x = pi1(X, bound)
    # the generated d-space before the flexible part: without generators
    # it raises before anything is kept
    dhat = _kept(reflect_dhat, X)
    cat_fl = pi1(_kept(reflect_fl, X), bound)
    cat_dh = pi1(dhat, bound)
    first_map, first_ok = _arrow_map(cat_fl, cat_x)
    second_map, second_ok = _arrow_map(cat_x, cat_dh)
    full, faithful, missing = _hom_image_check(cat_x, cat_dh, second_map)
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
    full, faithful, missing = _hom_image_check(cat_sub, cat_x, amap)
    return FullnessReport(full and ok, faithful, missing)


# ---------------------------------------------------------------------------
# product and sum preservation


def _class_images(
    cat: FundamentalCategory, image_of: Callable[[Label], Hashable | None], noun: str
) -> tuple[dict[int, Hashable], list[str]]:
    """Each class's image in the factor categories, read on every label,
    and a mismatch for each class with a label outside them or with labels
    whose images differ, named after the ``noun`` of taking the image.
    Only a mismatch builds its class."""
    least, leaves, differs = _images_by_root(cat, image_of)
    image: dict[int, Hashable] = {}
    mismatches: list[str] = []
    for k, root in enumerate(cat._heads):
        if root in leaves:
            mismatches.append(f"{noun} of {cat._class(root)} leaves the factor category")
        elif root in differs:
            mismatches.append(f"{noun}s of {cat._class(root)} disagree across its labels")
        else:
            image[k] = least[root]
    return image, mismatches


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
    jointly).

    X keeps the product with its last right factor Y (``_kept``), so a
    later call on the same pair reads the product's warm label store: for
    ``line_c(3)`` with itself at bound 6 it holds about 605 KiB, which
    lives as long as X or until a call with another right factor replaces
    it."""
    P = _kept(product, X, Y)
    cat_p = pi1(P, bound)
    cat_x = pi1(X, bound)
    cat_y = pi1(Y, bound)
    mismatches: list[str] = []

    want_objects = {(x, y) for x in cat_x.objects for y in cat_y.objects}
    objects_ok = set(cat_p.objects) == want_objects
    if not objects_ok:
        mismatches.append("object sets differ")

    def project(label: Label) -> tuple[int, int] | None:
        (x, y), word = label
        lw, _, rw, _ = P._split(word, 0)
        a, b = cat_x._arrow_of((x, lw)), cat_y._arrow_of((y, rw))
        return None if a is None or b is None else (a, b)

    image, bad = _class_images(cat_p, project, "projection")
    mismatches += bad
    homs_ok = not bad

    right = [len(word) for _, _, word in cat_y._reps()]
    wanted = {
        (a, b)
        for a, (_, _, word) in enumerate(cat_x._reps())
        for b, n in enumerate(right)
        if len(word) + n <= bound
    }
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

    def untag(label: Label) -> tuple[str, int] | None:
        (tag, x), word = label
        k = (cat_x if tag == "L" else cat_y)._arrow_of((x, tuple(e for _, e in word)))
        return None if k is None else (tag, k)

    image, bad = _class_images(cat_s, untag, "untagging")
    mismatches += bad
    homs_ok = not bad

    wanted = {("L", k) for k in range(cat_x.arrow_count)}
    wanted |= {("R", k) for k in range(cat_y.arrow_count)}
    got = set(image.values())
    if len(got) != len(image) or got != wanted:
        homs_ok = False
        mismatches.append("untagged classes do not pair off with the factors")
    return SumPreservationReport(objects_ok, homs_ok, tuple(mismatches))
