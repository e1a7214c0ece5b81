"""Core model: multigraphs, dwell-marked routes, membership, reflectors.

A controlled complex couples a finite directed multigraph with a set of
generating routes.  A route fixes a start vertex, an edge itinerary and a
set of dwell positions, where position i marks a mandatory pause at the
vertex reached after i edge steps.  The controlled set of a complex is
the closure of its generators under three rules:

  * constant routes at endpoints of controlled routes,
  * concatenation of consecutive controlled routes,
  * insertion of a dwell at any position of a controlled route.

Dwell durations are quotiented away, so dwell sets are sets, not
multisets, and a constant route carries no dwell at all.  Every kind of
complex answers membership through one method, ``_accepts(start, word,
end, dwells, memo)``, on a graph-valid edge word with its dwell set as a
bitmask (bit i marks a dwell at position i).  A presented complex runs
interval dynamic programming over the generator words: the word must
split into generator words whose required dwells, shifted to where each
generator starts, lie in the mask.  The generators are indexed by their
last edge, so each prefix tries only the generators that can end it.
The other kinds ask their parts
through ``_accepts_in``, which keeps the parts' answers in the caller's
``memo``: a product splits word and mask into its factors' words and
masks, a sum hands the word to its summand, a full substructure to its
base, and the flexible part asks its base once per word.
``is_controlled`` is the public entry point: it validates a ``Route``
once and asks ``_accepts``.  Checks inside the package ask ``_accepts``
on the words and masks they already hold, with one memo per check, and
build ``Route``s only for what their reports return; ``pi1``'s
realizability is ``_accepts`` at the full mask, the maximal decoration.

Because more dwells are always legal, the controlled decorations of one
dwell-free word form an up-set: the supersets of a finite antichain of
minimal dwell sets, which ``minimal_dwell_sets`` returns and which each
kind of complex declares (a presented complex by the antichain form of
its DP, the others from their parts or by asking ``_accepts`` on masks by
increasing size).  Audits over many decorations ask for the antichain
once per word; the covering audit carries a presented base's prefix
antichains down its walk.  ``Graph.iter_words``, which lists a prefix
before its extensions, is the package's one word walk: the ``pi1`` label
store, the classification checks and the covering audit go through it.

The module also provides the four reflectors (generated d-space, flexible
part, preflexible hull, border-flexible rewrite) and the classification
predicates built on them.
"""
from __future__ import annotations

import itertools
from collections.abc import Callable, Container, Hashable, Iterable, Iterator, Mapping, Sequence
from dataclasses import dataclass

VertexId = Hashable
EdgeId = Hashable
Word = tuple[EdgeId, ...]

__all__ = [
    "CspaceError",
    "InvalidRouteError",
    "CompositionError",
    "StructureError",
    "check_bound",
    "Route",
    "SquareCell",
    "Graph",
    "ControlledComplex",
    "PresentedComplex",
    "FlexiblePart",
    "PreflexibleHull",
    "idkey",
    "render_id",
    "route_concat",
    "route_insert_dwell",
    "max_decoration",
    "enumerate_words",
    "enumerate_routes",
    "minimal_dwell_sets",
    "oracle_equivalent",
    "reflect_dhat",
    "reflect_fl",
    "reflect_pf",
    "reflect_bf",
    "path_support",
    "has_total_path_support",
    "is_flexible_route",
    "is_flexible_space",
    "PreflexibilityReport",
    "preflexibility",
    "is_preflexible",
    "BorderFlexibilityReport",
    "border_flexibility",
    "is_border_flexible",
    "MiddleRestrictionReport",
    "check_middle_restriction",
]


class CspaceError(Exception):
    """Base class for errors raised by this package."""


class InvalidRouteError(CspaceError):
    """Route data is malformed or does not fit the graph."""


class CompositionError(CspaceError):
    """Concatenation endpoints do not match."""


class StructureError(CspaceError):
    """Operation needs structure (usually a generator presentation) the complex lacks."""


def idkey(x: object) -> tuple:
    """Deterministic sort key over the id universe (strings, ints, tuples).

    Numeric strings order numerically so line windows list as -3..3.
    """
    if isinstance(x, tuple):
        return (3, tuple(idkey(i) for i in x))
    if isinstance(x, bool):
        return (2, 0, str(x))
    if isinstance(x, int):
        return (1, x, "")
    if isinstance(x, str):
        try:
            return (1, int(x), x)
        except ValueError:
            return (2, 0, x)
    return (4, 0, repr(x))


def render_id(x: object) -> str:
    if isinstance(x, tuple):
        return "(" + ",".join(render_id(i) for i in x) + ")"
    return str(x)


# the dwell set of every dwell-free route: CPython makes a new empty
# frozenset per call, so routes share this one
_NO_DWELLS: frozenset[int] = frozenset()


@dataclass(frozen=True)
class Route:
    """A dwell-marked edge path.

    ``dwells`` holds positions in ``0..len(edges)``.  A length-0 route is
    the constant route at ``start`` and is canonically stored with an
    empty dwell set (a pause of a pause is the same pause).
    """

    start: VertexId
    end: VertexId
    edges: tuple[EdgeId, ...] = ()
    dwells: frozenset[int] = _NO_DWELLS

    def __post_init__(self) -> None:
        object.__setattr__(self, "edges", tuple(self.edges))
        dwells = frozenset(self.dwells) or _NO_DWELLS
        if not all(isinstance(d, int) and not isinstance(d, bool) for d in dwells):
            raise InvalidRouteError("dwell positions must be integers")
        if self.edges:
            bad = [d for d in dwells if not 0 <= d <= len(self.edges)]
            if bad:
                raise InvalidRouteError(
                    f"dwell position {min(bad)} out of range for a "
                    f"{len(self.edges)}-edge route"
                )
        else:
            if self.end != self.start:
                raise InvalidRouteError("constant route must end where it starts")
            if not dwells <= {0}:
                raise InvalidRouteError("constant route admits no dwell position > 0")
            dwells = _NO_DWELLS
        object.__setattr__(self, "dwells", dwells)

    @classmethod
    def constant(cls, v: VertexId) -> "Route":
        return cls(v, v)

    @classmethod
    def _known(cls, start: VertexId, end: VertexId, edges: tuple[EdgeId, ...],
               dwells: frozenset[int] = _NO_DWELLS) -> "Route":
        """The route of an edge tuple already known to run from ``start``
        to ``end``, such as a stored label, with ``dwells`` already
        canonical for it, such as those of a route of the same length;
        nothing is checked."""
        r = object.__new__(cls)
        object.__setattr__(r, "start", start)
        object.__setattr__(r, "end", end)
        object.__setattr__(r, "edges", edges)
        object.__setattr__(r, "dwells", dwells)
        return r

    @property
    def length(self) -> int:
        return len(self.edges)

    def is_constant(self) -> bool:
        return not self.edges

    def strip_dwells(self) -> "Route":
        return Route(self.start, self.end, self.edges)

    def sort_key(self) -> tuple:
        return (
            idkey(self.start),
            len(self.edges),
            tuple(idkey(e) for e in self.edges),
            tuple(sorted(self.dwells)),
        )

    def __str__(self) -> str:
        word = ",".join(render_id(e) for e in self.edges)
        dw = "{" + ",".join(str(d) for d in sorted(self.dwells)) + "}"
        return f"({render_id(self.start)};[{word}];{dw})"


def route_concat(r1: Route, r2: Route) -> Route:
    """Concatenate consecutive routes; dwell sets merge, r2's shifted.

    The junction position appears at most once because dwell sets are
    sets.  Concatenating a constant route changes nothing.
    """
    if r1.end != r2.start:
        raise CompositionError(
            f"cannot concatenate: first route ends at {render_id(r1.end)}, "
            f"second starts at {render_id(r2.start)}"
        )
    shift = len(r1.edges)
    dwells = set(r1.dwells)
    dwells.update(d + shift for d in r2.dwells)
    return Route(r1.start, r2.end, r1.edges + r2.edges, frozenset(dwells))


def max_decoration(start: VertexId, end: VertexId, word: tuple[EdgeId, ...]) -> Route:
    """The word with a dwell at every position: the weakest decoration to
    refuse, since membership only ever requires dwells."""
    return Route(start, end, word, frozenset(range(len(word) + 1)))


def route_insert_dwell(r: Route, pos: int) -> Route:
    """Add a dwell at ``pos``; idempotent."""
    if not 0 <= pos <= len(r.edges):
        raise InvalidRouteError(
            f"dwell position {pos} out of range for a {len(r.edges)}-edge route"
        )
    return Route(r.start, r.end, r.edges, r.dwells | {pos})


@dataclass(frozen=True)
class SquareCell:
    """A two-sided deformation cell between coterminal dwell-free routes.

    One side may be empty when the other is a loop (cancellation cells).
    """

    left: Route
    right: Route

    def __post_init__(self) -> None:
        if self.left.dwells or self.right.dwells:
            raise InvalidRouteError("cell sides must be dwell-free")
        if self.left.start != self.right.start or self.left.end != self.right.end:
            raise InvalidRouteError("cell sides must share both endpoints")

    def sort_key(self) -> tuple:
        return (self.left.sort_key(), self.right.sort_key())

    def __str__(self) -> str:
        return f"{self.left} ~ {self.right}"


class Graph:
    """Finite directed multigraph with opaque vertex and edge ids.

    A graph keeps its vertices and edges in ``idkey`` order, fixed when it
    is built: the public constructor sorts each id set once, and the
    constructions that build a graph from other graphs (products, sums,
    opposites, restrictions) pass an order derived from their parts to
    ``_ordered``, which calls ``idkey`` on no composite id.  Out- and
    in-edge lists, and every reader that lists vertices, edges or routes
    of the graph, take that order.
    """

    __slots__ = ("_vertices", "_edges", "_out", "_in")

    def __init__(
        self,
        vertices: Iterable[VertexId],
        edges: Mapping[EdgeId, tuple[VertexId, VertexId]],
    ) -> None:
        self._build(sorted(frozenset(vertices), key=idkey),
                    sorted(edges.items(), key=lambda item: idkey(item[0])))

    @classmethod
    def _ordered(
        cls,
        vertices: Iterable[VertexId],
        edges: Iterable[tuple[EdgeId, tuple[VertexId, VertexId]]],
    ) -> Graph:
        """The graph of distinct vertices and ``(edge, (src, dst))`` pairs
        already in ``idkey`` order; the order is trusted, not checked."""
        g = cls.__new__(cls)
        g._build(vertices, edges)
        return g

    def _build(
        self,
        vertices: Iterable[VertexId],
        edges: Iterable[tuple[EdgeId, tuple[VertexId, VertexId]]],
    ) -> None:
        # _out's keys list the vertices in order, and the edge lists fill in
        # edge order
        out: dict[VertexId, list[EdgeId]] = {v: [] for v in vertices}
        inc: dict[VertexId, list[EdgeId]] = {v: [] for v in out}
        self._vertices = frozenset(out)
        self._edges: dict[EdgeId, tuple[VertexId, VertexId]] = {}
        for e, (src, dst) in edges:
            if src not in out or dst not in out:
                raise InvalidRouteError(f"edge {render_id(e)} references unknown vertex")
            self._edges[e] = (src, dst)
            out[src].append(e)
            inc[dst].append(e)
        self._out = {v: tuple(es) for v, es in out.items()}
        self._in = {v: tuple(es) for v, es in inc.items()}

    @property
    def vertices(self) -> frozenset[VertexId]:
        return self._vertices

    @property
    def edge_ids(self) -> frozenset[EdgeId]:
        return frozenset(self._edges)

    @property
    def _ordered_vertices(self) -> Iterable[VertexId]:
        """The vertices in ``idkey`` order."""
        return self._out.keys()

    @property
    def _ordered_edges(self) -> Iterable[tuple[EdgeId, tuple[VertexId, VertexId]]]:
        """The ``(edge, (src, dst))`` pairs in ``idkey`` order of the edges."""
        return self._edges.items()

    def _vertices_in(self, ids: Container[VertexId]) -> list[VertexId]:
        """The vertices among ``ids``, in ``idkey`` order."""
        return [v for v in self._out if v in ids]

    def _route_key(self) -> Callable[[Route], tuple]:
        """A sort key for routes of this graph that orders them as
        ``Route.sort_key`` does, read from the graph's order: ranks held
        only as long as the key is."""
        vrank = {v: i for i, v in enumerate(self._out)}
        erank = {e: i for i, e in enumerate(self._edges)}.__getitem__
        return lambda r: (vrank[r.start], len(r.edges), tuple(map(erank, r.edges)),
                          tuple(sorted(r.dwells)))

    def has_edge(self, e: EdgeId) -> bool:
        return e in self._edges

    def src(self, e: EdgeId) -> VertexId:
        return self._edges[e][0]

    def dst(self, e: EdgeId) -> VertexId:
        return self._edges[e][1]

    def endpoints(self, e: EdgeId) -> tuple[VertexId, VertexId]:
        return self._edges[e]

    def out_edges(self, v: VertexId) -> tuple[EdgeId, ...]:
        return self._out.get(v, ())

    def in_edges(self, v: VertexId) -> tuple[EdgeId, ...]:
        return self._in.get(v, ())

    def _walk(self, start: VertexId, edges: Iterable[EdgeId]) -> VertexId:
        """The end vertex of the edge chain from ``start``; raises on an
        unknown vertex or edge, or an edge that does not continue the
        chain."""
        if start not in self._vertices:
            raise InvalidRouteError(f"unknown vertex {render_id(start)}")
        v = start
        for e in edges:
            if e not in self._edges:
                raise InvalidRouteError(f"unknown edge {render_id(e)}")
            src, dst = self._edges[e]
            if src != v:
                raise InvalidRouteError(
                    f"edge {render_id(e)} starts at {render_id(src)}, "
                    f"route is at {render_id(v)}"
                )
            v = dst
        return v

    def route(
        self,
        start: VertexId,
        edges: Iterable[EdgeId] = (),
        dwells: Iterable[int] = (),
    ) -> Route:
        """Build a route, computing the end vertex and validating the chain."""
        edges = tuple(edges)
        return Route(start, self._walk(start, edges), edges, frozenset(dwells))

    def validate_route(self, r: Route) -> None:
        self._check_walk(r.start, r.edges, r.end)

    def _check_walk(self, start: VertexId, edges: Iterable[EdgeId], end: VertexId) -> None:
        """Raise unless the edge chain runs from ``start`` to ``end``."""
        got = self._walk(start, edges)
        if got != end:
            raise InvalidRouteError(
                f"route ends at {render_id(got)}, not {render_id(end)}"
            )

    def visited(self, r: Route) -> tuple[VertexId, ...]:
        chain = [r.start]
        chain.extend(self._edges[e][1] for e in r.edges)
        return tuple(chain)

    def restrict(self, r: Route, p: int, q: int) -> Route:
        """Contiguous sub-route over the span p..q.

        Dwells restrict to the open interior of the span and re-index;
        boundary dwells drop because a restriction may cut right at the
        edge of a pause.  The dropped variants are recovered by dwell
        insertion, so this is the strictest representative.
        """
        if not 0 <= p <= q <= len(r.edges):
            raise InvalidRouteError(f"span {p}..{q} out of range")
        chain = self.visited(r)
        dwells = frozenset(d - p for d in r.dwells if p < d < q)
        return Route(chain[p], chain[q], r.edges[p:q], dwells)

    def iter_words(
        self, start: VertexId, max_len: int
    ) -> Iterator[tuple[tuple[EdgeId, ...], VertexId]]:
        """Yield every edge word of length <= max_len from ``start``."""
        stack: list[tuple[tuple[EdgeId, ...], VertexId]] = [((), start)]
        while stack:
            word, v = stack.pop()
            yield word, v
            if len(word) < max_len:
                for e in reversed(self.out_edges(v)):
                    stack.append((word + (e,), self.dst(e)))


def check_bound(bound: int) -> None:
    """The input check every bounded procedure shares."""
    if bound < 0:
        raise StructureError("bound must be >= 0")


# (vertices, edges, exact): what controlled routes may use; exact when they use all of it
Support = tuple[frozenset[VertexId], frozenset[EdgeId], bool]

# (op, parts, keep): keep is the kept vertex set of "restrict", else None
Recipe = tuple[str, tuple["ControlledComplex", ...], "frozenset[VertexId] | None"]


# Dwell sets as bitmasks: bit i marks a dwell at position i.  A word of n
# edges has n + 1 dwell positions; a constant route carries none.


def _dwell_width(length: int) -> int:
    return length + 1 if length else 0


def _full_mask(length: int) -> int:
    """Every dwell position of a ``length``-edge word: the maximal decoration."""
    return (1 << _dwell_width(length)) - 1


def _mask(dwells: Iterable[int]) -> int:
    return sum(1 << d for d in dwells)


def _positions(mask: int) -> frozenset[int]:
    return frozenset(i for i in range(mask.bit_length()) if mask >> i & 1)


def _decorate(r: Route, mask: int) -> Route:
    return Route(r.start, r.end, r.edges, _positions(mask))


def _dwell_masks(length: int) -> Iterator[int]:
    """Every dwell set of a ``length``-edge word, by size and then
    lexicographically: the order ``enumerate_routes`` lists them in."""
    width = _dwell_width(length)
    for k in range(width + 1):
        for combo in itertools.combinations(range(width), k):
            yield sum(1 << i for i in combo)


def _satisfies(mask: int, needs: Iterable[int]) -> bool:
    """Whether the dwell set ``mask`` contains one of ``needs``."""
    return any(a & mask == a for a in needs)


def _minimal(masks: Iterable[int]) -> frozenset[int]:
    """The members of ``masks`` with no proper subset among them."""
    out: list[int] = []
    for m in sorted(set(masks), key=int.bit_count):
        if not _satisfies(m, out):
            out.append(m)
    return frozenset(out)


def _upset_size(needs: Iterable[int], width: int) -> int:
    """How many dwell sets over ``width`` positions contain one of
    ``needs``, split on the highest position."""
    needs = list(needs)
    if not needs:
        return 0
    if 0 in needs:
        return 1 << width
    top = 1 << (width - 1)
    return (_upset_size([m for m in needs if not m & top], width - 1)
            + _upset_size([m & ~top for m in needs], width - 1))


class ControlledComplex:
    """A graph, square cells, a flexible vertex set and a membership oracle.

    Instances are immutable.  Subclasses implement ``_accepts`` (membership
    of a graph-valid word with a dwell mask) and override
    ``_minimal_dwells`` and the structural methods below where their kind
    has a rule.
    """

    tag = "abstract"

    def __init__(
        self,
        graph: Graph,
        cells: Iterable[SquareCell] = (),
        flexible: Iterable[VertexId] = (),
    ) -> None:
        self._graph = graph
        cells = set(cells)
        key = graph._route_key()
        try:
            cells = sorted(cells, key=lambda c: (key(c.left), key(c.right)))
        except KeyError:
            # a side names an id the graph lacks: sort by the public key, so
            # the first invalid cell in that order is the one reported
            cells = sorted(cells, key=SquareCell.sort_key)
        for c in cells:
            graph.validate_route(c.left)
            graph.validate_route(c.right)
        self._cells = tuple(cells)
        self._flexible = frozenset(flexible)
        if not self._flexible <= graph.vertices:
            raise InvalidRouteError("flexible set mentions unknown vertices")
        # pi1's realizable labels and cell moves (``cspace.pi1._LabelStore``),
        # built on first use; an instance never changes, so neither do they
        self._label_store = None
        # the complexes pi1's audits derive from this one, by kind
        # (``cspace.pi1._kept``); kept for the same reason
        self._derived: dict = {}

    @property
    def graph(self) -> Graph:
        return self._graph

    @property
    def cells(self) -> tuple[SquareCell, ...]:
        return self._cells

    @property
    def flexible(self) -> frozenset[VertexId]:
        return self._flexible

    @property
    def generators(self) -> frozenset[Route] | None:
        return None

    def is_controlled(self, r: Route) -> bool:
        self._graph.validate_route(r)
        return self._accepts(r.start, r.edges, r.end, _mask(r.dwells), {})

    def _accepts(self, start: VertexId, word: Word, end: VertexId, dwells: int,
                 memo: dict) -> bool:
        """Whether the graph-valid word from ``start`` to ``end`` with the
        dwell mask ``dwells`` is controlled.  A constant route's mask is 0.
        ``memo`` belongs to one caller; kinds built from other complexes
        keep their parts' answers there through ``_accepts_in``."""
        raise NotImplementedError

    def _minimal_dwells(self, start: VertexId, word: Word, end: VertexId) -> frozenset[int]:
        """Minimal dwell sets, as bitmasks, of the graph-valid word.  The
        default uses monotonicity alone: nothing if the full mask is
        rejected, else ``_accepts`` on the masks by increasing size,
        skipping supersets of masks already found, with one memo for all."""
        memo: dict = {}
        if not self._accepts(start, word, end, _full_mask(len(word)), memo):
            return frozenset()
        found: list[int] = []
        for mask in _dwell_masks(len(word)):
            if not _satisfies(mask, found) and self._accepts(start, word, end, mask, memo):
                found.append(mask)
        return frozenset(found)

    def support(self) -> Support:
        """The vertices and edges controlled routes may use, and whether
        exactly those appear in them; by default the graph, inexact."""
        return self._graph.vertices, self._graph.edge_ids, False

    def flexibility_witness(self) -> str | None:
        """Why this complex is not a flexible space, or None when it is.

        Exact from the kind's structure.  A vertex that is not flexible
        comes first; kinds with more to check extend this.  The flexible
        part and the preflexible hull keep it: once every vertex is
        flexible, their routes are flexible by construction."""
        for v in self._graph._ordered_vertices:
            if v not in self._flexible:
                return f"vertex {render_id(v)} is not flexible"
        return None

    def recipe(self) -> Recipe | None:
        """The construction that rebuilds this complex, if it has one."""
        return None

    def describe(self) -> str:
        return (
            f"{self.tag}: {len(self._graph.vertices)} vertices, "
            f"{len(self._graph.edge_ids)} edges, {len(self._cells)} cells"
        )


def _accepts_in(X: ControlledComplex, start: VertexId, word: Word, end: VertexId,
                dwells: int, memo: dict) -> bool:
    """``X._accepts`` kept in ``memo`` under ``(X, start, word, dwells)``."""
    key = (X, start, word, dwells)
    hit = memo.get(key)
    if hit is None:
        hit = memo[key] = X._accepts(start, word, end, dwells, memo)
    return hit


def _part_witness(*named: tuple[str, ControlledComplex]) -> str | None:
    """The witness of the first part that is not a flexible space, after
    the part's name."""
    for name, part in named:
        inner = part.flexibility_witness()
        if inner is not None:
            return f"{name}: {inner}"
    return None


def _generator_witness(X: ControlledComplex) -> str | None:
    """The first generator, in route order, with an uncontrolled
    restriction.  Generators suffice: flexibility is closed under
    concatenation and dwell insertion.  One memo serves the search."""
    memo: dict = {}
    for g in sorted(X.generators, key=X.graph._route_key()):
        if not _flexible_in(X, g.start, g.edges, g.end, _mask(g.dwells), memo):
            return f"generator {g} has an uncontrolled restriction"
    return None


class PresentedComplex(ControlledComplex):
    """Generator-backed complex; membership via interval DP over generators.

    The flexible set is derived, never asserted: endpoints of generators,
    with constant generators marking extra flexible vertices.
    """

    tag = "generator-backed"

    def __init__(
        self,
        graph: Graph,
        generators: Iterable[Route],
        cells: Iterable[SquareCell] = (),
    ) -> None:
        gens = frozenset(generators)
        for g in gens:
            graph.validate_route(g)
        flexible: set[VertexId] = set()
        for g in gens:
            flexible.add(g.start)
            flexible.add(g.end)
        super().__init__(graph, cells, flexible)
        self._generators = gens
        # nonempty generators drive the DP, as (length, edge word, mask of
        # required dwells) listed under their last edge; constants only
        # mark flexibility
        self._ending: dict[EdgeId, list[tuple[int, Word, int]]] = {}
        for g in sorted((g for g in gens if g.edges), key=graph._route_key()):
            self._ending.setdefault(g.edges[-1], []).append(
                (len(g.edges), g.edges, _mask(g.dwells))
            )
        self._recipe: Recipe | None = None

    @classmethod
    def derived(
        cls, op: str, base: ControlledComplex, graph: Graph,
        generators: Iterable[Route], cells: Iterable[SquareCell] = (),
    ) -> PresentedComplex:
        """A presentation built from ``base`` by the recipe operation ``op``."""
        X = cls(graph, generators, cells)
        X._recipe = (op, (base,), None)
        return X

    @property
    def generators(self) -> frozenset[Route]:
        return self._generators

    def recipe(self) -> Recipe | None:
        return self._recipe

    def _accepts(self, start: VertexId, word: Word, end: VertexId, dwells: int,
                 memo: dict) -> bool:
        """Whether the word splits into generator words whose required
        dwells, shifted to where each generator starts, lie in ``dwells``."""
        if not word:
            return start in self._flexible
        n = len(word)
        ok = [True] + [False] * n
        ending = self._ending
        for c in range(1, n + 1):
            for k, g, need in ending.get(word[c - 1], ()):
                p = c - k
                if p >= 0 and ok[p] and word[p:c] == g and not (need << p) & ~dwells:
                    ok[c] = True
                    break
        return ok[n]

    def _minimal_dwells(self, start: VertexId, word: Word, end: VertexId) -> frozenset[int]:
        """The DP of ``_accepts`` over antichains: each prefix keeps the
        minimal unions of the dwells its generator splits require."""
        if not word:
            return frozenset({0}) if start in self._flexible else frozenset()
        n = len(word)
        needs: list[frozenset[int]] = [frozenset({0})] + [frozenset()] * n
        for c in range(1, n + 1):
            needs[c] = self._dwell_step(word, c, needs)
        return needs[n]

    def _dwell_step(self, word: Word, c: int, needs: Sequence[frozenset[int]]) -> frozenset[int]:
        """One step of the antichain DP: the minimal dwell sets of the
        splits of ``word[:c]``, from ``needs[p]``, those of ``word[:p]``
        for each p < c (``needs[0]`` is ``{0}``, the empty split)."""
        found: set[int] = set()
        for k, g, need in self._ending.get(word[c - 1], ()):
            p = c - k
            if p >= 0 and needs[p] and word[p:c] == g:
                found.update(a | need << p for a in needs[p])
        return _minimal(found)

    def flexibility_witness(self) -> str | None:
        return super().flexibility_witness() or _generator_witness(self)

    def support(self) -> Support:
        """The union over generators, exact."""
        verts: set[VertexId] = set()
        edges: set[EdgeId] = set()
        for g in self._generators:
            verts.update(self._graph.visited(g))
            edges.update(g.edges)
        return frozenset(verts), frozenset(edges), True


# ---------------------------------------------------------------------------
# flexibility


def _flexible_in(X: ControlledComplex, start: VertexId, word: Word, end: VertexId,
                 dwells: int, memo: dict) -> bool:
    """Whether every restriction of the graph-valid word is controlled in
    X, kept in ``memo`` under ``("flexible", X, start, word, dwells)``; a
    constant is X's own answer, kept by ``_accepts_in``.  A restriction
    keeps only the dwells strictly inside its span, and every restriction
    but the whole span restricts the word without its last or its first
    edge: each word adds one query to X.  The shorter words are asked
    with both boundary dwells set, so a maximal decoration meets its own
    memo entries."""
    n = len(word)
    if not n:
        return _accepts_in(X, start, word, end, 0, memo)
    key = ("flexible", X, start, word, dwells)
    hit = memo.get(key)
    if hit is None:
        low = (1 << (n - 1)) - 1  # positions 0..n-2
        edge = (1 | 1 << (n - 1)) if n > 1 else 0  # a shorter word's boundary
        g = X.graph
        hit = memo[key] = (
            _flexible_in(X, start, word[:-1], g.src(word[-1]), (dwells & low) | edge, memo)
            and _flexible_in(X, g.dst(word[0]), word[1:], end,
                             (dwells >> 1 & low) | edge, memo)
            and X._accepts(start, word, end, dwells & low << 1, memo)
        )
    return hit


def is_flexible_route(X: ControlledComplex, r: Route) -> bool:
    """True iff every restriction of r, keeping the dwells strictly inside
    its span, is controlled in X: ``_flexible_in`` with a fresh memo."""
    X.graph.validate_route(r)
    return _flexible_in(X, r.start, r.edges, r.end, _mask(r.dwells), {})


def is_flexible_space(X: ControlledComplex) -> bool:
    """All vertices flexible and all controlled routes flexible.

    Exact for every kind, through ``flexibility_witness``: presented
    complexes check their generators, products and sums their factors,
    full substructures their base, and the flexible part and preflexible
    hull hold by construction once every vertex is flexible.
    """
    return X.flexibility_witness() is None


def path_support(X: ControlledComplex) -> tuple[frozenset[VertexId], frozenset[EdgeId]]:
    """Vertices and edges appearing in controlled routes; a complex whose
    ``support()`` is not exact raises ``StructureError``."""
    verts, edges, exact = X.support()
    if not exact:
        raise StructureError("path support needs a generator presentation")
    return verts, edges


def has_total_path_support(X: ControlledComplex) -> bool:
    verts, edges = path_support(X)
    return verts == X.graph.vertices and edges == X.graph.edge_ids


# ---------------------------------------------------------------------------
# route enumeration and oracle comparison


def enumerate_words(
    graph: Graph, max_len: int
) -> Iterator[tuple[VertexId, tuple[EdgeId, ...], VertexId]]:
    for v in graph._ordered_vertices:
        for word, end in graph.iter_words(v, max_len):
            yield v, word, end


def enumerate_routes(graph: Graph, max_len: int) -> Iterator[Route]:
    """Every graph-valid route up to ``max_len``, with every dwell subset.
    Exponential in the word length; meant for small bounds."""
    for start, word, end in enumerate_words(graph, max_len):
        for mask in _dwell_masks(len(word)):
            yield Route(start, end, word, _positions(mask))


def minimal_dwell_sets(
    X: ControlledComplex, start: VertexId, word: Iterable[EdgeId]
) -> frozenset[frozenset[int]]:
    """The minimal dwell sets of a dwell-free word from ``start``.

    A route on the word is controlled in X iff its dwell set contains one
    of them: empty when no decoration is controlled, ``{frozenset()}``
    when every one is.  The antichain is canonical, so two words admit
    the same decorations iff their antichains are equal.
    """
    r = X.graph.route(start, word)
    return frozenset(_positions(m) for m in X._minimal_dwells(start, r.edges, r.end))


def oracle_equivalent(
    X: ControlledComplex,
    Y: ControlledComplex,
    bound: int,
    vertex_map: Mapping[VertexId, VertexId] | None = None,
    edge_map: Mapping[EdgeId, EdgeId] | None = None,
) -> bool:
    """Route-by-route oracle agreement up to ``bound``, across a renaming.

    With no maps, ids must coincide.  Also compares flexible sets.  Each
    dwell-free word of X up to the bound is compared once, through the
    minimal dwell sets of the word and of its image, which stands for the
    comparison of every decoration.
    """
    check_bound(bound)
    vmap = dict(vertex_map) if vertex_map else {v: v for v in X.graph.vertices}
    emap = dict(edge_map) if edge_map else {e: e for e in X.graph.edge_ids}
    if {vmap[v] for v in X.graph.vertices} != set(Y.graph.vertices):
        return False
    if {emap[e] for e in X.graph.edge_ids} != set(Y.graph.edge_ids):
        return False
    if {vmap[v] for v in X.flexible} != set(Y.flexible):
        return False
    for start, word, end in enumerate_words(X.graph, bound):
        image = tuple(emap[e] for e in word)
        Y.graph._check_walk(vmap[start], image, vmap[end])
        if X._minimal_dwells(start, word, end) != Y._minimal_dwells(
            vmap[start], image, vmap[end]
        ):
            return False
    return True


# ---------------------------------------------------------------------------
# reflectors


def _presented_or_raise(X: ControlledComplex, what: str) -> frozenset[Route]:
    gens = X.generators
    if gens is None:
        raise StructureError(f"{what} needs a generator presentation")
    return gens


def _dhat_graph(X: ControlledComplex) -> Graph:
    """The generated d-space as a graph: every vertex and each edge that
    lies on a generator.  Each such edge is a dwell-free generator of
    ``reflect_dhat(X)``, so the routes of this graph, with any dwells, are
    exactly the d-space routes; walking it needs no membership DP."""
    gens = _presented_or_raise(X, "the generated d-space")
    used = {e for g in gens for e in g.edges}
    return Graph._ordered(X.graph._ordered_vertices,
                          [(e, ends) for e, ends in X.graph._ordered_edges if e in used])


def reflect_dhat(X: ControlledComplex) -> PresentedComplex:
    """Generated d-space: dwell-insensitive closure under restriction.

    Materialized as a presentation: every nonempty contiguous subword of
    a generator word becomes a dwell-free generator, and every vertex
    gets a constant generator, so all vertices are flexible and reapplying
    the reflector is literally the identity on presentations.  Its routes
    are those of ``_dhat_graph(X)``, which the bounded checks walk instead.
    """
    gens = _presented_or_raise(X, "the generated d-space")
    new: set[Route] = set()
    for v in X.graph.vertices:
        new.add(Route.constant(v))
    for g in gens:
        for p in range(len(g.edges)):
            for q in range(p + 1, len(g.edges) + 1):
                s = X.graph.restrict(g, p, q)
                new.add(s.strip_dwells())
    return PresentedComplex.derived("dhat", X, X.graph, new, X.cells)


class FlexiblePart(ControlledComplex):
    """Flexible part of a complex: flexible vertices, flexible routes.

    Generic over any oracle: ``_flexible_in`` on the base decides its
    routes.  The result is a d-space (flexibility is closed under
    restriction, concatenation and dwell insertion).
    """

    tag = "reflected"

    def __init__(self, base: ControlledComplex) -> None:
        flex = base.flexible
        graph = Graph._ordered(base.graph._vertices_in(flex), [
            (e, (src, dst)) for e, (src, dst) in base.graph._ordered_edges
            if src in flex and dst in flex
        ])
        cells = [
            c
            for c in base.cells
            if all(v in flex for v in base.graph.visited(c.left))
            and all(v in flex for v in base.graph.visited(c.right))
        ]
        super().__init__(graph, cells, flex)
        self.base = base

    def _accepts(self, start: VertexId, word: Word, end: VertexId, dwells: int,
                 memo: dict) -> bool:
        return _flexible_in(self.base, start, word, end, dwells, memo)

    def recipe(self) -> Recipe:
        return ("fl", (self.base,), None)


def reflect_fl(X: ControlledComplex) -> ControlledComplex:
    if isinstance(X, FlexiblePart):
        return X
    return FlexiblePart(X)


class PreflexibleHull(ControlledComplex):
    """Preflexible reflection: d-space routes between flexible endpoints,
    that is, every edge on a generator of the base."""

    tag = "reflected"

    def __init__(self, base: ControlledComplex) -> None:
        if isinstance(base, PreflexibleHull):
            base = base.base
        self._dhat = _dhat_graph(base)
        super().__init__(base.graph, base.cells, base.flexible)
        self.base = base

    def _accepts(self, start: VertexId, word: Word, end: VertexId, dwells: int,
                 memo: dict) -> bool:
        return (start in self._flexible and end in self._flexible
                and all(self._dhat.has_edge(e) for e in word))

    def _minimal_dwells(self, start: VertexId, word: Word, end: VertexId) -> frozenset[int]:
        """Dwells play no part: every decoration or none."""
        return frozenset({0}) if self._accepts(start, word, end, 0, {}) else frozenset()

    def support(self) -> Support:
        return self._dhat.vertices, self._dhat.edge_ids, False

    def recipe(self) -> Recipe:
        return ("pf", (self.base,), None)


def reflect_pf(X: ControlledComplex) -> PreflexibleHull:
    return PreflexibleHull(X)


def _strip_boundary(g: Route) -> Iterator[int]:
    """The dwell mask of g with each nonempty subset of its boundary
    dwells removed."""
    boundary = sorted(g.dwells & {0, len(g.edges)})
    mask = _mask(g.dwells)
    for k in range(1, len(boundary) + 1):
        for drop in itertools.combinations(boundary, k):
            yield mask & ~_mask(drop)


def reflect_bf(X: ControlledComplex) -> PresentedComplex:
    """Border-flexible rewrite: strip every subset of boundary dwells from
    each generator and close again.  Originals stay (empty subset)."""
    gens = _presented_or_raise(X, "the border-flexible rewrite")
    new = set(gens)
    for g in gens:
        new.update(_decorate(g, m) for m in _strip_boundary(g))
    return PresentedComplex.derived("bf", X, X.graph, new, X.cells)


# ---------------------------------------------------------------------------
# classification predicates


@dataclass(frozen=True)
class PreflexibilityReport:
    holds: bool
    bound: int
    witness: Route | None = None

    def __bool__(self) -> bool:
        return self.holds


def preflexibility(X: ControlledComplex, bound: int) -> PreflexibilityReport:
    """Bounded check that every d-space route between flexible points is
    controlled in X.

    Dwell-free words are the strictest decorations (membership is
    monotone under dwell insertion), so only they are tested.  Refutation
    is exact; confirmation holds up to the bound.
    """
    check_bound(bound)
    dhat = _dhat_graph(X)
    flex = X.flexible
    memo: dict = {}
    for start in dhat._vertices_in(flex):
        for word, end in dhat.iter_words(start, bound):
            if word and end in flex and not X._accepts(start, word, end, 0, memo):
                return PreflexibilityReport(False, bound, Route(start, end, word))
    return PreflexibilityReport(True, bound)


def is_preflexible(X: ControlledComplex, bound: int) -> bool:
    return preflexibility(X, bound).holds


@dataclass(frozen=True)
class BorderFlexibilityReport:
    holds: bool
    witnesses: tuple[Route, ...] = ()

    def __bool__(self) -> bool:
        return self.holds


def border_flexibility(X: ControlledComplex) -> BorderFlexibilityReport:
    """Exact check: every generator with any subset of its boundary dwells
    stripped stays controlled.  Generators suffice because a stripped
    concatenation re-decomposes through the stripped generators."""
    gens = _presented_or_raise(X, "border flexibility")
    memo: dict = {}
    witnesses = [_decorate(g, m) for g in sorted(gens, key=X.graph._route_key())
                 for m in _strip_boundary(g)
                 if not X._accepts(g.start, g.edges, g.end, m, memo)]
    return BorderFlexibilityReport(not witnesses, tuple(witnesses))


def is_border_flexible(X: ControlledComplex) -> bool:
    return border_flexibility(X).holds


@dataclass(frozen=True)
class MiddleRestrictionReport:
    applicable: bool
    holds: bool
    bound: int
    checked: int
    witnesses: tuple[tuple[Route, Route, Route], ...]
    counterexample: Route | None = None

    def __bool__(self) -> bool:
        return self.applicable and self.holds


def check_middle_restriction(X: ControlledComplex, bound: int) -> MiddleRestrictionReport:
    """Verify that routes of the generated d-space are middle restrictions
    of controlled routes of X.

    Applies to preflexible X only (reports inapplicable otherwise).  For
    every nonconstant d-space route up to the bound, and every constant
    at a path-support vertex, searches for prolongations b1, b2 with
    b1 * r * b2 controlled in X; the prolongations themselves only need
    to live in the d-space, since any restriction of a controlled route
    does.  Returns witnesses or the first failure.  One walk of the
    d-space up to the bound both tests preflexibility (as
    ``preflexibility`` does) and collects the targets and prolongations.
    """
    check_bound(bound)
    dhat = _dhat_graph(X)
    flex = X.flexible
    support_verts, _ = path_support(X)
    targets = [Route.constant(v) for v in X.graph._vertices_in(support_verts)]
    # prolongations by the end they meet the target at, maximally dwelled:
    # membership is dwell-monotone, and the middle restriction drops the
    # span-boundary dwells anyway
    into: dict[VertexId, list[Route]] = {v: [Route.constant(v)] for v in flex}
    out_of: dict[VertexId, list[Route]] = {v: [Route.constant(v)] for v in flex}
    memo: dict = {}
    for start, word, end in enumerate_words(dhat, bound):
        if not word:
            continue
        if start in flex and end in flex and not X._accepts(start, word, end, 0, memo):
            return MiddleRestrictionReport(False, False, bound, 0, ())
        targets.append(Route(start, end, word))
        dwelled = max_decoration(start, end, word)
        if start in flex:
            into.setdefault(end, []).append(dwelled)
        if end in flex:
            out_of.setdefault(start, []).append(dwelled)

    witnesses: list[tuple[Route, Route, Route]] = []
    for r in targets:
        # r is tested verbatim: a dwell-free middle is the strictest
        # decoration, and dwell insertion recovers every other one.  The
        # candidate b1 * r * b2 carries b1's and b2's dwells only.
        found = None
        for b1 in into.get(r.start, ()):
            head = b1.edges + r.edges
            for b2 in out_of.get(r.end, ()):
                dwells = _full_mask(len(b1.edges)) | _full_mask(len(b2.edges)) << len(head)
                if X._accepts(b1.start, head + b2.edges, b2.end, dwells, memo):
                    found = (b1, r, b2)
                    break
            if found:
                break
        if found is None:
            return MiddleRestrictionReport(
                True, False, bound, len(targets), tuple(witnesses), r
            )
        witnesses.append(found)
    return MiddleRestrictionReport(True, True, bound, len(targets), tuple(witnesses))
