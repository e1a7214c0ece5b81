"""Independent brute-force oracles.

These re-derive controlled-route membership and arrow classes by forward
saturation of the closure rules, sharing no decision code with the
package: membership comes from enumerating generator decompositions
breadth-first, and arrow classes come from an explicit rewrite closure
over realizable words, for every kind of complex.  Membership in a complex built from others
follows the literal definition of its construction on top of that
table: a product route through both of its projections, a flexible-part
route through every one of its sub-routes.  The covering audit decides
every decoration of every base route through the saturation table,
sharing only the route enumeration with the package.  Property tests compare the package's
answers against these.
"""
from __future__ import annotations

from collections import deque

from cspace import (
    ControlledComplex,
    CoveringReport,
    Route,
    enumerate_routes,
    idkey,
    render_id,
    route_concat,
    route_insert_dwell,
)

Label = tuple


def _out_generators(X: ControlledComplex) -> dict:
    by_start: dict = {}
    for g in X.generators:
        if g.edges:
            by_start.setdefault(g.start, []).append(g)
    return by_start


def brute_route_table(X: ControlledComplex, max_len: int) -> dict:
    """Map (start, word) -> set of minimal dwell sets, one per generator
    decomposition, for every controlled word of at most ``max_len`` edges.

    A route is controlled exactly when its dwell set contains one of the
    minimal sets recorded for its word: concatenation unions the
    generators' own dwells, and dwell insertion only ever enlarges the
    set.
    """
    if X.generators is None:
        raise ValueError("the brute oracle needs a generator presentation")
    by_start = _out_generators(X)
    endpoints = set()
    for g in X.generators:
        endpoints.add(g.start)
        endpoints.add(g.end)
    table: dict = {}
    queue: deque = deque()
    for v in endpoints:
        key = (v, ())
        table[key] = {frozenset()}
        queue.append((v, v, (), frozenset()))
    while queue:
        start, end, word, need = queue.popleft()
        for g in by_start.get(end, ()):
            new_word = word + g.edges
            if len(new_word) > max_len:
                continue
            shift = len(word)
            new_need = need | {shift + d for d in g.dwells}
            key = (start, new_word)
            seen = table.setdefault(key, set())
            if any(old <= new_need for old in seen):
                continue
            seen.difference_update({old for old in seen if new_need < old})
            seen.add(frozenset(new_need))
            queue.append((start, g.end, new_word, frozenset(new_need)))
    return table


def brute_is_controlled(table: dict, r: Route) -> bool:
    options = table.get((r.start, r.edges))
    if not options:
        return False
    return any(need <= r.dwells for need in options)


def _project(r: Route, tag: str) -> Route:
    """The projection of a product route onto the factor ``tag`` ("L" or
    "R"): ``pos_at[i]`` counts the factor's own steps among the first i
    steps; the route's dwells map through it, and every step in the other
    factor is a dwell where the factor stands."""
    side = 0 if tag == "L" else 1
    pos_at = [0]
    edges = []
    for step in r.edges:
        if step[0] == tag:
            edges.append(step[1 + side])
        pos_at.append(len(edges))
    dwells = {pos_at[i] for i in r.dwells}
    dwells |= {pos_at[i] for i, step in enumerate(r.edges) if step[0] != tag}
    return Route(r.start[side], r.end[side], tuple(edges), frozenset(dwells))


def _sub_routes(X: ControlledComplex, r: Route) -> list:
    """Every restriction of r: each span p..q with the dwells strictly
    inside it, re-indexed from p."""
    chain = _visited(X, r.start, r.edges)
    n = len(r.edges)
    return [Route(chain[p], chain[q], r.edges[p:q],
                  frozenset(d - p for d in r.dwells if p < d < q))
            for p in range(n + 1) for q in range(p, n + 1)]


def brute_membership(X: ControlledComplex, max_len: int):
    """Membership in X, for routes of at most ``max_len`` edges, from the
    definition of X's construction.  A complex with generators reads
    ``brute_route_table``; a product route is controlled iff both
    projections are, a flexible-part route iff every sub-route is
    controlled in the base, a sum route iff it is in its summand, a full
    substructure route iff its ends are kept and the base controls it, and
    a preflexible-hull route iff its ends are flexible and every edge lies
    on a generator of the base."""
    if X.generators is not None:
        table = brute_route_table(X, max_len)
        return lambda r: brute_is_controlled(table, r)
    op, parts, keep = X.recipe()
    inner = [brute_membership(part, max_len) for part in parts]
    if op == "product":
        return lambda r: inner[0](_project(r, "L")) and inner[1](_project(r, "R"))
    if op == "fl":
        return lambda r: all(inner[0](s) for s in _sub_routes(X, r))
    if op == "sum":
        return lambda r: inner[0 if r.start[0] == "L" else 1](
            Route(r.start[1], r.end[1], tuple(e for _, e in r.edges), r.dwells))
    if op == "restrict":
        return lambda r: r.start in keep and r.end in keep and inner[0](r)
    if op == "pf":
        base = parts[0]
        used = {e for g in base.generators for e in g.edges}
        return lambda r: (r.start in base.flexible and r.end in base.flexible
                          and all(e in used for e in r.edges))
    raise ValueError(f"no literal membership for {op!r}")


def literal_closure(X: ControlledComplex, max_len: int) -> frozenset:
    """Every controlled route of at most ``max_len`` edges, by literal
    fixpoint iteration of the three closure rules with explicit dwell
    insertion and unrestricted pairwise concatenation.

    Doubly exponential in practice — only for cross-checking the
    saturation oracle on tiny instances.
    """
    current: set[Route] = {g for g in X.generators if len(g.edges) <= max_len}
    changed = True
    while changed:
        changed = False
        additions: set[Route] = set()
        for r in current:
            additions.add(Route.constant(r.start))
            additions.add(Route.constant(r.end))
            for pos in range(len(r.edges) + 1):
                additions.add(route_insert_dwell(r, pos))
        for r1 in current:
            for r2 in current:
                if r1.end == r2.start and len(r1.edges) + len(r2.edges) <= max_len:
                    additions.add(route_concat(r1, r2))
        if not additions <= current:
            current |= additions
            changed = True
    return frozenset(current)


def _visited(X: ControlledComplex, start, word) -> list:
    chain = [start]
    for e in word:
        chain.append(X.graph.dst(e))
    return chain


def _words(X: ControlledComplex, bound: int) -> list:
    """Every (start, word, end) of at most ``bound`` edges in X's graph."""
    out = []
    todo = [(v, (), v) for v in X.graph.vertices]
    while todo:
        start, word, end = todo.pop()
        out.append((start, word, end))
        if len(word) < bound:
            todo.extend((start, word + (e,), X.graph.dst(e)) for e in X.graph.out_edges(end))
    return out


def brute_pi1_components(X: ControlledComplex, bound: int) -> set:
    """Partition of realizable labels under the rewrite closure of the
    cells, as a set of frozensets of (start, word) labels.  A complex with
    generators takes its labels from ``brute_route_table``; any other
    from ``brute_membership`` at the maximal decoration of every word,
    from every vertex."""
    if X.generators is not None:
        labels = set(brute_route_table(X, bound))
    else:
        member = brute_membership(X, bound)
        labels = {(start, word) for start, word, end in _words(X, bound)
                  if member(Route(start, end, word, frozenset(range(len(word) + 1))))}
    sides = []
    for cell in X.cells:
        sides.append((cell.left, cell.right))
        sides.append((cell.right, cell.left))
    neighbours: dict = {label: set() for label in labels}
    for start, word in labels:
        chain = _visited(X, start, word)
        for src, dst in sides:
            k = len(src.edges)
            for i in range(len(word) - k + 1):
                if word[i:i + k] != src.edges or chain[i] != src.start:
                    continue
                new_word = word[:i] + dst.edges + word[i + k:]
                if (start, new_word) in labels:
                    neighbours[(start, word)].add((start, new_word))
    components = set()
    todo = set(labels)
    while todo:
        seed = todo.pop()
        block = {seed}
        frontier = [seed]
        while frontier:
            label = frontier.pop()
            for other in neighbours[label]:
                if other not in block:
                    block.add(other)
                    frontier.append(other)
        todo -= block
        components.add(frozenset(block))
    return components


def _brute_lift(p, b: Route, x0):
    """The edge-by-edge lift of b from x0, or why it fails: ("off",
    vertex, edge) when no edge lies over the next step, ("many", text)
    when several do."""
    tg = p.total.graph
    x = x0
    edges = []
    for f in b.edges:
        matches = [e for e in tg.out_edges(x) if p.emap[e] == f]
        if not matches:
            return ("off", x, f)
        if len(matches) > 1:
            return ("many", f"lift is not unique at {render_id(x)}: "
                            f"{len(matches)} edges over {render_id(f)}")
        edges.append(matches[0])
        x = tg.dst(matches[0])
    return Route(x0, x, tuple(edges), b.dwells)


def brute_validate_covering(p, bound: int) -> CoveringReport:
    """The covering audit decoration by decoration: every dwell subset of
    every base word up to the bound, base and total membership both
    decided by ``brute_route_table``."""
    tg, bg = p.total.graph, p.base.graph
    base_table = brute_route_table(p.base, bound)
    total_table = brute_route_table(p.total, bound)
    witnesses = []
    star_ok = True
    for x in sorted(tg.vertices - p.excluded, key=idkey):
        y = p.vmap[x]
        for mine, theirs, side in ((tg.out_edges(x), bg.out_edges(y), "out"),
                                   (tg.in_edges(x), bg.in_edges(y), "in")):
            images = [p.emap[e] for e in mine]
            if len(set(images)) != len(images) or (
                    sorted(images, key=idkey) != sorted(theirs, key=idkey)):
                star_ok = False
                witnesses.append(f"star not bijective at {render_id(x)} ({side}-edges)")
    flexible_ok = p.total.flexible == {
        x for x in tg.vertices if p.vmap[x] in p.base.flexible}
    if not flexible_ok:
        witnesses.append("flexible vertices upstairs are not the flexible fibres")
    lift_ok = True
    checked = skipped = 0
    for b in enumerate_routes(bg, bound):
        if not brute_is_controlled(base_table, b):
            continue
        fibre = sorted((x for x in tg.vertices if p.vmap[x] == b.start), key=idkey)
        for x0 in fibre:
            lift = _brute_lift(p, b, x0)
            if isinstance(lift, Route):
                checked += 1
                if not brute_is_controlled(total_table, lift):
                    lift_ok = False
                    witnesses.append(f"lift {lift} of {b} is not controlled")
            elif lift[0] == "off" and lift[1] in p.excluded:
                skipped += 1
            else:
                lift_ok = False
                witnesses.append(
                    lift[1] if lift[0] == "many"
                    else f"no edge over {render_id(lift[2])} at {render_id(lift[1])}")
    return CoveringReport(
        star_ok and lift_ok and flexible_ok, star_ok, lift_ok, flexible_ok, bound,
        p.excluded, checked, skipped, tuple(witnesses))
