"""Spans around the package's public functions, for the traced run.

``Tracer.install`` replaces each traced function, in every ``cspace``
module that holds a reference to it, with a wrapper that records a span
(name, start, end, parent span, job id) into flat arrays kept in memory.
``uninstall`` puts the originals back.  Generators (word and route
enumeration) get one span per item they produce, so their time nests
under the caller like any other child.

``analyse`` derives the per-layer figures afterwards: a span's self time
is its duration minus the durations of its child spans, and an
inclusive ``.s`` figure for a family of functions sums only the
outermost span of that family on each path, so recursion (documents,
opposite) and reflectors built from reflectors are not counted twice.
"""
from __future__ import annotations

import array
import hashlib
import json
import os
import sys
import time

# (span name, module, attribute, owner class or None, enumerates items)
TRACED = [
    ("pi1.pi1", "cspace.pi1", "pi1", None, False),
    ("pi1.hom_classes", "cspace.pi1", "hom_classes", None, False),
    ("pi1.fundamental_monoid", "cspace.pi1", "fundamental_monoid", None, False),
    ("pi1.is_one_simple", "cspace.pi1", "is_one_simple", None, False),
    ("pi1.check_product_preservation", "cspace.pi1", "check_product_preservation", None, False),
    ("pi1.induced_comparisons", "cspace.pi1", "induced_comparisons", None, False),
    ("core.is_controlled", "cspace.core", "is_controlled", "ControlledComplex", False),
    ("core.iter_words", "cspace.core", "iter_words", "Graph", True),
    ("core.enumerate_routes", "cspace.core", "enumerate_routes", None, True),
    ("core.check_middle_restriction", "cspace.core", "check_middle_restriction", None, False),
    ("core.preflexibility", "cspace.core", "preflexibility", None, False),
    ("core.oracle_equivalent", "cspace.core", "oracle_equivalent", None, False),
    ("core.reflect_dhat", "cspace.core", "reflect_dhat", None, False),
    ("core.reflect_fl", "cspace.core", "reflect_fl", None, False),
    ("core.reflect_pf", "cspace.core", "reflect_pf", None, False),
    ("core.reflect_bf", "cspace.core", "reflect_bf", None, False),
    ("covering.validate_covering", "cspace.covering", "validate_covering", None, False),
    ("covering.check_lifting_bijection", "cspace.covering", "check_lifting_bijection", None, False),
    ("covering.lift_route", "cspace.covering", "lift_route", None, False),
    ("spaces.product", "cspace.spaces", "product", None, False),
    ("spaces.sum_complex", "cspace.spaces", "sum_complex", None, False),
    ("spaces.symmetrize", "cspace.spaces", "symmetrize", None, False),
    ("spaces.opposite", "cspace.spaces", "opposite", None, False),
    ("spaces.full_substructure", "cspace.spaces", "full_substructure", None, False),
    ("spaces.quotient", "cspace.spaces", "quotient", None, False),
    ("spaces.project_left", "cspace.spaces", "project_left", "ProductComplex", False),
    ("spaces.project_right", "cspace.spaces", "project_right", "ProductComplex", False),
    ("documents.parse_complex", "cspace.documents", "parse_complex", None, False),
    ("documents.serialize_complex", "cspace.documents", "serialize_complex", None, False),
    ("documents.load_complex", "cspace.documents", "load_complex", None, False),
    ("documents.save_complex", "cspace.documents", "save_complex", None, False),
    ("cli.run_command", "cspace.cli", "run_command", None, False),
]

# inclusive-time families: metric name -> span names
FAMILIES = {
    "core.iter_words.s": ("core.iter_words",),
    "core.enumerate_routes.s": ("core.enumerate_routes",),
    "core.reflect.s": ("core.reflect_dhat", "core.reflect_fl", "core.reflect_pf",
                       "core.reflect_bf"),
    "spaces.construct.s": ("spaces.product", "spaces.sum_complex", "spaces.symmetrize",
                           "spaces.opposite", "spaces.full_substructure", "spaces.quotient"),
    "spaces.project.s": ("spaces.project_left", "spaces.project_right"),
    "documents.parse_complex.s": ("documents.parse_complex",),
    "documents.serialize_complex.s": ("documents.serialize_complex",),
    "pi1.pi1.s": ("pi1.pi1",),
    "covering.validate_covering.s": ("covering.validate_covering",),
}

SELF_TIMES = (
    "pi1.pi1", "core.is_controlled", "core.check_middle_restriction", "core.preflexibility",
    "core.oracle_equivalent", "covering.validate_covering",
    "covering.check_lifting_bijection", "cli.run_command",
)

# is_controlled span flags
ACCEPTED = 1
COVER_BASE = 2


def fingerprint(X) -> str:
    """Structural identity of a complex: equal structure, equal text."""
    g = X.graph
    parts = [
        type(X).__name__,
        sorted(map(repr, g.vertices)),
        sorted(repr((e, g.endpoints(e))) for e in g.edge_ids),
        sorted(map(repr, X.cells)),
        sorted(map(repr, X.flexible)),
    ]
    if X.generators is not None:
        parts.append(sorted(map(repr, X.generators)))
    for attr in ("left", "right", "base"):
        part = getattr(X, attr, None)
        if part is not None:
            parts.append(fingerprint(part))
    if hasattr(X, "keep"):
        parts.append(sorted(map(repr, X.keep)))
    return hashlib.sha1(repr(parts).encode()).hexdigest()


class Tracer:
    """Span recorder; spans are recorded only between ``begin_job`` and
    ``end_job``, so the benchmark's own checks stay out of the trace."""

    def __init__(self) -> None:
        self.names: list[str] = [t[0] for t in TRACED]
        self.name = array.array("i")
        self.parent = array.array("i")
        self.job = array.array("i")
        self.flags = array.array("i")
        self.start = array.array("q")
        self.end = array.array("q")
        self.stack = [-1]
        self.active = False
        self.job_id = -1
        self.counters = {
            "pi1.labels": 0, "pi1.arrows": 0, "pi1.recomputed": 0,
            "core.check_middle_restriction.targets": 0,
            "covering.lifts_checked": 0, "covering.lifts_skipped": 0,
            "documents.bytes_read": 0, "documents.bytes_written": 0, "cli.exit2": 0,
        }
        self.cover_base = None
        self._pi1_seen: set = set()
        self._fingerprints: dict = {}
        self._patches: list = []

    # -- jobs ------------------------------------------------------------

    def begin_job(self, job_id: int) -> None:
        self.job_id = job_id
        self._pi1_seen = set()
        self._fingerprints = {}
        self.active = True

    def end_job(self) -> None:
        self.active = False

    # -- wrappers ----------------------------------------------------------

    def _open(self, nid: int) -> int:
        i = len(self.name)
        self.name.append(nid)
        self.parent.append(self.stack[-1])
        self.job.append(self.job_id)
        self.flags.append(0)
        self.end.append(0)
        self.stack.append(i)
        self.start.append(time.perf_counter_ns())
        return i

    def _close(self, i: int) -> None:
        self.end[i] = time.perf_counter_ns()
        self.stack.pop()

    def _call(self, nid: int, fn, post):
        tracer = self

        def wrapper(*args, **kwargs):
            if not tracer.active:
                return fn(*args, **kwargs)
            i = tracer._open(nid)
            try:
                result = fn(*args, **kwargs)
            finally:
                tracer._close(i)
            if post is not None:
                post(i, args, result)
            return result

        return wrapper

    def _items(self, nid: int, fn):
        tracer = self

        def wrapper(*args, **kwargs):
            items = fn(*args, **kwargs)
            return tracer._each(nid, items) if tracer.active else items

        return wrapper

    def _each(self, nid: int, items):
        while True:
            i = self._open(nid)
            try:
                item = next(items)
            except StopIteration:
                self._close(i)
                return
            except BaseException:
                self._close(i)
                raise
            self._close(i)
            self.flags[i] = 1
            yield item

    def _validate(self, nid: int, fn):
        """validate_covering marks which membership queries ask the base."""
        tracer = self
        inner = self._call(nid, fn, self._post_validate)

        def wrapper(p, *args, **kwargs):
            saved, tracer.cover_base = tracer.cover_base, p.base
            try:
                return inner(p, *args, **kwargs)
            finally:
                tracer.cover_base = saved

        return wrapper

    # -- post hooks: counts recorded where the work happens ----------------

    def _post_is_controlled(self, i, args, result) -> None:
        self.flags[i] = (ACCEPTED if result else 0) | (COVER_BASE if args[0] is self.cover_base else 0)

    def _post_pi1(self, i, args, cat) -> None:
        X, bound = args[0], args[1]
        self.counters["pi1.labels"] += sum(a.size for a in cat.arrows)
        self.counters["pi1.arrows"] += cat.arrow_count
        if id(X) not in self._fingerprints:
            self._fingerprints[id(X)] = (X, fingerprint(X))
        key = (self._fingerprints[id(X)][1], bound)
        if key in self._pi1_seen:
            self.counters["pi1.recomputed"] += 1
        self._pi1_seen.add(key)

    def _post_validate(self, i, args, report) -> None:
        self.counters["covering.lifts_checked"] += report.checked_lifts
        self.counters["covering.lifts_skipped"] += report.skipped_lifts

    def _post_middle(self, i, args, report) -> None:
        self.counters["core.check_middle_restriction.targets"] += report.checked

    def _post_load(self, i, args, result) -> None:
        self.counters["documents.bytes_read"] += os.path.getsize(args[0])

    def _post_save(self, i, args, result) -> None:
        self.counters["documents.bytes_written"] += os.path.getsize(args[1])

    def _post_run_command(self, i, args, result) -> None:
        self.flags[i] = result[0]
        if result[0] == 2:
            self.counters["cli.exit2"] += 1

    # -- install / uninstall ----------------------------------------------

    def install(self) -> None:
        posts = {
            "core.is_controlled": self._post_is_controlled,
            "pi1.pi1": self._post_pi1,
            "core.check_middle_restriction": self._post_middle,
            "documents.load_complex": self._post_load,
            "documents.save_complex": self._post_save,
            "cli.run_command": self._post_run_command,
        }
        modules = [m for name, m in sys.modules.items()
                   if name == "cspace" or name.startswith("cspace.")]
        for nid, (span, module, attr, owner, enumerates) in enumerate(TRACED):
            home = sys.modules[module]
            if owner is not None:
                home = getattr(home, owner)
            original = getattr(home, attr)
            if span == "covering.validate_covering":
                wrapper = self._validate(nid, original)
            elif enumerates:
                wrapper = self._items(nid, original)
            else:
                wrapper = self._call(nid, original, posts.get(span))
            # a method is patched on its class; a function in every module
            # that imported it
            holders = [home] if owner is not None else [
                m for m in modules if getattr(m, attr, None) is original]
            for holder in holders:
                self._patches.append((holder, attr, original))
                setattr(holder, attr, wrapper)

    def uninstall(self) -> None:
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    # -- results -------------------------------------------------------------

    def write(self, path: str) -> None:
        """Spans as one JSON header line followed by the raw arrays."""
        header = {"names": self.names, "spans": len(self.name),
                  "arrays": [["name", "i"], ["parent", "i"], ["job", "i"], ["flags", "i"],
                             ["start_ns", "q"], ["end_ns", "q"]]}
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.name, self.parent, self.job, self.flags, self.start, self.end):
                arr.tofile(fh)

    def analyse(self) -> tuple[dict, list[tuple[str, float]]]:
        """Per-layer metrics, and every span name by self time (seconds),
        largest first."""
        n = len(self.name)
        ids = {name: i for i, name in enumerate(self.names)}
        names, parents, flags = self.name, self.parent, self.flags
        dur = [e - s for s, e in zip(self.start, self.end)]
        child = [0] * n
        for i in range(n):
            if parents[i] >= 0:
                child[parents[i]] += dur[i]
        calls = [0] * len(self.names)
        self_ns = [0] * len(self.names)
        for i in range(n):
            calls[names[i]] += 1
            self_ns[names[i]] += dur[i] - child[i]

        # outermost span per family: a family bit set on any ancestor
        fam_bits = [0] * len(self.names)
        for bit, members in enumerate(FAMILIES.values()):
            for member in members:
                fam_bits[ids[member]] |= 1 << bit
        inclusive = [0] * len(FAMILIES)
        above = [0] * n
        for i in range(n):
            p = parents[i]
            if p >= 0:
                above[i] = above[p] | fam_bits[names[p]]
            own = fam_bits[names[i]] & ~above[i]
            bit = 0
            while own:
                if own & 1:
                    inclusive[bit] += dur[i]
                own >>= 1
                bit += 1

        pi1_id, words_id = ids["pi1.pi1"], ids["core.iter_words"]
        validate_id, routes_id = ids["covering.validate_covering"], ids["core.enumerate_routes"]
        control_id = ids["core.is_controlled"]
        words = pi1_words = accepted = base_routes = base_ok = 0
        for i in range(n):
            nm, p = names[i], parents[i]
            if nm == words_id and flags[i]:
                words += 1
                if p >= 0 and names[p] == pi1_id:
                    pi1_words += 1
            elif nm == control_id:
                f = flags[i]
                accepted += f & ACCEPTED
                if f & COVER_BASE and p >= 0 and names[p] == validate_id:
                    base_ok += f & ACCEPTED
            elif nm == routes_id and flags[i] and p >= 0 and names[p] == validate_id:
                base_routes += 1

        def s(name):
            return self_ns[ids[name]] / 1e9

        out = {f"{name}.self_s": s(name) for name in SELF_TIMES}
        for (metric, _), total in zip(FAMILIES.items(), inclusive):
            out[metric] = total / 1e9
        out.update(self.counters)
        controlled = calls[control_id]
        out.update({
            "pi1.pi1.calls": calls[pi1_id],
            "pi1.words": pi1_words,
            "pi1.label_yield": _ratio(self.counters["pi1.labels"], pi1_words),
            "core.is_controlled.calls": controlled,
            "core.is_controlled.accepted": accepted,
            "core.is_controlled.accept_ratio": _ratio(accepted, controlled),
            "core.iter_words.words": words,
            "core.enumerate_routes.routes": sum(
                1 for i in range(n) if names[i] == routes_id and flags[i]),
            "covering.lift_route.calls": calls[ids["covering.lift_route"]],
            "covering.base_routes": base_routes,
            "covering.base_controlled": base_ok,
            "covering.base_yield": _ratio(base_ok, base_routes),
            "spaces.project.calls": calls[ids["spaces.project_left"]]
            + calls[ids["spaces.project_right"]],
            "trace.spans": n,
        })
        ranking = sorted(((name, t / 1e9) for name, t in zip(self.names, self_ns) if t),
                         key=lambda item: -item[1])
        return out, ranking


def _ratio(part: int, base: int) -> float:
    return part / base if base else 0.0
