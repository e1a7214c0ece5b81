"""Seeded job lists for the three benchmark workloads.

A job list is a sequence of rounds and a round is a list of jobs.  Each
job is plain JSON data: the library sees only what the benchmark builds
from it.  The same workload, seed and round index always give the same
bytes (see ``job_list_bytes``).

A round is the unit a run stops on.  For ``categories`` and ``coverings``
it is one seeded pass over the workload's whole parameter grid, so every
seed does the same work in a different order and with different free
parameters (hom pairs, basepoints, windows, lift starts).  This keeps
throughput comparable across seeds.  For ``classify`` a round is ten fresh
random complexes with one job of each kind on each.

Every job with a bound also carries ``work``: the number of edge words of
length at most the bound in the graph its bounded search walks, counted
here from the edge list.  Bounds are drawn from a range and then lowered
until ``work`` fits the cap of the job's kind (``WORK_CAPS``).
"""
from __future__ import annotations

import hashlib
import json
import random

WORKLOADS = ("categories", "coverings", "classify")
DEFAULT_SEED = 0

# Caps on the edge words a job's bounded search may walk.  The classify
# caps bind on most random complexes; the categories and coverings caps
# sit above their fixed grids and only guard against edits to them.
WORK_CAPS = {
    "pi1": 8000,
    "hom": 8000,
    "monoid": 8000,
    "one_simple": 8000,
    "prodpres": 8000,
    "induced": 8000,
    "validate": 100,
    "bijection": 400,
    "lift": 100,
    "report": 400,
    "check": 400,
    "product_report": 500,
    "middle": 60,
    "laws": 80,
}

# ---------------------------------------------------------------------------
# graph shapes, as plain data: (vertex ids, [(edge id, src, dst), ...])


def line_graph(window):
    vertices = [str(k) for k in range(-window, window + 1)]
    edges = [(f"e{k}", str(k), str(k + 1)) for k in range(-window, window)]
    return vertices, edges


def circle_graph(n):
    vertices = [str(i) for i in range(n)]
    edges = [(f"e{i}", str(i), str((i + 1) % n)) for i in range(n)]
    return vertices, edges


def middle_delay_graph():
    return ["0", "m", "1"], [("e1", "0", "m"), ("e2", "m", "1")]


def product_graph(left, right):
    lv, le = left
    rv, re = right
    vertices = [(x, y) for x in lv for y in rv]
    edges = [(("L", e, y), (s, y), (d, y)) for e, s, d in le for y in rv]
    edges += [(("R", x, f), (x, s), (x, d)) for f, s, d in re for x in lv]
    return vertices, edges


def symmetrized_graph(graph):
    vertices, edges = graph
    return vertices, list(edges) + [(f"{e}~", d, s) for e, s, d in edges]


def count_words(graph, bound: int) -> int:
    """Edge words of length 0..bound from every vertex, by path counting."""
    vertices, edges = graph
    index = {v: i for i, v in enumerate(vertices)}
    arcs = [(index[s], index[d]) for _, s, d in edges]
    ending = [1] * len(vertices)
    total = len(vertices)
    for _ in range(bound):
        nxt = [0] * len(vertices)
        for s, d in arcs:
            nxt[d] += ending[s]
        ending = nxt
        total += sum(ending)
    return total


def capped_bound(graph, bound: int, cap: int) -> tuple[int, int]:
    """Largest bound b <= ``bound`` (and >= 1) whose word count fits ``cap``."""
    b = bound
    while b > 1 and count_words(graph, b) > cap:
        b -= 1
    return b, count_words(graph, b)


def _bounded(kind: str, graph, bound: int) -> dict:
    b, work = capped_bound(graph, bound, WORK_CAPS[kind])
    return {"bound": b, "work": work}


# ---------------------------------------------------------------------------
# categories
#
# Why: high reuse.  A small fixed pool of complexes is queried again and
# again at a few bounds, so a cache of categories or membership verdicts
# would show its gain here.  Cell moves plus union-find dominate
# pi1(line3 x line3, 6), and membership queries are max-decoration
# queries that are mostly accepted.

CATEGORY_POOL = {
    "line3xline3": {
        "graph": product_graph(line_graph(3), line_graph(3)),
        "flexible": [(x, y) for x in line_graph(3)[0] for y in line_graph(3)[0]],
        "bounds": (4, 6),
        "factors": ("line3", "line3"),
    },
    "symcircle2": {
        "graph": symmetrized_graph(circle_graph(2)),
        "flexible": circle_graph(2)[0],
        "bounds": (6, 9),
        "factors": None,
    },
    "circle3": {
        "graph": circle_graph(3),
        "flexible": circle_graph(3)[0],
        "bounds": (8, 12),
        "factors": None,
    },
    "middelayxline2": {
        "graph": product_graph(middle_delay_graph(), line_graph(2)),
        "flexible": [(x, y) for x in ("0", "1") for y in line_graph(2)[0]],
        "bounds": (5, 7),
        "factors": ("middelay", "line2"),
    },
}

_CATEGORY_KINDS = ("pi1", "hom", "monoid", "one_simple")


def _categories_round(rng: random.Random) -> list[dict]:
    jobs = []
    for name, spec in CATEGORY_POOL.items():
        kinds = list(_CATEGORY_KINDS)
        # the comparison functors need a presentation; the product audit
        # needs a product
        kinds.append("prodpres" if spec["factors"] else "induced")
        lo, hi = spec["bounds"]
        for kind in kinds:
            for bound in range(lo, hi + 1):
                job = {"kind": kind, "complex": name}
                job.update(_bounded(kind, spec["graph"], bound))
                if kind == "hom":
                    job["x"] = rng.choice(spec["flexible"])
                    job["y"] = rng.choice(spec["flexible"])
                elif kind == "monoid":
                    job["x"] = rng.choice(spec["flexible"])
                jobs.append(job)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# coverings
#
# Why: the covering audit walks every dwell subset of every base word
# and asks the membership DP about each, and most of those routes are
# rejected.  The cell-move layer hardly runs here: the bijection audits
# and lift batches are small next to validate_covering.

COVER_STOPS = (2, 3, 4)
COVER_WINDOWS = (8, 10, 12)
COVER_BOUNDS = (6, 7, 8, 9)
LIFT_BATCH = 32


def validate_job(n: int, window: int, bound: int) -> dict:
    job = {"kind": "validate", "n": n, "window": window}
    job.update(_bounded("validate", circle_graph(n), bound))
    return job


def _coverings_round(rng: random.Random) -> list[dict]:
    jobs = []
    for bound in COVER_BOUNDS:
        # validate_covering costs about the same for every n and grows
        # with the window, and a bijection audit of two targets costs
        # about the same for every n too; so each bound gets the windows
        # 8, 10 and 12 once, in a seeded assignment to n, and every seed
        # does the same amount of work
        windows = list(COVER_WINDOWS)
        rng.shuffle(windows)
        for n, window in zip(COVER_STOPS, windows):
            base = circle_graph(n)
            jobs.append(validate_job(n, window, bound))

            # the lift of a class representative climbs at most `bound`
            # steps, so it stays inside the window when x0 <= window - bound
            x0 = rng.randint(-window, window - bound)
            targets = sorted(rng.sample(range(n), 2))
            job = {"kind": "bijection", "n": n, "window": window, "x0": str(x0),
                   "targets": [str(y) for y in targets]}
            job.update(_bounded("bijection", line_graph(window), bound))
            jobs.append(job)

            routes = []
            for _ in range(LIFT_BATCH):
                length = rng.randint(1, bound)
                x0 = rng.randint(-window, window - length)
                dwells = sorted(i for i in range(length + 1) if rng.random() < 0.3)
                routes.append([str(x0), length, dwells])
            job = {"kind": "lift", "n": n, "window": window, "routes": routes}
            job.update(_bounded("lift", base, bound))
            jobs.append(job)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------
# classify
#
# Why: low reuse.  Every case is a fresh random presented complex, or its
# generated d-space or symmetrization, written as a document at set-up
# and driven through the command layer (report, check, reflect, product
# then report on the recipe).  The library also runs the middle
# restriction check and the reflector laws on it.  This covers the
# classification predicates, dwell-free membership through reflector
# wrappers, documents read beside writes, and the CLI.  Raw random
# complexes are rarely preflexible, so middle restriction runs on the
# generated d-space or the symmetrization, where it does real work.

CASES_PER_ROUND = 10
CHECK_PROPERTIES = ("flexible", "preflexible", "border-flexible", "one-simple", "total-support")
REFLECTORS = ("dhat", "fl", "pf", "bf")


def _walk(rng: random.Random, edges, start, length):
    word, at = [], start
    for _ in range(length):
        out = [e for e in edges if e[1] == at]
        if not out:
            break
        e = rng.choice(out)
        word.append(e[0])
        at = e[2]
    return word, at


def random_complex(rng: random.Random, n_vertices: int, n_edges: tuple[int, int],
                   n_generators: tuple[int, int], prefix: str) -> dict:
    """A random presented complex as plain data: the document fields."""
    vertices = [str(i) for i in range(n_vertices)]
    edges = [(f"{prefix}{i}", rng.choice(vertices), rng.choice(vertices))
             for i in range(rng.randint(*n_edges))]
    generators = []
    for _ in range(rng.randint(*n_generators)):
        start = rng.choice(vertices)
        word, _ = _walk(rng, edges, start, rng.randint(1, 3))
        k = min(len(word) + 1, rng.choice((0, 0, 1, 2))) if word else 0
        generators.append({"start": start, "edges": word,
                           "dwells": sorted(rng.sample(range(len(word) + 1), k))})
    cells = []
    for _ in range(rng.randint(0, 2)):
        start = rng.choice(vertices)
        left, lend = _walk(rng, edges, start, rng.randint(1, 2))
        right, rend = _walk(rng, edges, start, rng.randint(1, 2))
        if lend == rend and left != right:
            cells.append({"start": start, "left": left, "right": right})
    return {
        "schema": 1,
        "vertices": vertices,
        "edges": [{"id": e, "src": s, "dst": d} for e, s, d in edges],
        "generators": generators,
        "cells": cells,
    }


def document_graph(doc: dict):
    return doc["vertices"], [(e["id"], e["src"], e["dst"]) for e in doc["edges"]]


def _classify_round(rng: random.Random, seed: int, index: int) -> list[dict]:
    jobs = []
    for c in range(CASES_PER_ROUND):
        case = f"s{seed}r{index}c{c}"
        doc = random_complex(rng, 4, (4, 6), (2, 4), "a")
        partner = random_complex(rng, 2, (1, 2), (1, 2), "b")
        variant = rng.choice(("plain", "dhat", "symmetrize"))
        graph = document_graph(doc)
        shown = symmetrized_graph(graph) if variant == "symmetrize" else graph
        common = {"case": case, "doc": doc, "partner": partner, "variant": variant}

        job = dict(common, kind="report")
        job.update(_bounded("report", shown, rng.randint(3, 6)))
        jobs.append(job)

        prop = rng.choice(CHECK_PROPERTIES)
        job = dict(common, kind="check", property=prop)
        if prop in ("preflexible", "one-simple"):
            job.update(_bounded("check", shown, rng.randint(3, 6)))
        jobs.append(job)

        jobs.append(dict(common, kind="reflect", which=rng.choice(REFLECTORS)))

        job = dict(common, kind="product_report")
        job.update(_bounded("product_report", product_graph(shown, document_graph(partner)),
                            rng.randint(2, 4)))
        jobs.append(job)

        middle = rng.choice(("dhat", "symmetrize"))
        walked = symmetrized_graph(graph) if middle == "symmetrize" else graph
        job = dict(common, kind="middle", of=middle)
        job.update(_bounded("middle", walked, rng.randint(2, 5)))
        jobs.append(job)

        job = dict(common, kind="laws")
        job.update(_bounded("laws", graph, rng.randint(2, 4)))
        jobs.append(job)
    rng.shuffle(jobs)
    return jobs


# ---------------------------------------------------------------------------


def make_round(workload: str, seed: int, index: int) -> list[dict]:
    """Round ``index`` of the job list for ``workload`` and ``seed``."""
    rng = random.Random(f"{workload}/{seed}/{index}")
    if workload == "categories":
        return _categories_round(rng)
    if workload == "coverings":
        return _coverings_round(rng)
    if workload == "classify":
        return _classify_round(rng, seed, index)
    raise ValueError(f"unknown workload {workload!r}")


def job_key(job: dict) -> str:
    """Canonical text of a job; goldens are keyed by its digest."""
    return json.dumps(job, sort_keys=True, separators=(",", ":"))


def job_id(job: dict) -> str:
    return hashlib.sha256(job_key(job).encode()).hexdigest()[:16]


def job_list_bytes(workload: str, seed: int, rounds: int) -> bytes:
    return "\n".join(
        job_key(job) for i in range(rounds) for job in make_round(workload, seed, i)
    ).encode()
