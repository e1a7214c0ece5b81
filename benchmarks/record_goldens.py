"""Record the golden answer digests for the default seed.

    python3 benchmarks/record_goldens.py

Runs every job of the first rounds of each workload at the default seed
and writes ``goldens.json`` next to this file.  Before a digest is kept,
the jobs small enough for the independent brute-force oracles of
``tests/oracles.py`` are cross-checked against them: arrow classes
against the rewrite closure, lifting counts against the saturated route
table, and the reflector laws against the tables of both sides.  Re-run
only when the benchmark's jobs change, never to make a failing run pass.
"""
from __future__ import annotations

import importlib
import json
import os
import shutil
import sys

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path.insert(0, HERE)
sys.path.insert(0, os.path.join(ROOT, "tests"))

import jobs  # noqa: E402
import workloads as wl  # noqa: E402

# Rounds recorded per workload: more than a run uses at --seconds 30.
ROUNDS = {"categories": 8, "coverings": 8, "classify": 60}
# Largest bound at which a job is cross-checked against the brute oracles.
BRUTE_BOUND = {"categories": 9, "coverings": 7, "classify": 3}


def brute_classes(oracles, X, bound: int) -> dict:
    """(source, target) -> sorted class sizes, from the rewrite closure."""
    out: dict = {}
    for block in oracles.brute_pi1_components(X, bound):
        start, word = next(iter(block))
        end = start
        for e in word:
            end = X.graph.dst(e)
        out.setdefault((start, end), []).append(len(block))
    return {k: sorted(v) for k, v in out.items()}


def _require(agrees: bool, job: dict) -> None:
    if not agrees:
        raise SystemExit(f"the brute oracle disagrees on {wl.job_key(job)}")


def cross_check(ws, oracles, job: dict, result) -> bool:
    """True when the job was small enough and agreed with the oracles."""
    kind, cs = job["kind"], ws.cs
    if job.get("bound", 99) > BRUTE_BOUND[ws.workload]:
        return False
    if kind in ("pi1", "hom", "monoid") and ws.complexes[job["complex"]].generators is not None:
        X = ws.complexes[job["complex"]]
        brute = brute_classes(oracles, X, job["bound"])
        if kind == "pi1":
            got: dict = {}
            for a in result.arrows:
                got.setdefault((a.source, a.target), []).append(a.size)
            _require({k: sorted(v) for k, v in got.items()} == brute, job)
        else:
            x = jobs._tuples(job["x"])
            y = x if kind == "monoid" else jobs._tuples(job["y"])
            classes = result.classes if kind == "monoid" else result
            _require(sorted(a.size for a in classes) == brute.get((x, y), []), job)
        return True
    if kind == "bijection":
        p = ws.covers[(job["n"], job["window"])]
        base = brute_classes(oracles, p.base, job["bound"])
        total = brute_classes(oracles, p.total, job["bound"])
        for rep in result:
            x0 = job["x0"]
            _require(rep.base_classes == len(base.get((p.vmap[x0], rep.target), [])), job)
            _require(rep.total_classes == sum(
                len(total.get((x0, x), [])) for x in p.fibre(rep.target)), job)
        return True
    if kind == "validate":
        p = ws.covers[(job["n"], job["window"])]
        table = oracles.brute_route_table(p.base, job["bound"])
        checked = skipped = 0
        for r in cs.enumerate_routes(p.base.graph, job["bound"]):
            if oracles.brute_is_controlled(table, r):
                for x0 in p.fibre(r.start):
                    if int(x0) + len(r.edges) <= job["window"]:
                        checked += 1
                    else:
                        skipped += 1
        _require((result.checked_lifts, result.skipped_lifts) == (checked, skipped), job)
        return True
    if kind == "laws":
        X, b = ws.cases[job["case"]][0], job["bound"]
        dhat, bf = cs.reflect_dhat(X), cs.reflect_bf(X)
        pairs = [(cs.reflect_dhat(dhat), dhat), (cs.reflect_bf(bf), bf), (cs.reflect_dhat(bf), dhat)]
        for left, right in pairs:
            _require(_controlled(oracles, left, b) == _controlled(oracles, right, b), job)
            _require(left.flexible == right.flexible, job)
        return True
    return False


def _controlled(oracles, X, bound: int) -> frozenset:
    table = oracles.brute_route_table(X, bound)
    return frozenset(
        (start, word, need) for (start, word), needs in table.items() for need in needs
    )


def main() -> int:
    goldens = {"default_seed": wl.DEFAULT_SEED, "rounds": ROUNDS}
    workdir = os.path.join(ROOT, ".bench_work", "record-goldens")
    try:
        for workload in wl.WORKLOADS:
            goldens[workload] = record(workload, workdir)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    with open(os.path.join(HERE, "goldens.json"), "w", encoding="utf-8") as fh:
        json.dump(goldens, fh, indent=0, sort_keys=True)
        fh.write("\n")
    return 0


def unseeded_jobs(workload: str) -> list[dict]:
    """Every validate job any seed can draw; the other unseeded jobs
    (categories pi1, one_simple, prodpres, induced) are in every round."""
    if workload != "coverings":
        return []
    return [wl.validate_job(n, w, b) for n in wl.COVER_STOPS for w in wl.COVER_WINDOWS
            for b in wl.COVER_BOUNDS]


def record(workload: str, workdir: str) -> dict:
    """Digests of every distinct job in the recorded rounds of ``workload``."""
    ws = jobs.Workspace(jobs.import_fresh(ROOT), workload, wl.DEFAULT_SEED, workdir)
    ws.build()
    # tests/oracles.py, imported read-only against the fresh package
    sys.modules.pop("oracles", None)
    oracles = importlib.import_module("oracles")
    digests, crossed = {}, 0
    for index in range(ROUNDS[workload] + 1):
        if index < ROUNDS[workload]:
            round_jobs = wl.make_round(workload, wl.DEFAULT_SEED, index)
            ws.prepare_round(index, round_jobs)
        else:
            round_jobs = unseeded_jobs(workload)
        for job in round_jobs:
            key = wl.job_id(job)
            if key in digests:
                continue
            result = jobs.bind(ws, job)()
            found = jobs.problems(ws, job, result)
            if found:
                raise SystemExit(f"{workload} {job['kind']} {key}: {found}")
            crossed += cross_check(ws, oracles, job, result)
            digests[key] = jobs.digest(jobs.canonical(ws, job, result))
    print(f"{workload}: {len(digests)} digests, {crossed} cross-checked by brute oracles")
    return digests


if __name__ == "__main__":
    sys.exit(main())
