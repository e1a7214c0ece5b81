"""Tests of the benchmark itself: job lists, work caps and the golden gate.

    python3 -m pytest benchmarks/tests -q
"""
from __future__ import annotations

import json
import os
import shutil
import subprocess
import sys
import tempfile

import pytest

BENCH = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
ROOT = os.path.dirname(BENCH)
sys.path.insert(0, BENCH)

import workloads as wl  # noqa: E402


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_job_list_is_byte_identical_per_seed(workload):
    first = wl.job_list_bytes(workload, 7, 3)
    assert first == wl.job_list_bytes(workload, 7, 3)
    assert first != wl.job_list_bytes(workload, 8, 3)


@pytest.mark.parametrize("workload", wl.WORKLOADS)
def test_every_bound_respects_the_work_cap(workload):
    for seed in range(4):
        for index in range(3):
            for job in wl.make_round(workload, seed, index):
                if "bound" not in job:  # runs no bounded search
                    assert job["kind"] == "reflect" or job.get("property") in (
                        "flexible", "border-flexible", "total-support")
                    continue
                assert job["bound"] >= 1
                assert job["work"] <= wl.WORK_CAPS[job["kind"]]


def test_unseeded_jobs_of_every_seed_have_golden_digests():
    with open(os.path.join(BENCH, "goldens.json"), encoding="utf-8") as fh:
        goldens = json.load(fh)
    for workload, kinds in (("categories", ("pi1", "one_simple", "prodpres", "induced")),
                            ("coverings", ("validate",))):
        for seed in range(5):
            for job in wl.make_round(workload, seed, 0):
                if job["kind"] in kinds:
                    assert wl.job_id(job) in goldens[workload], job


def test_capped_bound_lowers_the_bound_until_the_words_fit():
    graph = wl.symmetrized_graph(wl.circle_graph(2))  # two vertices, out-degree 2
    assert wl.count_words(graph, 3) == 2 * (1 + 2 + 4 + 8)
    assert wl.capped_bound(graph, 6, 30) == (3, 30)
    assert wl.capped_bound(graph, 6, 29) == (2, 14)


def _checkout(files: list[str]) -> str:
    """A copy of the named top-level entries, inside the repository's
    ignored work directory."""
    work = os.path.join(ROOT, ".bench_work")
    os.makedirs(work, exist_ok=True)
    dest = tempfile.mkdtemp(prefix="checkout-", dir=work)
    for name in files:
        src = os.path.join(ROOT, name)
        if os.path.isdir(src):
            shutil.copytree(src, os.path.join(dest, name),
                            ignore=shutil.ignore_patterns("__pycache__", "tests"))
        else:
            shutil.copy(src, dest)
    return dest


def _run(checkout: str, workload: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, "benchmarks/run.py", "--workload", workload, "--seed",
         str(wl.DEFAULT_SEED), "--seconds", "1", "--trace", "0"],
        cwd=checkout, capture_output=True, text=True, timeout=170,
    )


def test_a_corrupted_golden_digest_fails_the_run():
    checkout = _checkout(["BENCHMARK.json", "benchmarks", "src"])
    try:
        done = _run(checkout, "classify")
        assert done.returncode == 0, done.stdout + done.stderr
        assert json.loads(done.stdout.splitlines()[-1])["failed"] == 0

        path = os.path.join(checkout, "benchmarks", "goldens.json")
        with open(path, encoding="utf-8") as fh:
            goldens = json.load(fh)
        first = wl.job_id(wl.make_round("classify", wl.DEFAULT_SEED, 0)[0])
        goldens["classify"][first] = "0" * len(goldens["classify"][first])
        with open(path, "w", encoding="utf-8") as fh:
            json.dump(goldens, fh)

        done = _run(checkout, "classify")
        assert done.returncode != 0
        result = json.loads(done.stdout.splitlines()[-1])
        assert result["correct"] is False and result["failed"] >= 1
        ratio = float(done.stdout.split("failed_ratio ")[1].split()[0])
        assert ratio > 0
    finally:
        shutil.rmtree(checkout)


def test_without_the_package_source_the_run_fails_without_a_result():
    checkout = _checkout(["BENCHMARK.json", "benchmarks"])
    try:
        done = _run(checkout, "categories")
        assert done.returncode != 0
        assert '"metrics"' not in done.stdout
    finally:
        shutil.rmtree(checkout)
