"""Set-up, execution, answer digests and invariants for benchmark jobs.

``import_fresh`` imports the package from the checkout's ``src``
directory.  A ``Workspace`` builds the complexes a workload needs,
writes its input documents and runs a fixed warm-up.  ``bind`` turns a
job into a zero-argument call into the library or the in-process CLI;
only that call is timed.  ``canonical`` renders the result as text for
the golden digest, and ``problems`` checks the invariants that hold for
every seed.
"""
from __future__ import annotations

import hashlib
import importlib
import os
import random
import sys

import workloads as wl

# Classify rounds whose documents are written during set-up; later
# rounds are prepared between jobs, outside the timed calls.
CLASSIFY_ROUNDS_AT_SETUP = 4


def import_fresh(root: str):
    """Import ``cspace`` from ``<root>/src``, re-executing its modules."""
    src = os.path.join(root, "src")
    if src not in sys.path:
        sys.path.insert(0, src)
    for name in [m for m in sys.modules if m == "cspace" or m.startswith("cspace.")]:
        del sys.modules[name]
    cs = importlib.import_module("cspace")
    importlib.import_module("cspace.cli")
    if os.path.dirname(os.path.abspath(cs.__file__)) != os.path.join(src, "cspace"):
        raise ImportError(f"cspace imported from {cs.__file__}, not from {src}")
    return cs


def _tuples(x):
    """JSON lists back to the tuple ids of product vertices."""
    return tuple(_tuples(i) for i in x) if isinstance(x, list) else x


class Workspace:
    """Everything one run of a workload needs, built by ``setup``."""

    def __init__(self, cs, workload: str, seed: int, workdir: str) -> None:
        self.cs = cs
        self.cli = sys.modules["cspace.cli"]
        self.workload = workload
        self.seed = seed
        self.workdir = workdir
        self.complexes = {}
        self.covers = {}
        self.cases = {}
        self.prepared_rounds = set()
        self._label_tables = {}

    # -- set-up --------------------------------------------------------

    def build(self) -> None:
        cs = self.cs
        if self.workload == "categories":
            f = {"line3": cs.line_c(3), "line2": cs.line_c(2),
                 "middelay": cs.interval_middle_delay()}
            self.complexes = dict(f)
            self.complexes["line3xline3"] = cs.product(f["line3"], f["line3"])
            self.complexes["symcircle2"] = cs.symmetrize(cs.circle_n_stop(2))
            self.complexes["circle3"] = cs.circle_n_stop(3)
            self.complexes["middelayxline2"] = cs.product(f["middelay"], f["line2"])
        elif self.workload == "coverings":
            for n in wl.COVER_STOPS:
                for w in wl.COVER_WINDOWS:
                    self.covers[(n, w)] = cs.exponential_cover(n, w)
        else:
            os.makedirs(self.workdir, exist_ok=True)
            for index in range(CLASSIFY_ROUNDS_AT_SETUP):
                self.prepare_round(index, wl.make_round("classify", self.seed, index))

    def prepare_round(self, index: int, jobs: list[dict]) -> None:
        """Write the documents of a classify round (a no-op elsewhere)."""
        if self.workload != "classify" or index in self.prepared_rounds:
            return
        for job in jobs:
            self._prepare_case(job)
        self.prepared_rounds.add(index)

    def _prepare_case(self, job: dict) -> None:
        if job["case"] in self.cases:
            return
        cs = self.cs
        X = cs.parse_complex(job["doc"])
        shown = {"plain": lambda: X, "dhat": lambda: cs.reflect_dhat(X),
                 "symmetrize": lambda: cs.symmetrize(X)}[job["variant"]]()
        path = os.path.join(self.workdir, job["case"] + ".json")
        cs.save_complex(shown, path)
        partner = os.path.join(self.workdir, job["case"] + "-partner.json")
        cs.save_complex(cs.parse_complex(job["partner"]), partner)
        self.cases[job["case"]] = (X, path, partner)

    def warm_up(self) -> None:
        """Run one small, seed-independent job of each kind."""
        for job in warm_up_jobs(self.workload):
            if self.workload == "classify":
                self._prepare_case(job)
            bind(self, job)()

    # -- execution -----------------------------------------------------

    def realizable_labels(self, name: str, X, bound: int) -> dict:
        """Realizable labels per (source, target), counted label by label
        through ``is_realizable``; cached per complex and bound."""
        key = (name, bound)
        if key not in self._label_tables:
            table: dict = {}
            cs = self.cs
            for x in sorted(X.flexible, key=cs.idkey):
                for word, end in X.graph.iter_words(x, bound):
                    if cs.is_realizable(X, x, word):
                        table[(x, end)] = table.get((x, end), 0) + 1
            self._label_tables[key] = table
        return self._label_tables[key]


def warm_up_jobs(workload: str) -> list[dict]:
    if workload == "categories":
        jobs = [{"kind": k, "complex": "middelayxline2", "bound": 4}
                for k in ("pi1", "one_simple", "prodpres")]
        jobs.append({"kind": "hom", "complex": "middelayxline2", "bound": 4,
                     "x": ["0", "0"], "y": ["1", "0"]})
        jobs.append({"kind": "monoid", "complex": "circle3", "bound": 4, "x": "0"})
        jobs.append({"kind": "induced", "complex": "circle3", "bound": 4})
        return jobs
    if workload == "coverings":
        return [
            {"kind": "validate", "n": 2, "window": 8, "bound": 4},
            {"kind": "bijection", "n": 2, "window": 8, "x0": "0", "targets": ["0", "1"],
             "bound": 4},
            {"kind": "lift", "n": 2, "window": 8, "routes": [["0", 3, [1]]], "bound": 4},
        ]
    rng = random.Random("warm-up")
    case = {"case": "warm-up", "doc": wl.random_complex(rng, 3, (3, 3), (2, 2), "a"),
            "partner": wl.random_complex(rng, 2, (1, 1), (1, 1), "b"),
            "variant": "plain", "bound": 2}
    return [
        dict(case, kind="report"),
        dict(case, kind="check", property="preflexible"),
        dict(case, kind="reflect", which="dhat"),
        dict(case, kind="product_report"),
        dict(case, kind="middle", of="dhat"),
        dict(case, kind="laws"),
    ]


def bind(ws: Workspace, job: dict):
    """The job as a zero-argument call; inputs are resolved beforehand."""
    cs, kind, b = ws.cs, job["kind"], job.get("bound")
    if ws.workload == "categories":
        X = ws.complexes[job["complex"]]
        if kind == "pi1":
            return lambda: cs.pi1(X, b)
        if kind == "hom":
            x, y = _tuples(job["x"]), _tuples(job["y"])
            return lambda: cs.hom_classes(X, x, y, b)
        if kind == "monoid":
            x = _tuples(job["x"])
            return lambda: cs.fundamental_monoid(X, x, b)
        if kind == "one_simple":
            return lambda: cs.is_one_simple(X, b)
        if kind == "prodpres":
            left, right = (ws.complexes[f] for f in wl.CATEGORY_POOL[job["complex"]]["factors"])
            return lambda: cs.check_product_preservation(left, right, b)
        if kind == "induced":
            return lambda: cs.induced_comparisons(X, b)
    elif ws.workload == "coverings":
        p = ws.covers[(job["n"], job["window"])]
        if kind == "validate":
            return lambda: cs.validate_covering(p, b)
        if kind == "bijection":
            x0, targets = job["x0"], job["targets"]
            return lambda: [cs.check_lifting_bijection(p, x0, y, b) for y in targets]
        if kind == "lift":
            pairs = [(base_route(p, x0, length, dwells), x0) for x0, length, dwells in job["routes"]]
            return lambda: [cs.lift_route(p, r, x0) for r, x0 in pairs]
    else:
        X, path, partner = ws.cases[job["case"]]
        run = ws.cli.run_command
        out = os.path.join(ws.workdir, "out.json")
        if kind == "report":
            return lambda: run(["report", path, "--bound", str(b)])
        if kind == "check":
            extra = ["--bound", str(b)] if b is not None else []
            return lambda: run(["check", path, job["property"]] + extra)
        if kind == "reflect":
            return lambda: run(["reflect", path, job["which"], "-o", out])
        if kind == "product_report":
            return lambda: (run(["product", path, partner, "-o", out]),
                            run(["report", out, "--bound", str(b)]))
        if kind == "middle":
            reflect = cs.reflect_dhat if job["of"] == "dhat" else cs.symmetrize
            return lambda: cs.check_middle_restriction(reflect(X), b)
        if kind == "laws":
            return lambda: reflector_laws(cs, X, b)
    raise ValueError(f"unknown job kind {kind!r} in {ws.workload}")


def base_route(p, x0: str, length: int, dwells: list[int]):
    """The base route of ``length`` steps that starts under ``x0``."""
    n = len(p.base.graph.vertices)
    start = int(p.vmap[x0])
    edges = [f"e{(start + i) % n}" for i in range(length)]
    return p.base.graph.route(str(start), edges, dwells)


def reflector_laws(cs, X, bound: int) -> tuple[bool, ...]:
    """Idempotence of dhat, bf and pf, and dhat o bf = dhat, to ``bound``."""
    dhat, bf, pf = cs.reflect_dhat(X), cs.reflect_bf(X), cs.reflect_pf(X)
    return (
        cs.oracle_equivalent(cs.reflect_dhat(dhat), dhat, bound),
        cs.oracle_equivalent(cs.reflect_bf(bf), bf, bound),
        cs.oracle_equivalent(cs.reflect_pf(pf), pf, bound),
        cs.oracle_equivalent(cs.reflect_dhat(bf), dhat, bound),
    )


# ---------------------------------------------------------------------------
# answers


def _category_text(cat) -> list[str]:
    lines = [f"objects {len(cat.objects)} arrows {cat.arrow_count} "
             f"incomplete {cat.possibly_incomplete}"]
    lines += [f"{a.rep} {a.size}" for a in cat.arrows]
    return lines


def canonical(ws: Workspace, job: dict, result) -> str:
    """Deterministic text of a job's answer; ids render, sets sort."""
    kind = job["kind"]
    if kind == "pi1":
        lines = _category_text(result)
    elif kind == "hom":
        lines = [f"{a.rep} {a.size}" for a in result]
    elif kind == "monoid":
        lines = [f"identity {result.identity_index} truncated {result.truncated}"]
        lines += [f"{a.rep} {a.size}" for a in result.classes]
        lines += [" ".join("-" if v is None else str(v) for v in row) for row in result.table]
    elif kind == "one_simple":
        lines = [str(result)]
    elif kind == "prodpres":
        lines = [f"{result.objects_bijective} {result.homs_bijective} {result.product_objects} "
                 f"{result.product_arrows} {result.pairs_in_bound}", *result.mismatches]
    elif kind == "induced":
        lines = [f"{result.first_functorial} {result.second_functorial} "
                 f"{result.second_full} {result.second_faithful}"]
        for cat in (result.flexible_part, result.whole, result.generated):
            lines += _category_text(cat)
        lines.append(repr(sorted(result.first_arrow_map.items())))
        lines.append(repr(sorted(result.second_arrow_map.items())))
        lines += [f"{x} {y} {r}" for x, y, r in result.non_fullness]
    elif kind == "validate":
        lines = [f"{result.valid} {result.star_ok} {result.lift_ok} {result.flexible_ok} "
                 f"{result.checked_lifts} {result.skipped_lifts}", *result.witnesses]
    elif kind == "bijection":
        lines = []
        for rep in result:
            lines.append(f"{rep.target} {rep.bijective} {rep.base_classes} {rep.total_classes} "
                         f"{','.join(rep.fibre)}")
            lines += [f"{a} {x} {t}" for a, x, t in rep.pairs]
            lines += list(rep.witnesses)
    elif kind == "lift":
        lines = [str(r) for r in result]
    elif kind in ("report", "check", "reflect"):
        lines = _cli_text(ws, result)
    elif kind == "product_report":
        lines = _cli_text(ws, result[0]) + _cli_text(ws, result[1])
    elif kind == "middle":
        lines = [f"{result.applicable} {result.holds} {result.checked} "
                 f"{len(result.witnesses)} {result.counterexample}"]
    elif kind == "laws":
        lines = [repr(result)]
    else:
        raise ValueError(f"unknown job kind {kind!r}")
    return "\n".join(lines)


def _cli_text(ws: Workspace, result) -> list[str]:
    code, text = result
    lines = [f"exit {code}", text.replace(ws.workdir, "<work>")]
    if text.startswith("wrote "):
        with open(text[len("wrote "):], "rb") as fh:
            lines.append("document " + hashlib.sha256(fh.read()).hexdigest())
    return lines


def digest(text: str) -> str:
    return hashlib.sha256(text.encode()).hexdigest()[:20]


def problems(ws: Workspace, job: dict, result) -> list[str]:
    """Invariants that hold whatever the seed; empty when all hold."""
    kind, cs = job["kind"], ws.cs
    out = []
    if kind in ("pi1", "hom", "monoid"):
        X = ws.complexes[job["complex"]]
        table = ws.realizable_labels(job["complex"], X, job["bound"])
        if kind == "pi1":
            want, classes = sum(table.values()), result.arrows
        elif kind == "hom":
            want, classes = table.get((_tuples(job["x"]), _tuples(job["y"])), 0), result
        else:
            x = _tuples(job["x"])
            want, classes = table.get((x, x), 0), result.classes
        got = sum(a.size for a in classes)
        if got != want:
            out.append(f"class sizes sum to {got}, realizable labels are {want}")
    elif kind == "validate" and not (result.valid and result.lift_ok):
        out.append("exponential cover reported invalid")
    elif kind == "bijection":
        for rep in result:
            if not rep.bijective or rep.base_classes != rep.total_classes:
                out.append(f"lifting not bijective at target {rep.target}")
    elif kind == "lift":
        p = ws.covers[(job["n"], job["window"])]
        for (x0, length, dwells), lift in zip(job["routes"], result):
            base = base_route(p, x0, length, dwells)
            if lift.start != x0 or p.project(lift) != base or not p.total.is_controlled(lift):
                out.append(f"lift {lift} of {base} from {x0} is wrong")
    elif kind in ("report", "check", "reflect", "product_report"):
        codes = [r[0] for r in result] if kind == "product_report" else [result[0]]
        if 2 in codes:
            out.append(f"generated input got exit 2: {result}")
    elif kind == "middle" and not result.applicable:
        out.append(f"middle restriction inapplicable on the {job['of']} variant")
    elif kind == "laws" and not all(result):
        out.append(f"reflector law broken: {result}")
    return out
