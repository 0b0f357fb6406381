"""Workloads of the rulecover benchmark.

Every workload is a closed loop of cycles.  A cycle runs a main phase and a
side phase, each a fixed list of calls into the library; the next call
starts when the previous one returns.  The workload seed picks one of
VARIANTS input variants (seed mod VARIANTS), so every seed has pinned
reference outputs in reference.json.  The library only ever sees the
inputs built here: the pinned chains in inputs.json and the rules, search
seeds and perturbation seeds derived from the variant.
"""

from __future__ import annotations

import hashlib
import importlib
import json
import random
import sys
from dataclasses import dataclass
from pathlib import Path
from types import SimpleNamespace
from typing import Callable, Optional

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
BASELINE = HERE / "baseline"
INPUTS = HERE / "inputs.json"
REFERENCE = HERE / "reference.json"
VARIANTS = 64
MODULES = ("cli", "geometry", "highprec", "involute", "numerics", "search",
           "smooth", "verify")

# Sizes per scale.  "full" is the measured default; "smoke" keeps each
# workload's shape at a size the benchmark's own tests can afford.
SCALES = {
    "full": {
        "closed_grid": 64, "closed_fold": 1000,
        "smooth_input": "smooth128", "smooth_points": 32,
        "smooth_lengths": 16, "smooth_fold": 500,
        "search_edges": 16, "search_iters": 4000,
        "builds": 4, "build_step": 0.01,
        "digits": (30, 60),
    },
    "smoke": {
        "closed_grid": 16, "closed_fold": 50,
        "smooth_input": "smooth32", "smooth_points": 16,
        "smooth_lengths": 16, "smooth_fold": 20,
        "search_edges": 16, "search_iters": 200,
        "builds": 1, "build_step": 0.01,
        "digits": (30, 40),
    },
}

CLOSED_COVERS = ("r2", "two", "three", "four")
SEARCH_AREA_RANGE = (0.55536, 0.5600)

# Median seconds of the baseline copy's set-up, main phase and side phase
# at the "full" scale, as run.py times them, on the machine described in
# README.md.  The benchmark reports the library's time relative to the
# baseline's, times these, so the figures read as seconds at that
# machine's speed.  Smoke runs reuse them; only their ratios mean anything.
BASELINE_SECONDS = {
    "verify": {"setup": 0.07, "main": 6.9, "side": 1.05},
    "search-reproduce": {"setup": 0.2, "main": 1.44, "side": 2.98},
}

# 30-digit smooth-cut values as printed by `cover reproduce-smooth`.
PINNED_30 = {
    "a": "1.11073213677147211458454234766",
    "b0": "-0.310039083801076651082339283741",
    "b1": "0.882420100742466054972684952091",
    "b2": "0.134980967580652222210035503627",
    "A": "0.555360368646626116048170223491",
}


def load_program(root: Path = SRC) -> SimpleNamespace:
    """Import the library under `root` afresh, as a new `cover` process would.

    Earlier imports are dropped from sys.modules first, so repeated calls
    each pay the import; the returned namespace holds the new modules, which
    keep working when a later call imports another copy.  The default root
    is the library under test; BASELINE is the benchmark's frozen copy.
    """
    if not (root / "rulecover" / "__init__.py").is_file():
        raise FileNotFoundError(f"library sources not found under {root}")
    for name in [m for m in sys.modules
                 if m == "rulecover" or m.startswith("rulecover.")]:
        del sys.modules[name]
    sys.path.insert(0, str(root))
    try:
        importlib.import_module("rulecover.cli")
    finally:
        sys.path.remove(str(root))
    return SimpleNamespace(**{m: sys.modules[f"rulecover.{m}"] for m in MODULES})


def load_json(path: Path) -> dict:
    with open(path) as fh:
        return json.load(fh)


def digest(value) -> str:
    """Short content hash of a value's repr (floats keep every digit)."""
    return hashlib.sha256(repr(value).encode()).hexdigest()[:16]


def truncate(text: str, digits: int) -> str:
    """Decimal string cut (not rounded) to `digits` significant digits."""
    sign = "-" if text.startswith("-") else ""
    out, sig = [], 0
    for ch in text.lstrip("-"):
        if ch != ".":
            if sig or ch != "0":
                sig += 1
        out.append(ch)
        if sig == digits:
            break
    return sign + "".join(out)


@dataclass
class Op:
    """One call into the library and the checks on its output.

    `check` returns an error message or None.  `digest` maps the output to
    a JSON value that must equal the pinned reference under `label`.
    """

    label: str
    call: Callable[[], object]
    check: Callable[[object], Optional[str]] = lambda out: None
    digest: Optional[Callable[[object], object]] = None
    seeded: bool = False


class Workload:
    name = ""
    main_name = ""     # what one main phase does, for the printed table
    side_name = ""
    built = ("lib", "inputs")   # attributes that setup() makes

    def __init__(self, seed: int, scale: str, reference: dict):
        self.seed = seed
        self.variant = seed % VARIANTS
        self.scale = scale
        self.size = SCALES[scale]
        self.lib = None
        self.reference = reference
        self.ref = reference.get(scale, {}).get(self.name, {"fixed": {}, "seeded": {}})

    def rng(self, purpose: str) -> random.Random:
        return random.Random(f"{self.name}/{purpose}/{self.variant}")

    def setup(self, lib):
        """Build the library-side inputs, the way `cover verify` does."""
        self.lib = lib
        self.inputs = load_json(INPUTS)

    def release(self):
        """Drop the library and all that setup() built from it."""
        for attr in self.built:
            setattr(self, attr, None)

    def build(self, name: str):
        """Cover from a pinned chain: from_json plus an audited build."""
        inv = self.lib.involute
        chain = inv.GeneratingChain.from_json(self.inputs[name])
        return inv.involute_cover(chain)

    def main_ops(self):
        raise NotImplementedError

    def side_ops(self):
        raise NotImplementedError

    def reference_for(self, op: Op):
        table = self.ref["seeded"].get(str(self.variant), {}) if op.seeded \
            else self.ref["fixed"]
        return table.get(op.label)

    def verify_output(self, op: Op, out) -> Optional[str]:
        msg = op.check(out)
        if msg is None and op.digest is not None:
            want = self.reference_for(op)
            got = op.digest(out)
            if want is None:
                msg = "no pinned reference"
            elif got != want:
                msg = f"output {got!r} differs from reference {want!r}"
        return msg

    def derived(self, medians: dict, outputs: dict) -> dict:
        """Named rates and times, name -> (value, unit), from the median
        seconds and the last output of each op label."""
        return {}


class Verify(Workload):
    """Verify and fold: the smooth cut in the main phase, the closed-form
    covers (the few-piece control) in the side phase."""

    name = "verify"
    main_name = "verify_reachability and fold_rule on the 128-edge smooth cut"
    side_name = "verify_reachability and fold_rule on r2, two, three, four"
    built = Workload.built + ("bundles", "grids", "rules")

    def cases(self):
        """(cover, input name, (points, lengths), fold segments) per cover."""
        s = self.size
        g = s["closed_grid"]
        return ([("smooth", s["smooth_input"], (s["smooth_points"], s["smooth_lengths"]),
                  s["smooth_fold"])]
                + [(c, c, (g, g), s["closed_fold"]) for c in CLOSED_COVERS])

    def setup(self, lib):
        super().setup(lib)
        rng = self.rng("rules")
        self.bundles, self.grids, self.rules = {}, {}, {}
        for cover, input_name, grid, n in self.cases():
            self.bundles[cover] = self.build(input_name)
            self.grids[cover] = grid
            # one length in each of n equal bins of (0, 1], in seeded order:
            # every seed gets a different rule but about the same fold work
            lengths = [(i + 1 - rng.random()) / n for i in range(n)]
            rng.shuffle(lengths)
            self.rules[cover] = (lib.verify.Rule(lengths), rng.randrange(2 ** 31))

    def verify_op(self, cover: str) -> Op:
        bundle, (pts, lens) = self.bundles[cover], self.grids[cover]
        op = Op(f"verify:{cover}",
                lambda: self.lib.verify.verify_reachability(bundle, pts, lens))
        if cover == "smooth":
            op.digest = self.report_digest
        else:
            op.check = self.check_closed
        return op

    def fold_op(self, cover: str) -> Op:
        bundle = self.bundles[cover]
        rule, fold_seed = self.rules[cover]
        return Op(f"fold:{cover}",
                  lambda: self.lib.verify.fold_rule(bundle, rule, seed=fold_seed),
                  check=lambda fold: self.check_fold(bundle, rule, fold),
                  digest=lambda fold: digest(fold.joints), seeded=True)

    def main_ops(self):
        return [self.verify_op("smooth"), self.fold_op("smooth")]

    def side_ops(self):
        return ([self.verify_op(c) for c in CLOSED_COVERS]
                + [self.fold_op(c) for c in CLOSED_COVERS])

    @staticmethod
    def report_digest(report):
        # the known failure set is pinned as is, not hashed, so it can be cited
        return {"points": report.points,
                "failures": [[p[0], p[1], length] for (p, length) in report.failures],
                "diameter": report.diameter}

    @staticmethod
    def check_closed(report) -> Optional[str]:
        if report.failures:
            return f"{len(report.failures)} reachability failures on a closed-form cover"
        if not report.diameter <= 1.0 + 1e-9:
            return f"diameter {report.diameter!r} exceeds 1 + 1e-9"
        return None

    def check_fold(self, bundle, rule, fold) -> Optional[str]:
        try:
            self.lib.verify.check_fold(bundle, rule, fold)
        except AssertionError as exc:
            return f"check_fold: {exc}"
        return None

    def derived(self, medians, outputs):
        out = {}
        for group, covers in (("smooth", ("smooth",)), ("closed", CLOSED_COVERS)):
            reports = [outputs[f"verify:{c}"] for c in covers]
            if any(isinstance(r, Exception) for r in reports):
                continue
            queries = sum(r.points * r.lengths for r in reports)
            segments = sum(len(self.rules[c][0].lengths) for c in covers)
            out[f"{group}.verify_queries_per_s"] = (
                queries / sum(medians[f"verify:{c}"] for c in covers), "1/s")
            out[f"{group}.fold_segments_per_s"] = (
                segments / sum(medians[f"fold:{c}"] for c in covers), "1/s")
        return out


class SearchReproduce(Workload):
    """Search and audited builds in the main phase; the decimal
    reproduction, which runs no float geometry, in the side phase."""

    name = "search-reproduce"
    main_name = "local_search, then audited builds of perturbed 512-edge smooth chains"
    built = Workload.built + ("base_params",)
    lo_digits = 30

    def __init__(self, seed, scale, reference):
        super().__init__(seed, scale, reference)
        self.hi_digits = self.size["digits"][1]
        self.side_name = (f"reproduce_appendix({self.hi_digits}), "
                          f"then reproduce_appendix({self.lo_digits})")

    def setup(self, lib):
        super().setup(lib)
        base = self.build("smooth512")
        self.base_params = lib.search.ChainParams.from_chain(base.chain)

    def main_ops(self):
        cfg = self.lib.search.SearchConfig(
            edges=self.size["search_edges"], iterations=self.size["search_iters"],
            seed=self.variant)
        rng = self.rng("perturb")
        step = self.size["build_step"]

        def build_variant():
            params = self.lib.search.perturb(self.base_params, step, rng)
            return self.lib.involute.involute_cover(params.to_chain())

        return ([Op("local_search", lambda: self.lib.search.local_search(cfg),
                    check=self.check_search,
                    digest=lambda tr: digest(tr.best_areas), seeded=True)]
                + [Op(f"build:{i}", build_variant,
                      digest=lambda bundle: bundle.area, seeded=True)
                   for i in range(self.size["builds"])])

    @staticmethod
    def check_search(trace) -> Optional[str]:
        lo, hi = SEARCH_AREA_RANGE
        if not lo < trace.best_area < hi:
            return f"best area {trace.best_area!r} outside ({lo}, {hi})"
        return None

    def reproduce_op(self, digits: int) -> Op:
        def call():
            # each `cover reproduce-smooth` process starts with an empty pi cache
            self.lib.highprec.pi_decimal.cache_clear()
            return self.lib.smooth.reproduce_appendix(digits)
        return Op(f"reproduce:{digits}", call,
                  check=lambda rep: self.check_lines(rep, digits))

    @staticmethod
    def check_lines(rep, digits) -> Optional[str]:
        got = {"a": rep.a, "b0": rep.b0, "b1": rep.b1, "b2": rep.b2, "A": rep.area}
        for key, want in PINNED_30.items():
            if truncate(got[key], 30) != want:
                return f"{digits}-digit {key} = {got[key]} does not truncate to {want}"
        return None

    def side_ops(self):
        return [self.reproduce_op(self.hi_digits), self.reproduce_op(self.lo_digits)]

    def derived(self, medians, outputs):
        builds = self.size["builds"]
        return {
            "search_iters_per_s": (self.size["search_iters"] / medians["local_search"],
                                   "1/s"),
            "construct_per_s": (
                builds / sum(medians[f"build:{i}"] for i in range(builds)), "1/s"),
            f"reproduce{self.hi_digits}_s": (medians[f"reproduce:{self.hi_digits}"], "s"),
            f"reproduce{self.lo_digits}_s": (medians[f"reproduce:{self.lo_digits}"], "s"),
        }


WORKLOADS = {w.name: w for w in (Verify, SearchReproduce)}
