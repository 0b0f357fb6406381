"""Hill-climbing local search over symmetric n-edge generating chains.

The half chain is the search space: n//2 (length fraction, turn angle)
pairs, with the middle edge implied for odd n and mirror symmetry always
enforced by construction.  Moves perturb one coordinate, renormalize the
fractions, clamp turns nonnegative, and are accepted only on strict area
improvement; inadmissible candidates are rejected outright and counted by
reason.  `involute.half_chain_area` scores a move from its half parameters:
a closed sum over the layout's own data settles most moves as no better
with no chain object, and only the rest build the chain, take its checks
and, as contenders, walk the string for the exact area.  The winner is
rebuilt once, certified.  Runs are bit-reproducible for a fixed seed.
"""

from __future__ import annotations

import csv
import math
import random
from collections import Counter
from functools import cache
from typing import NamedTuple

from . import numerics, smooth
from .geometry import GeometryError
from .involute import (
    GeneratingChain,
    InadmissibleChainError,
    half_chain_area,
    involute_cover,
)

MIN_FRACTION = 1e-6  # a moved fraction's floor before the fractions rescale
STEP_DECAY = 0.999  # the step shrinks by this factor on each accepted move


class SearchConfigError(ValueError):
    pass


class SearchConfig:
    __slots__ = ("edges", "iterations", "seed", "initial_step")

    def __init__(self, edges: int, iterations: int, seed: int,
                 initial_step: float = 0.05):
        for name, count in (("edges", edges), ("iterations", iterations)):
            if isinstance(count, bool) or not isinstance(count, int):
                raise SearchConfigError(f"{name} must be an integer, got {count!r}")
        if edges < 1:
            raise SearchConfigError("edges must be >= 1")
        if iterations < 1:
            raise SearchConfigError("iterations must be >= 1")
        if not 0 < initial_step < math.inf:
            raise SearchConfigError("initial step must be finite and positive")
        self.edges = edges
        self.iterations = iterations
        self.seed = seed
        self.initial_step = initial_step


class ChainParams(NamedTuple):
    """Half-chain coordinates: one (fraction, turn) pair per half edge."""

    edges: int
    fracs: tuple
    turns: tuple

    def to_chain(self) -> GeneratingChain:
        return GeneratingChain.from_half_params(self.edges, self.fracs, self.turns)

    @staticmethod
    def from_chain(chain: GeneratingChain) -> "ChainParams":
        return ChainParams(chain.n_edges, *chain.half_params())


class SearchTrace:
    """Best area after each iteration, the winner, and why moves failed.

    rejections counts rejected candidates by ChainDiagnostic.kind (a move
    violating several invariants counts under each), "params" for half
    parameters that give no chain and "geometry" for a clockwise boundary
    or a bad arc.  accepted counts improving moves, estimated those the
    layout's settle test settled; step is the step size at the end (None
    when there was nothing to search).  local_search fills in a new one.
    """

    def __init__(self):
        self.best_areas = []
        self.best_chain = None
        self.best_area = math.inf
        self.rejections = Counter()
        self.accepted = 0
        self.step = None
        self.estimated = 0


def perturb(params: ChainParams, step: float, rng: random.Random) -> ChainParams:
    """Move one coordinate by uniform(+-step); renormalize and clamp.  The
    moved fraction is clamped to MIN_FRACTION before the rescale, which
    may take fractions below it; any positive fraction lays out."""
    if not 0 <= step < math.inf:
        raise ValueError(f"step must be finite and nonnegative, got {step!r}")
    fracs, turns = params.fracs, params.turns
    k = rng.randrange(len(fracs) + len(turns))
    delta = (2 * rng.random() - 1) * step
    if delta == 0.0:
        return params
    if k < len(fracs):
        fracs = list(fracs)
        fracs[k] = max(MIN_FRACTION, fracs[k] + delta)
        total = numerics.ordered_sum(fracs)
        if params.edges % 2 == 0:
            fracs = [f * 0.5 / total for f in fracs]
        else:
            # keep room for the implied middle edge
            limit = (1.0 - MIN_FRACTION) / 2
            if total > limit:
                fracs = [f * limit / total for f in fracs]
    else:
        turns = list(turns)
        j = k - len(fracs)
        turns[j] = max(0.0, turns[j] + delta)
    return ChainParams(params.edges, tuple(fracs), tuple(turns))


def _cover_area(params: ChainParams, rejections: Counter, bound=math.inf):
    """The area an unaudited build of params.to_chain() records, inf if it is
    settled as >= bound, or None when inadmissible, counted into
    `rejections` by kind (see SearchTrace)."""
    try:
        return half_chain_area(params.edges, params.fracs, params.turns, bound)
    except InadmissibleChainError as exc:
        rejections.update({d.kind for d in exc.diagnostics})
    except GeometryError:  # a clockwise boundary or a bad arc
        rejections["geometry"] += 1
    except ValueError:  # half parameters that give no chain
        rejections["params"] += 1
    return None


def initial_params(n: int) -> ChainParams:
    """Feasible warm start: the discretized smooth optimum for n >= 4,
    else a flat chain with small uniform turns."""
    m = n // 2
    if n >= 4:
        _, co, _ = _smooth_optimum()
        chain = smooth.discretize_smooth(co, n)
        return ChainParams.from_chain(chain)
    if n % 2 == 0:
        fracs = tuple(0.5 / m for _ in range(m))
        turns = tuple(0.2 / m for _ in range(m))
    else:
        fracs = tuple(1.0 / n for _ in range(m))
        turns = tuple(0.2 / n for _ in range(m))
    return ChainParams(edges=n, fracs=fracs, turns=turns)


@cache
def _smooth_optimum():
    return smooth.optimize_smooth(tol=1e-10)


def local_search(cfg: SearchConfig) -> SearchTrace:
    """Strict-improvement hill climbing, cfg.iterations moves in one run."""
    trace = SearchTrace()
    rng = random.Random(cfg.seed)
    best_params = initial_params(cfg.edges)
    best_area = _cover_area(best_params, trace.rejections)
    if best_area is None:
        raise SearchConfigError(
            f"no admissible initial chain with {cfg.edges} edges")
    trace.best_areas.append(best_area)

    step = None  # one edge has an empty half chain: no move to make
    if cfg.edges > 1:
        step = cfg.initial_step
        for _ in range(cfg.iterations):
            cand = perturb(best_params, step, rng)
            area = _cover_area(cand, trace.rejections, best_area)
            if area == math.inf:
                trace.estimated += 1
            elif area is not None and area < best_area:
                best_area, best_params = area, cand
                step *= STEP_DECAY
                trace.accepted += 1
            trace.best_areas.append(best_area)
    trace.step = step

    # certified rebuild of the winner (the loop skipped the boundary check)
    final = involute_cover(best_params.to_chain())
    trace.best_chain = final.chain
    trace.best_area = final.area
    return trace


def write_trace_csv(trace: SearchTrace, path):
    with open(path, "w", newline="") as fh:
        writer = csv.writer(fh)
        writer.writerow(["iteration", "best_area"])
        for i, area in enumerate(trace.best_areas):
            writer.writerow([i, repr(area)])
