import hashlib
import math
import random
from collections import Counter

import pytest

from conftest import TWO_OPT_AREA
from rulecover import cli, involute
from rulecover.constructions import R2_AREA
from rulecover.involute import validate_chain
from rulecover.search import (
    ChainParams,
    STEP_DECAY,
    _cover_area,
    SearchConfig,
    SearchConfigError,
    SearchTrace,
    initial_params,
    local_search,
    perturb,
    write_trace_csv,
)


class TestConfig:
    def test_keywords_and_defaults(self):
        cfg = SearchConfig(edges=8, iterations=10, seed=3)
        assert (cfg.edges, cfg.iterations, cfg.seed,
                cfg.initial_step) == (8, 10, 3, 0.05)
        cfg = SearchConfig(5, 20, 7, 0.1)
        assert (cfg.edges, cfg.iterations, cfg.seed,
                cfg.initial_step) == (5, 20, 7, 0.1)

    @pytest.mark.parametrize("knob, value", [("restarts", 1),
                                              ("step_decay", 0.999)])
    def test_removed_knobs_are_refused(self, knob, value):
        # a search is one run of `iterations` moves, its step shrunk by
        # STEP_DECAY on each accepted move
        with pytest.raises(TypeError):
            SearchConfig(edges=2, iterations=10, seed=1, **{knob: value})
        with pytest.raises(TypeError):
            SearchConfig(2, 10, 1, 0.05, value)
        assert not hasattr(SearchConfig(2, 10, 1), knob)

    def test_validation(self):
        with pytest.raises(SearchConfigError, match="^edges must be >= 1$"):
            SearchConfig(edges=0, iterations=10, seed=1)
        with pytest.raises(SearchConfigError, match="^iterations must be >= 1$"):
            SearchConfig(edges=2, iterations=0, seed=1)
        with pytest.raises(SearchConfigError):
            SearchConfig(edges=2, iterations=10, seed=1, initial_step=0.0)

    @pytest.mark.parametrize("step", [math.inf, math.nan, -math.inf, -0.1])
    def test_initial_step_must_be_finite_and_positive(self, step):
        # an infinite step makes every move a NaN chain, so a search would
        # reject them all and report its start as the best area
        with pytest.raises(SearchConfigError, match="finite and positive"):
            SearchConfig(edges=2, iterations=10, seed=1, initial_step=step)

    @pytest.mark.parametrize("field", ["edges", "iterations"])
    @pytest.mark.parametrize("value", [4.0, True, "4", None])
    def test_counts_must_be_integers(self, field, value):
        # a float count used to end in range()'s TypeError inside
        # local_search, and edges=True ran a one-edge search
        counts = dict(edges=4, iterations=10)
        counts[field] = value
        with pytest.raises(SearchConfigError,
                           match=f"^{field} must be an integer, got {value!r}$"):
            SearchConfig(seed=1, **counts)


class TestPerturb:
    def test_zero_step_is_identity(self):
        params = initial_params(4)
        rng = random.Random(0)
        for _ in range(20):
            assert perturb(params, 0.0, rng) == params

    def test_fraction_normalization(self):
        params = initial_params(4)
        rng = random.Random(1)
        for _ in range(200):
            params = perturb(params, 0.05, rng)
            assert abs(sum(params.fracs) - 0.5) <= 1e-15

    def test_turns_clamped_nonnegative(self):
        params = initial_params(3)
        rng = random.Random(2)
        for _ in range(500):
            params = perturb(params, 0.3, rng)
            assert all(t >= 0.0 for t in params.turns)

    def test_negative_step_rejected(self):
        with pytest.raises(ValueError):
            perturb(initial_params(2), -1.0, random.Random(0))

    @pytest.mark.parametrize("step", [math.nan, math.inf])
    def test_non_finite_step_rejected(self, step):
        # nan passed a plain sign test and zeroed a turn; inf gave NaN
        # fractions
        with pytest.raises(ValueError, match="finite and nonnegative"):
            perturb(initial_params(4), step, random.Random(0))

    def test_mass_perturbation_admissibility(self):
        # moderate single moves from a feasible start never break the chain
        start = initial_params(4)
        rng = random.Random(7)
        for _ in range(10_000):
            cand = perturb(start, 0.005, rng)
            assert validate_chain(cand.to_chain()) == []


class TestLocalSearch:
    def test_single_edge_has_no_freedom(self):
        trace = local_search(SearchConfig(edges=1, iterations=5, seed=1))
        assert trace.best_areas == [trace.best_area]
        assert abs(trace.best_area - R2_AREA) <= 1e-12

    def test_two_edges_reach_reference(self):
        trace = local_search(SearchConfig(edges=2, iterations=3000, seed=1))
        assert trace.best_area <= 0.5727
        assert trace.best_area >= TWO_OPT_AREA - 1e-12

    def test_trace_monotone_and_reproducible(self):
        cfg = SearchConfig(edges=3, iterations=800, seed=42)
        t1 = local_search(cfg)
        t2 = local_search(cfg)
        assert t1.best_areas == t2.best_areas  # bit-identical per seed
        assert all(b <= a for a, b in zip(t1.best_areas, t1.best_areas[1:]))
        assert len(t1.best_areas) == cfg.iterations + 1

    def test_seeds_differ(self):
        a = local_search(SearchConfig(edges=3, iterations=400, seed=1))
        b = local_search(SearchConfig(edges=3, iterations=400, seed=2))
        assert a.best_areas != b.best_areas

    def test_best_chain_is_admissible(self):
        trace = local_search(SearchConfig(edges=4, iterations=300, seed=9))
        assert validate_chain(trace.best_chain) == []


class TestChainParams:
    def test_round_trip(self):
        params = initial_params(6)
        chain = params.to_chain()
        back = ChainParams.from_chain(chain)
        assert back.edges == 6
        assert all(abs(a - b) <= 1e-12 for a, b in zip(back.fracs, params.fracs))

    def test_warm_start_inside_bounds(self):
        # the discretized smooth warm start already beats the 4-edge optimum
        params = initial_params(16)
        from rulecover.involute import involute_cover

        area = involute_cover(params.to_chain()).area
        assert 0.5553 < area < 0.5600


def test_write_trace_csv(tmp_path):
    trace = local_search(SearchConfig(edges=2, iterations=50, seed=4))
    out = tmp_path / "trace.csv"
    write_trace_csv(trace, out)
    lines = out.read_text().strip().splitlines()
    assert lines[0] == "iteration,best_area"
    assert len(lines) == 52
    values = [float(line.split(",")[1]) for line in lines[1:]]
    assert values == trace.best_areas


class TestTelemetry:
    def test_counts_repeat_per_seed(self):
        cfg = SearchConfig(edges=16, iterations=400, seed=5, initial_step=0.3)
        t1 = local_search(cfg)
        t2 = local_search(cfg)
        assert t1.rejections == t2.rejections
        assert (t1.accepted, t1.step) == (t2.accepted, t2.step)
        assert t1.rejections  # large steps leave the admissible set

    def test_estimate_settles_most_moves_of_the_benchmark_search(self):
        # the benchmark's search (16 edges, 4,000 moves, seed 0) makes no
        # inadmissible move; the estimate settles all but the accepted
        # moves and a few near ties, the same count on every run
        cfg = SearchConfig(edges=16, iterations=4000, seed=0)
        t1, t2 = local_search(cfg), local_search(cfg)
        assert t1.estimated == t2.estimated == 3927
        assert not t1.rejections
        assert t1.accepted == 73
        assert t1.estimated + t1.accepted <= cfg.iterations
        assert SearchTrace().estimated == 0

    def test_settled_moves_take_no_chain_facts(self, monkeypatch):
        # the benchmark's search: chain_facts runs once per move the layout
        # does not settle, and three times more (the warm start's chain,
        # its score and the winner's rebuild)
        calls, facts = [], involute.chain_facts
        monkeypatch.setattr(involute, "chain_facts",
                            lambda *args: calls.append(1) or facts(*args))
        cfg = SearchConfig(edges=16, iterations=4000, seed=0)
        trace = local_search(cfg)
        assert trace.estimated == 3927
        assert len(calls) == cfg.iterations - trace.estimated + 3 == 76

    def test_counts_match_the_trace(self):
        cfg = SearchConfig(edges=8, iterations=600, seed=2, initial_step=0.3)
        trace = local_search(cfg)
        areas = trace.best_areas
        assert trace.accepted == sum(b < a for a, b in zip(areas, areas[1:]))
        step = cfg.initial_step
        for _ in range(trace.accepted):
            step *= STEP_DECAY
        assert trace.step == step
        assert set(trace.rejections) <= {
            "params", "geometry", "length", "symmetry", "concavity",
            "endpoints", "ordering", "unwrap", "closure"}

    def test_half_params_without_a_chain_count_as_params(self):
        trace = SearchTrace()
        bad = ChainParams(edges=3, fracs=(0.5,), turns=(0.1,))  # no middle edge
        assert _cover_area(bad, trace.rejections) is None
        assert trace.rejections == Counter(params=1)

    def test_each_violated_invariant_counts(self):
        rejections = Counter()
        folded = ChainParams(edges=2, fracs=(0.5,), turns=(3.5,))
        assert _cover_area(folded, rejections) is None
        assert rejections == Counter(endpoints=1, ordering=1)

    def test_single_edge_has_no_moves(self):
        trace = local_search(SearchConfig(edges=1, iterations=5, seed=1))
        assert (trace.rejections, trace.accepted, trace.step) == (Counter(), 0, None)


# --------------------------------------------------------------------------
# differential test: the search scored by involute.half_chain_area against
# the frozen copy of the library, which scored every move with a full
# CoverBundle


@pytest.mark.parametrize("step", [0.05, 0.3])
@pytest.mark.parametrize("edges", [3, 8, 16])
def test_local_search_matches_oracle(edges, step, oracle_package):
    for seed in range(3):
        cfg = dict(edges=edges, iterations=300, seed=seed, initial_step=step)
        trace = local_search(SearchConfig(**cfg))
        expected = oracle_package.search.local_search(
            oracle_package.search.SearchConfig(**cfg))
        assert trace.best_areas == expected.best_areas
        assert trace.best_chain.vertices == expected.best_chain.vertices
        assert trace.best_area == expected.best_area


def test_search_output_matches_oracle(oracle_package, tmp_path, capsys):
    argv = ["search", "--edges", "5", "--iterations", "300", "--seed", "3",
            "--step", "0.2"]
    outputs = []
    for main, name in ((cli.main, "lib"), (oracle_package.cli.main, "oracle")):
        csv_path = tmp_path / f"{name}.csv"
        assert main(argv + ["--trace", str(csv_path)]) == 0
        outputs.append((capsys.readouterr().out, csv_path.read_bytes()))
    assert outputs[0] == outputs[1]


# The whole SearchTrace, pinned from the tree before the search objective
# was rewritten (GeneratingChain, validate_chain, _unwrap and cover_area in
# one pass each): the oracle above has no rejections, accepted or step.
PINNED_TRACES = {
    (0, 0.05): "b10f57473fa714fe", (0, 0.3): "f52386248ddbd832",
    (1, 0.05): "282c980e23f7206d", (1, 0.3): "a2c39d88a91efa05",
    (2, 0.05): "caa4984c2539fedf", (2, 0.3): "328c67b691f589e3",
}


@pytest.mark.parametrize("seed, step", sorted(PINNED_TRACES))
def test_full_trace_matches_pin(seed, step):
    trace = local_search(SearchConfig(
        edges=16, iterations=4000 if step == 0.05 else 1000, seed=seed,
        initial_step=step))
    full = (trace.best_areas, sorted(trace.rejections.items()), trace.accepted,
            trace.step, trace.best_chain.vertices, trace.best_area)
    digest = hashlib.sha256(repr(full).encode()).hexdigest()[:16]
    assert digest == PINNED_TRACES[seed, step]
    if step == 0.3:
        assert trace.rejections  # the large steps reach the rejection paths


# The same whole trace at 2, 5 and 17 edges (the odd middle edge, and the
# closure rejections of 17 edges at the large step), seed 0, pinned from the
# tree before a move was scored from its half chain without a chain object.
SMALL_ODD_PINS = {
    (2, 0.05): "bcb6210ddc55ff7f", (2, 0.3): "24150e68c4fa97c0",
    (5, 0.05): "59a25f2a92ffa3a9", (5, 0.3): "153e0ef03b0bc2ce",
    (17, 0.05): "2bdb44cc0021b05e", (17, 0.3): "21934646cfc28edf",
}


@pytest.mark.parametrize("edges, step", sorted(SMALL_ODD_PINS))
def test_small_and_odd_traces_match_pin(edges, step):
    trace = local_search(SearchConfig(
        edges=edges, iterations=2000 if step == 0.05 else 1000, seed=0,
        initial_step=step))
    full = (trace.best_areas, sorted(trace.rejections.items()), trace.accepted,
            trace.step, trace.best_chain.vertices, trace.best_area)
    digest = hashlib.sha256(repr(full).encode()).hexdigest()[:16]
    assert digest == SMALL_ODD_PINS[edges, step]


@pytest.mark.parametrize("fracs, turns", [
    ((math.nan,), (0.3,)), ((0.5,), (math.nan,)), ((math.inf,), (0.3,)),
    ((math.nan, 0.25), (0.1, 0.1)), ((0.25, math.nan), (0.1, 0.1)),
    ((math.inf, 0.25), (0.1, 0.1)), ((0.25, math.inf), (0.1, 0.1)),
    ((0.25, 0.25), (math.inf, 0.2)), ((0.25, 0.25), (0.2, -math.inf)),
    ((0.25, 0.25), (math.inf, -math.inf)),
    ((0.2, 0.2, 0.1), (1e308, 1e308, 1e308))])
def test_non_finite_half_chain_is_rejected(fracs, turns):
    # a non-finite fraction or turn, or finite turns whose sums overflow,
    # give no chain, so they are not scored nan
    rejections = Counter()
    params = ChainParams(edges=2 * len(fracs), fracs=fracs, turns=turns)
    assert _cover_area(params, rejections) is None
    assert rejections == Counter(params=1)
