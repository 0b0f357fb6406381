import json
import math
import os
import subprocess
import sys
import xml.etree.ElementTree as ET
from decimal import Decimal
from pathlib import Path

import pytest

from rulecover import constructions, smooth
from rulecover.cli import main
from rulecover.highprec import truncate_digits
from rulecover.involute import GeneratingChain, involute_cover
from rulecover.search import SearchConfig, local_search


def run(capsys, *argv):
    code = main(list(argv))
    out, err = capsys.readouterr()
    return code, out, err


class TestConstruct:
    def test_r2(self, capsys, tmp_path):
        out_path = tmp_path / "r2.json"
        code, out, _ = run(capsys, "construct", "--kind", "r2",
                           "--out", str(out_path))
        assert code == 0
        assert "area = 0.614184849304378" in out
        doc = json.loads(out_path.read_text())
        assert len(doc["pieces"]) == 3
        assert "chain" in doc and "params" in doc

    def test_smooth_prints_coefficients(self, capsys, tmp_path):
        out_path = tmp_path / "smooth.json"
        code, out, _ = run(capsys, "construct", "--kind", "smooth",
                           "--edges", "64", "--out", str(out_path))
        assert code == 0
        # the coefficients respond ~100x more strongly to a than the area
        # does, so a native re-optimization pins them to ~8 digits only
        assert "b0 = -0.3100390" in out
        assert "b1 = 0.8824201" in out
        assert "area = 0.55536036" in out
        doc = json.loads(out_path.read_text())
        assert doc["params"]["kind"] == "smooth"

    def test_smooth_with_angle_skips_optimizer(self, capsys, monkeypatch):
        def unreachable(*args, **kwargs):
            raise AssertionError("optimize_smooth ran although --angles was given")

        monkeypatch.setattr(smooth, "optimize_smooth", unreachable)
        code, out, _ = run(capsys, "construct", "--kind", "smooth",
                           "--angles", "1.1", "--edges", "32")
        assert code == 0
        assert "a  = 1.1" in out

    def test_infeasible_angles_exit_1(self, capsys):
        code, _, err = run(capsys, "construct", "--kind", "two",
                           "--angles", "1.5")
        assert code == 1
        assert "error" in err

    def test_smooth_nan_angle_exits_1_before_discretizing(self, capsys):
        code, out, err = run(capsys, "construct", "--kind", "smooth",
                             "--angles", "nan")
        assert code == 1
        assert "(0, pi/2)" in err
        assert out == ""

    @pytest.mark.parametrize("angle", ["1e308", "5", "1.5708", "0", "-0.5"])
    def test_smooth_angle_outside_its_interval_exits_1(self, capsys, angle):
        # outside (0, pi/2) the closed forms fail late or with no word of
        # the angle: math.sin(2a) is a domain error at 1e308
        code, out, err = run(capsys, "construct", "--kind", "smooth",
                             "--angles", angle)
        assert code == 1
        assert "half-angle must lie in (0, pi/2)" in err
        assert out == ""

    @pytest.mark.parametrize("kind, angles, expected", [
        ("two", "0.7,0.3", "takes 1 angle"),
        ("three", "0.7", "takes 2 angle"),
        ("r2", "0.7", "takes 0 angle"),
        ("smooth", "1.1,0.3", "takes 1 angle"),
    ])
    def test_wrong_angle_count_exits_1(self, capsys, kind, angles, expected):
        code, _, err = run(capsys, "construct", "--kind", kind,
                           "--angles", angles)
        assert code == 1
        assert expected in err

    def test_stdout_default(self, capsys):
        code, out, _ = run(capsys, "construct", "--kind", "two")
        assert code == 0
        assert '"pieces"' in out


class TestOptimize:
    def test_two(self, capsys, tmp_path):
        out_path = tmp_path / "two.json"
        code, out, _ = run(capsys, "optimize", "--kind", "two",
                           "--out", str(out_path))
        assert code == 0
        angles = [line for line in out.splitlines() if line.startswith("angles")]
        a = float(angles[0].split("=")[1])
        assert abs(a - math.acos(0.75)) <= 1e-8

    def test_smooth_high_precision(self, capsys):
        code, out, _ = run(capsys, "optimize", "--kind", "smooth",
                           "--digits", "25")
        assert code == 0
        # printed at digits - 2 = 23 significant digits
        assert out == ("a    = 1.1107321367714721145845\n"
                       "area = 0.55536036864662611604817\n")

    def test_smooth_digits_are_the_reproduction_truncated(self, capsys):
        # every printed digit is a true one: the 400-digit reproduction
        # truncated to max(N - 2, 4) digits, for each N from 4 to 120
        ref = smooth.reproduce_appendix(400)
        for n in range(4, 121):
            shown = max(n - 2, 4)
            code, out, _ = run(capsys, "optimize", "--kind", "smooth",
                               "--digits", str(n))
            assert (code, out) == (0, (
                f"a    = {truncate_digits(Decimal(ref.a), shown)}\n"
                f"area = {truncate_digits(Decimal(ref.area), shown)}\n")), n

    @pytest.mark.parametrize("digits", ["0", "3", "-5"])
    def test_smooth_too_few_digits_exits_1(self, capsys, digits):
        code, out, err = run(capsys, "optimize", "--kind", "smooth",
                             "--digits", digits)
        assert (code, out) == (1, "")
        assert err == "error: need at least 4 significant digits\n"

    def test_smooth_40_digits_pinned(self, capsys):
        # the decimal optimum is printed only: no cover JSON follows
        code, out, _ = run(capsys, "optimize", "--kind", "smooth",
                           "--digits", "40")
        assert code == 0
        assert out == (
            "a    = 1.1107321367714721145845423476606349462\n"
            "area = 0.55536036864662611604817022349101328344\n")

    @pytest.mark.parametrize("kind, names", [
        ("two", ("a",)), ("three", ("a", "b")), ("four", ("a", "b", "c")),
    ])
    def test_angles_are_the_params_free_angles(self, capsys, kind, names):
        # the printed angles are the leading fields of the params record
        params, _, _ = constructions.optimize_construction(kind)
        code, out, _ = run(capsys, "optimize", "--kind", kind)
        assert code == 0
        assert out.splitlines()[0] == "angles = " + ", ".join(
            f"{getattr(params, name):.15g}" for name in names)

    @pytest.mark.parametrize("flags", [
        ("--out", "x.json"), ("--edges", "64"),
        ("--edges", "64", "--out", "x.json"), ("--out", "-"),
    ], ids=["out", "edges", "both", "stdout"])
    def test_digits_takes_no_cover_flags(self, capsys, tmp_path, flags,
                                         monkeypatch):
        # a decimal optimum writes no cover JSON, so --out and --edges
        # are usage errors, refused before any work and with no file written
        monkeypatch.chdir(tmp_path)
        with pytest.raises(SystemExit) as exit_:
            main(["optimize", "--kind", "smooth", "--digits", "30", *flags])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert "--digits writes no cover JSON" in err
        assert list(tmp_path.iterdir()) == []

    @pytest.mark.parametrize("kind", ["two", "three", "four"])
    def test_digits_is_for_smooth_only(self, capsys, kind):
        with pytest.raises(SystemExit) as exit_:
            main(["optimize", "--kind", kind, "--digits", "40"])
        assert exit_.value.code == 2
        _, err = capsys.readouterr()
        assert "--digits applies only to --kind smooth" in err


@pytest.mark.parametrize("argv, message", [
    ("construct --kind two --edges 8", "--edges applies only to --kind smooth"),
    ("optimize --kind two --digits 30", "--digits applies only to --kind smooth"),
    ("optimize --kind smooth --digits 30 --out x.json",
     "--digits writes no cover JSON"),
], ids=["construct-edges", "optimize-digits", "optimize-digits-out"])
def test_usage_errors_print_the_subcommand_usage(capsys, tmp_path, monkeypatch,
                                                 argv, message):
    # the flags a usage error names are the subcommand's, so its usage line
    # is the one printed; exit 2, nothing on stdout, no file written
    monkeypatch.chdir(tmp_path)
    command = argv.split()[0]
    with pytest.raises(SystemExit) as exit_:
        main(argv.split())
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.startswith(f"usage: cover {command} [-h] --kind ")
    assert f"cover {command}: error: {message}" in err
    assert list(tmp_path.iterdir()) == []


class TestEdgesFlag:
    @pytest.mark.parametrize("command, kind", [
        ("construct", "r2"), ("construct", "two"), ("construct", "four"),
        ("optimize", "two"), ("optimize", "three"),
    ])
    def test_edges_is_for_smooth_only(self, capsys, command, kind):
        with pytest.raises(SystemExit) as exit_:
            main([command, "--kind", kind, "--edges", "5"])
        assert exit_.value.code == 2
        _, err = capsys.readouterr()
        assert "--edges applies only to --kind smooth" in err

    @pytest.mark.parametrize("command, edges", [
        ("construct", "1"), ("optimize", "0"), ("optimize", "-3"),
    ])
    def test_smooth_needs_two_edges_before_any_work(self, capsys, monkeypatch,
                                                    command, edges):
        def unreachable(*args, **kwargs):
            raise AssertionError("optimize_smooth ran with too few edges")

        monkeypatch.setattr(smooth, "optimize_smooth", unreachable)
        code, out, err = run(capsys, command, "--kind", "smooth",
                             "--edges", edges)
        assert (code, out) == (1, "")
        assert err == "error: need at least 2 edges\n"

    @pytest.mark.parametrize("command", ["construct", "optimize"])
    def test_smooth_default_edges(self, capsys, tmp_path, command):
        out_path = tmp_path / "smooth.json"
        assert run(capsys, command, "--kind", "smooth",
                   "--out", str(out_path))[0] == 0
        assert json.loads(out_path.read_text())["chain"]["edges"] == 512


class TestVerifyCommand:
    def test_round_trip(self, capsys, tmp_path):
        cover_path = tmp_path / "cover.json"
        report_path = tmp_path / "report.json"
        assert run(capsys, "construct", "--kind", "two",
                   "--out", str(cover_path))[0] == 0
        code, out, _ = run(capsys, "verify", "--in", str(cover_path),
                           "--points", "24", "--lengths", "24",
                           "--out", str(report_path))
        assert code == 0
        assert "passed   = True" in out
        report = json.loads(report_path.read_text())
        assert report["passed"] is True
        assert report["failures"] == []
        # round trip without drift: stored area equals the recomputation
        doc = json.loads(cover_path.read_text())
        rebuilt = involute_cover(GeneratingChain.from_json(doc["chain"]))
        assert abs(rebuilt.area - doc["area"]) <= 1e-12

    def test_report_records_eps(self, capsys, tmp_path):
        cover_path = tmp_path / "cover.json"
        report_path = tmp_path / "report.json"
        run(capsys, "construct", "--kind", "r2", "--out", str(cover_path))
        assert run(capsys, "verify", "--in", str(cover_path), "--points", "16",
                   "--lengths", "16", "--eps", "1e-6",
                   "--out", str(report_path))[0] == 0
        assert json.loads(report_path.read_text())["eps"] == 1e-6

    def test_non_finite_chain_exits_1(self, capsys, tmp_path):
        # json reads NaN; the chain fails its length test and is not verified
        cover_path = tmp_path / "nan.json"
        cover_path.write_text(
            '{"chain": {"vertices": [[-0.5, 0.0], [NaN, 0.1], [0.5, 0.0]]}}')
        code, out, err = run(capsys, "verify", "--in", str(cover_path),
                             "--points", "16", "--lengths", "16")
        assert code == 1
        assert "passed" not in out
        assert "length: total length nan != 1" in err

    def test_nan_stored_area_exits_1(self, capsys, tmp_path):
        cover_path = tmp_path / "cover.json"
        run(capsys, "construct", "--kind", "two", "--out", str(cover_path))
        doc = json.loads(cover_path.read_text())
        doc["area"] = math.nan
        cover_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--in", str(cover_path),
                             "--points", "16", "--lengths", "16")
        assert code == 1
        assert "stored area nan drifts" in err

    @pytest.mark.parametrize("field, value, message", [
        ("area", "0.5", "stored area '0.5' is not a number"),
        ("chain", {"vertices": [[0.0], [1.0, 2.0]]},
         "chain field vertices[0] must be two numbers"),
        ("chain", {"edges": 4, "halfchain": [{"len": 0.25, "turn": 0.3},
                                             {"len": 0.25}]},
         "chain field halfchain[1] needs len and turn"),
        ("chain", {"halfchain": []}, "at least 1 edge, got 0"),
        ("chain", {"edges": 0, "halfchain": []}, "at least 1 edge, got 0"),
        ("chain", {"edges": 4, "halfchain": [{"len": 0.25, "turn": math.inf},
                                             {"len": 0.25, "turn": 0.2}]},
         "turns must be finite, got inf"),
        # finite turns whose sum overflows once reached math.cos
        ("chain", {"edges": 6, "halfchain": [{"len": 0.2, "turn": 1e308},
                                             {"len": 0.2, "turn": 1e308},
                                             {"len": 0.1, "turn": 1e308}]},
         "turns must be finite, got inf as a turn sum"),
    ], ids=["string-area", "short-vertex", "no-turn", "empty-halfchain",
            "zero-edges", "infinite-turn", "overflowing-turn-sum"])
    def test_malformed_cover_exits_1(self, capsys, tmp_path, field, value,
                                     message):
        # a malformed field is a domain error, not a traceback
        cover_path = tmp_path / "cover.json"
        run(capsys, "construct", "--kind", "two", "--out", str(cover_path))
        doc = json.loads(cover_path.read_text())
        doc[field] = value
        cover_path.write_text(json.dumps(doc))
        code, out, err = run(capsys, "verify", "--in", str(cover_path),
                             "--points", "16", "--lengths", "16")
        assert code == 1
        assert "passed" not in out
        assert err.startswith("error: ") and message in err

    @pytest.mark.parametrize("flag, message", [
        ("--points=8", "need at least 16"),
        ("--eps=inf", "eps must be finite and non-negative, got inf"),
        ("--eps=nan", "eps must be finite and non-negative, got nan"),
        ("--eps=-1", "eps must be finite and non-negative, got -1.0"),
    ])
    def test_bad_sampling_or_eps_exits_1(self, capsys, tmp_path, flag,
                                         message):
        cover_path = tmp_path / "cover.json"
        run(capsys, "construct", "--kind", "r2", "--out", str(cover_path))
        code, _, err = run(capsys, "verify", "--in", str(cover_path),
                           "--points", "16", "--lengths", "16", flag)
        assert code == 1
        assert err.startswith("error: ") and message in err

    def test_missing_file_exits_1(self, capsys, tmp_path):
        code, _, err = run(capsys, "verify", "--in", str(tmp_path / "nope.json"))
        assert code == 1
        assert "error" in err


class TestRender:
    def test_r2_structure(self, capsys, tmp_path):
        cover = tmp_path / "r2.json"
        svg = tmp_path / "r2.svg"
        run(capsys, "construct", "--kind", "r2", "--out", str(cover))
        code, _, _ = run(capsys, "render", "--in", str(cover),
                         "--out", str(svg), "--size", "500")
        assert code == 0
        d = _boundary_path_d(svg)
        assert d.count("A ") == 2 and d.count("L ") == 1

    def test_two_edge_structure(self, capsys, tmp_path):
        cover = tmp_path / "two.json"
        svg = tmp_path / "two.svg"
        run(capsys, "construct", "--kind", "two", "--out", str(cover))
        run(capsys, "render", "--in", str(cover), "--out", str(svg))
        d = _boundary_path_d(svg)
        assert d.count("A ") == 4 and d.count("L ") == 2

    def test_smooth_render_parses(self, capsys, tmp_path):
        cover = tmp_path / "smooth.json"
        svg = tmp_path / "smooth.svg"
        run(capsys, "construct", "--kind", "smooth", "--edges", "512",
            "--out", str(cover))
        code, _, _ = run(capsys, "render", "--in", str(cover), "--out", str(svg))
        assert code == 0
        root = ET.parse(svg).getroot()
        assert root.tag.endswith("svg")

    @pytest.mark.parametrize("edit, message", [
        (lambda doc: {"pieces": doc["pieces"]}, "lacks a chain block"),
        (lambda doc: {"pieces": [{"kind": "seg", "x0": 0}]},
         "lacks a chain block"),
        (lambda doc: {"chain": doc["chain"], "area": doc["area"]},
         "must list the 3 pieces of the rebuilt boundary, got None"),
        (lambda doc: {**doc, "area": doc["area"] + 1e-9},
         "drifts from recomputed"),
    ], ids=["no-chain", "malformed-piece", "no-pieces", "area-drift"])
    def test_bad_cover_exits_1(self, capsys, tmp_path, edit, message):
        # the cover is rebuilt from its chain; a document that is not a
        # whole, consistent cover is a domain error, not a traceback
        cover = tmp_path / "r2.json"
        svg = tmp_path / "r2.svg"
        run(capsys, "construct", "--kind", "r2", "--out", str(cover))
        cover.write_text(json.dumps(edit(json.loads(cover.read_text()))))
        code, out, err = run(capsys, "render", "--in", str(cover),
                             "--out", str(svg))
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not svg.exists() and "wrote" not in out

    @pytest.mark.parametrize("flag, message", [
        ("--size=-50", "size must be positive, got -50"),
        ("--size=0", "size must be positive, got 0"),
        ("--stroke=nan", "stroke must be finite and non-negative, got nan"),
        ("--stroke=inf", "stroke must be finite and non-negative, got inf"),
    ])
    def test_bad_size_or_stroke_exits_1(self, capsys, tmp_path, flag, message):
        # a size or stroke that would make an invalid SVG is refused, and
        # nothing is written
        cover = tmp_path / "two.json"
        svg = tmp_path / "two.svg"
        run(capsys, "construct", "--kind", "two", "--out", str(cover))
        code, out, err = run(capsys, "render", "--in", str(cover),
                             "--out", str(svg), flag)
        assert code == 1
        assert err.startswith("error: ") and message in err
        assert not svg.exists() and "wrote" not in out


def _boundary_path_d(svg_path):
    root = ET.parse(svg_path).getroot()
    paths = [el for el in root.iter() if el.tag.endswith("path")]
    assert len(paths) == 1
    return paths[0].attrib["d"]


class TestSearchCommand:
    def test_trace_and_chain(self, capsys, tmp_path):
        trace = tmp_path / "trace.csv"
        chain_path = tmp_path / "chain.json"
        code, out, _ = run(capsys, "search", "--edges", "2",
                           "--iterations", "500", "--seed", "1",
                           "--trace", str(trace), "--out", str(chain_path))
        assert code == 0
        assert "best area" in out
        lines = trace.read_text().strip().splitlines()
        assert lines[0] == "iteration,best_area"
        values = [float(line.split(",")[1]) for line in lines[1:]]
        assert all(b <= a for a, b in zip(values, values[1:]))
        chain = GeneratingChain.from_json(json.loads(chain_path.read_text()))
        assert abs(chain.cum_lengths[-1] - 1.0) <= 1e-12

    def test_infinite_step_exits_1(self, capsys):
        # every move of an infinite step is rejected, so the search would
        # report its start area as the best
        code, out, err = run(capsys, "search", "--edges", "6",
                             "--iterations", "50", "--step", "inf")
        assert code == 1
        assert "best area" not in out
        assert err.startswith("error: ") and "finite and positive" in err

    @pytest.mark.parametrize("flag, value", [("--restarts", "2"),
                                             ("--decay", "0.5")])
    def test_removed_flags_exit_2(self, capsys, flag, value):
        # a search is one run of --iterations moves; these knobs are gone
        with pytest.raises(SystemExit) as exc:
            main(["search", "--edges", "4", "--iterations", "10", flag, value])
        assert exc.value.code == 2
        assert "unrecognized arguments" in capsys.readouterr().err

    def test_stats_repeat_per_seed(self, capsys, tmp_path):
        # two interpreters with different string hashes write the same
        # counts, sorted by rejection kind; stdout is what a run without
        # --stats prints
        argv = ["search", "--edges", "8", "--iterations", "300", "--seed", "0",
                "--step", "1.0"]
        _, plain, _ = run(capsys, *argv)
        docs = []
        for hash_seed in ("1", "2"):
            path = tmp_path / f"stats{hash_seed}.json"
            env = {**os.environ, "PYTHONHASHSEED": hash_seed,
                   "PYTHONPATH": str(Path(__file__).parents[1] / "src")}
            done = subprocess.run(
                [sys.executable, "-m", "rulecover.cli", *argv, "--stats", str(path)],
                env=env, capture_output=True, text=True, check=True)
            assert done.stdout == plain
            docs.append(path.read_text())
        assert docs[0] == docs[1]
        trace = local_search(SearchConfig(edges=8, iterations=300, seed=0,
                                          initial_step=1.0))
        assert json.loads(docs[0]) == {
            "iterations": 300, "accepted": trace.accepted,
            "estimated": trace.estimated,
            "rejections": dict(sorted(trace.rejections.items())),
            "step": trace.step}
        assert len(trace.rejections) > 1 and trace.estimated > 0

    def test_deterministic_given_seed(self, capsys, tmp_path):
        t1, t2 = tmp_path / "a.csv", tmp_path / "b.csv"
        run(capsys, "search", "--edges", "3", "--iterations", "300",
            "--seed", "9", "--trace", str(t1))
        run(capsys, "search", "--edges", "3", "--iterations", "300",
            "--seed", "9", "--trace", str(t2))
        assert t1.read_text() == t2.read_text()


class TestReproduceCommand:
    def test_reproduce(self, capsys, tmp_path):
        out_path = tmp_path / "appendix.txt"
        code, out, _ = run(capsys, "reproduce-smooth", "--digits", "20",
                           "--out", str(out_path))
        assert code == 0
        assert "b1 = 0.88242010074246605497" in out
        assert out_path.read_text() == out

    def test_200_digits_exit_0(self, capsys):
        # a golden-section argmin stopped at its iteration cap here (exit 1)
        code, out, _ = run(capsys, "reproduce-smooth", "--digits", "200")
        assert code == 0
        assert out.startswith("digits = 200\na  = 1.110732136771472114584542")
        assert len(out.splitlines()[1]) == len("a  = 1.") + 199


class TestUsage:
    def test_unknown_command(self):
        with pytest.raises(SystemExit) as exc:
            main(["bogus"])
        assert exc.value.code == 2

    def test_missing_required_flag(self):
        with pytest.raises(SystemExit) as exc:
            main(["construct"])
        assert exc.value.code == 2
