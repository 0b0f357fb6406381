"""The two scripts under scripts/, run in-process through their main()."""

import importlib.util
import pathlib

import pytest

from rulecover.constructions import CONSTRUCTIONS

SCRIPTS = pathlib.Path(__file__).resolve().parent.parent / "scripts"


def _load(name):
    spec = importlib.util.spec_from_file_location(name, SCRIPTS / f"{name}.py")
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_render_figures_writes_five_svgs(tmp_path, capsys):
    _load("render_figures").main(["--outdir", str(tmp_path), "--size", "200"])
    names = sorted(p.name for p in tmp_path.glob("*.svg"))
    assert names == sorted([f"{kind}_edge.svg" for kind in CONSTRUCTIONS]
                           + ["smooth.svg"])
    assert capsys.readouterr().out.count("area=") == 5


def test_run_search_compares_with_the_table(tmp_path, capsys):
    _load("run_search").main(["--outdir", str(tmp_path), "--edges", "1", "2"])
    rows = [line.split() for line in capsys.readouterr().out.splitlines()[1:3]]
    by_edges = {cut.edges: cut.ref_area for cut in CONSTRUCTIONS.values()}
    for n, _, best, closed, gap, _ in rows:
        ref = by_edges[int(n)]
        assert closed == f"{ref:.10f}"
        assert float(gap) == pytest.approx(float(best) - ref, abs=1e-10)
    assert sorted(p.name for p in tmp_path.iterdir()) == [
        "trace-n1.csv", "trace-n2.csv"]
