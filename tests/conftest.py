import importlib
import importlib.util
import math
import sys
from pathlib import Path

import pytest
from hypothesis import settings

from rulecover import smooth
from rulecover.constructions import CONSTRUCTIONS
from rulecover.geometry import Arc, ArcPath, Seg, arc_path_area, check_ccw
from rulecover.involute import CoverBundle, GeneratingChain, involute_cover

# Property tests draw the same examples on every run and machine.
settings.register_profile("derandomized", derandomize=True, deadline=None)
settings.load_profile("derandomized")

# printed reference values from the high-precision reproduction
A_PRINTED = "1.11073213677147211458454234766"
B0_PRINTED = "-0.31003908380107665108233928"
B1_PRINTED = "0.88242010074246605497268495"
B2_PRINTED = "0.13498096758065222221003550"
AREA_PREFIX = "0.55536036"

# reference angles and closed-form areas, frozen in the construction table
THREE_ANGLES = CONSTRUCTIONS["three"].ref_angles
FOUR_ANGLES = CONSTRUCTIONS["four"].ref_angles
TWO_OPT_AREA = CONSTRUCTIONS["two"].ref_area
THREE_REF_AREA = CONSTRUCTIONS["three"].ref_area
FOUR_REF_AREA = CONSTRUCTIONS["four"].ref_area


# The frozen copy of the library that the benchmark compares with; the
# differential tests use it as their oracle.
ORACLE_ROOT = (Path(__file__).resolve().parent.parent / "perfbench"
               / "baseline" / "rulecover")


def _left_to_right_sum(values):
    """The builtin sum() of floats as Python 3.11 and earlier compute it."""
    total = 0
    for v in values:
        total += v
    return total


@pytest.fixture(scope="session")
def oracle_package():
    """The frozen library, imported as package `oracle_rulecover`.

    Its modules (geometry, involute, search, cli, ...) are attributes of
    the package.  They stay in sys.modules under that name, apart from
    `rulecover`, because the oracle's relative imports look them up there.

    The frozen code calls the builtin sum(), which compensates float
    rounding from Python 3.12 on.  Each of its modules gets a left-to-right
    sum in its globals instead, so the oracle gives the floats it was
    frozen with on every interpreter, as the library does.
    """
    name = "oracle_rulecover"
    spec = importlib.util.spec_from_file_location(
        name, ORACLE_ROOT / "__init__.py",
        submodule_search_locations=[str(ORACLE_ROOT)])
    package = importlib.util.module_from_spec(spec)
    sys.modules[name] = package
    spec.loader.exec_module(package)
    for path in sorted(ORACLE_ROOT.glob("*.py")):
        if path.stem != "__init__":
            importlib.import_module(f"{name}.{path.stem}").sum = _left_to_right_sum
    return package


def _reference_bundle(name, kind):
    """Session fixture `name`: the cover of `kind` at its reference angles."""
    @pytest.fixture(scope="session", name=name)
    def bundle():
        return CONSTRUCTIONS[kind].build()[1]
    return bundle


r2_bundle = _reference_bundle("r2_bundle", "one")
two_bundle = _reference_bundle("two_bundle", "two")
three_bundle = _reference_bundle("three_bundle", "three")
four_bundle = _reference_bundle("four_bundle", "four")


@pytest.fixture(scope="session")
def smooth_optimum():
    return smooth.optimize_smooth(tol=1e-12)


@pytest.fixture(scope="session")
def smooth48_bundle(smooth_optimum):
    _, co, _ = smooth_optimum
    return involute_cover(smooth.discretize_smooth(co, 48))


@pytest.fixture(scope="session")
def apex_cut_bundle():
    """Mutant: R2 with the apex neighborhood sliced off by a flat arc.

    The cut is a counterclockwise arc of radius 100 from the right run's
    end to the left run's start, its centre below them, so the upper run
    stays a run of counterclockwise arcs, as the verifier's scans need.
    """
    cut = 0.8
    right = Arc(-0.5, 0.0, 1.0, 0.0, cut * math.pi / 3)
    left = Arc(0.5, 0.0, 1.0, math.pi - cut * math.pi / 3, math.pi)
    (ax, ay), (bx, by) = right.end, left.start
    cx = 0.5 * (ax + bx)
    cy = 0.5 * (ay + by) - math.sqrt(100.0 ** 2 - (0.5 * (ax - bx)) ** 2)
    flat = Arc(cx, cy, 100.0, math.atan2(ay - cy, ax - cx),
               math.atan2(by - cy, bx - cx))
    base = Seg(-0.5, 0.0, 0.5, 0.0)
    path = ArcPath([base, right, flat, left])
    chain = GeneratingChain(((-0.5, 0.0), (0.5, 0.0)))
    return CoverBundle(chain=chain, boundary=path,
                       area=check_ccw(arc_path_area(path)))
