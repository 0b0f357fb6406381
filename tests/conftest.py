import math

import pytest

from rulecover import constructions as cons
from rulecover import smooth
from rulecover.geometry import Arc, ArcPath, Region, Seg
from rulecover.involute import (
    CoverBundle,
    GeneratingChain,
    chain_from_params,
    involute_cover,
)

# printed reference values from the high-precision reproduction
A_PRINTED = "1.11073213677147211458454234766"
B0_PRINTED = "-0.31003908380107665108233928"
B1_PRINTED = "0.88242010074246605497268495"
B2_PRINTED = "0.13498096758065222221003550"
AREA_PREFIX = "0.55536036"

THREE_ANGLES = (0.575939, 0.519805)
FOUR_ANGLES = (0.488669, 0.423144, 0.189158)

# closed-form areas at the reference angles (frozen from the formulas)
TWO_OPT_AREA = 0.5726988958836958
THREE_REF_AREA = 0.5635302302808625
FOUR_REF_AREA = 0.5600945401134869


@pytest.fixture(scope="session")
def r2_bundle():
    return involute_cover(chain_from_params("one"))


@pytest.fixture(scope="session")
def two_bundle():
    params = cons.solve_two_edge(math.acos(0.75))
    return involute_cover(chain_from_params("two", params))


@pytest.fixture(scope="session")
def three_bundle():
    params = cons.solve_three_edge(*THREE_ANGLES)
    return involute_cover(chain_from_params("three", params))


@pytest.fixture(scope="session")
def four_bundle():
    params = cons.solve_four_edge(*FOUR_ANGLES)
    return involute_cover(chain_from_params("four", params))


@pytest.fixture(scope="session")
def smooth_optimum():
    return smooth.optimize_smooth(tol=1e-12)


@pytest.fixture(scope="session")
def smooth48_bundle(smooth_optimum):
    _, co, _ = smooth_optimum
    return involute_cover(smooth.discretize_smooth(co, 48))


@pytest.fixture(scope="session")
def apex_cut_bundle():
    """Mutant: R2 with the apex neighborhood sliced off by a chord."""
    cut = 0.8
    right = Arc(-0.5, 0.0, 1.0, 0.0, cut * math.pi / 3)
    left = Arc(0.5, 0.0, 1.0, math.pi - cut * math.pi / 3, math.pi)
    chord = Seg(*right.end, *left.start)
    base = Seg(-0.5, 0.0, 0.5, 0.0)
    region = Region.from_path(ArcPath([base, right, chord, left]))
    chain = GeneratingChain(((-0.5, 0.0), (0.5, 0.0)))
    return CoverBundle(chain=chain, region=region, apex=chord.point_at(0.5),
                       left_arcs=(left,), right_arcs=(right,),
                       area=region.area, final_pivot=cut * math.pi / 3)
