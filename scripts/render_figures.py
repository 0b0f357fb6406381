#!/usr/bin/env python3
"""Render the five covers (one through four edges plus the smooth cut) to SVG.

    python scripts/render_figures.py --outdir figures/
"""

import argparse
import pathlib

from rulecover import smooth, svg
from rulecover.constructions import CONSTRUCTIONS
from rulecover.involute import involute_cover


def bundles():
    for kind, cut in CONSTRUCTIONS.items():
        yield f"{kind}_edge", cut.build()[1]
    _, co, _ = smooth.optimize_smooth(tol=1e-12)
    yield "smooth", involute_cover(smooth.discretize_smooth(co, 512))


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="figures")
    parser.add_argument("--size", type=int, default=640)
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)
    for name, bundle in bundles():
        out = outdir / f"{name}.svg"
        svg.render_svg(bundle, out, size=args.size)
        print(f"{out}  area={bundle.area:.12f}")


if __name__ == "__main__":
    main()
