"""Command-line front end.

    cover {construct|optimize|search|verify|render|reproduce-smooth} [flags]

Numeric output is printed at 15 significant digits in native mode and at
(digits - 2) in high-precision mode; JSON goes to --out (stdout default).
Exit codes: 0 success, 1 domain error (including a failed verification),
2 usage error.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

from . import constructions, search, smooth, svg, verify
from .highprec import truncate_digits
from .involute import GeneratingChain, involute_cover

SMOOTH_RENDER_EDGES = 512
OPTIMIZABLE = [k for k, cut in constructions.CONSTRUCTIONS.items()
               if cut.ref_angles]


def _fmt(x, digits=None) -> str:
    if digits is None:
        return f"{float(x):.15g}"
    return truncate_digits(x, max(digits - 2, 4))


def _emit_json(doc: dict, out):
    text = json.dumps(doc, indent=2)
    if out in (None, "-"):
        print(text)
    else:
        with open(out, "w") as fh:
            fh.write(text + "\n")


def _cover_doc(bundle, kind: str, angles, closed_form_area=None) -> dict:
    doc = {**bundle.boundary.to_json(), "area": bundle.area}
    doc["params"] = {
        "kind": kind,
        "angles": list(angles),
        "lengths": list(bundle.chain.edge_lengths),
        "area": closed_form_area if closed_form_area is not None else bundle.area,
    }
    doc["chain"] = bundle.chain.to_json()
    return doc


def _construct_bundle(kind: str, angles, edges: int):
    if kind == "smooth":
        if len(angles) > 1:
            raise ValueError(f"the smooth cut takes 1 angle, got {len(angles)}")
        if angles:
            a = angles[0]
            if not 0.0 < a < math.pi / 2:
                raise ValueError(
                    f"the smooth half-angle must lie in (0, pi/2), got {a!r}")
            co = smooth.solve_coefficients(a)
            area = smooth.smooth_area(co)
        else:
            a, co, area = smooth.optimize_smooth()
        chain = smooth.discretize_smooth(co, edges)
        bundle = involute_cover(chain)
        print(f"a  = {_fmt(a)}")
        print(f"b0 = {_fmt(co.b0)}")
        print(f"b1 = {_fmt(co.b1)}")
        print(f"b2 = {_fmt(co.b2)}")
        return bundle, (a,), area
    cut = constructions.construction("one" if kind == "r2" else kind)
    angles = angles or cut.ref_angles
    _, bundle = cut.build(angles)
    # with no angles (r2) the reported area is the involute region's
    return bundle, angles, cut.area(*angles) if angles else None


def cmd_construct(args) -> int:
    angles = tuple(float(x) for x in args.angles.split(",")) if args.angles else ()
    bundle, used_angles, closed_area = _construct_bundle(
        args.kind, angles, args.edges)
    shown = closed_area if closed_area is not None else bundle.area
    print(f"area = {_fmt(shown)}")
    _emit_json(_cover_doc(bundle, args.kind, used_angles, closed_area), args.out)
    return 0


def cmd_optimize(args) -> int:
    if args.kind == "smooth":
        digits = args.digits
        a, co, area = (smooth.optimize_smooth() if digits is None
                       else smooth.decimal_optimum(digits))
        print(f"a    = {_fmt(a, digits)}")
        print(f"area = {_fmt(area, digits)}")
        if digits is not None:
            return 0  # a decimal optimum is printed only, no cover JSON
        chain = smooth.discretize_smooth(co, args.edges)
        bundle = involute_cover(chain)
        _emit_json(_cover_doc(bundle, "smooth", (a,), area), args.out)
        return 0
    params, area, bundle = constructions.optimize_construction(args.kind)
    n_angles = len(constructions.CONSTRUCTIONS[args.kind].ref_angles)
    angles = tuple(params)[:n_angles]  # free angles lead every params record
    print("angles = " + ", ".join(_fmt(x) for x in angles))
    print(f"area = {_fmt(area)}")
    _emit_json(_cover_doc(bundle, args.kind, angles, area), args.out)
    return 0


def cmd_search(args) -> int:
    cfg = search.SearchConfig(edges=args.edges, iterations=args.iterations,
                              seed=args.seed, initial_step=args.step)
    trace = search.local_search(cfg)
    print(f"best area = {_fmt(trace.best_area)}")
    if args.trace:
        search.write_trace_csv(trace, args.trace)
    if args.out:
        _emit_json(trace.best_chain.to_json(), args.out)
    if args.stats:
        _emit_json({"iterations": len(trace.best_areas) - 1, "accepted": trace.accepted,
                    "estimated": trace.estimated, "step": trace.step,
                    "rejections": dict(sorted(trace.rejections.items()))}, args.stats)
    return 0


def _read_cover(path):
    """The cover of a `construct` document, rebuilt from its chain block;
    ValueError unless its pieces and area (if stored) match the rebuild."""
    with open(path) as fh:
        doc = json.load(fh)
    if not isinstance(doc, dict) or "chain" not in doc:
        raise ValueError("cover JSON lacks a chain block; cannot rebuild")
    bundle = involute_cover(GeneratingChain.from_json(doc["chain"]))
    pieces, n = doc.get("pieces"), len(bundle.boundary)
    if not isinstance(pieces, list) or len(pieces) != n:
        raise ValueError(f"cover JSON pieces must list the {n} pieces of "
                         f"the rebuilt boundary, got {pieces!r:.60}")
    stored = doc.get("area")
    if stored is not None and (isinstance(stored, bool)
                               or not isinstance(stored, (int, float))):
        raise ValueError(f"stored area {stored!r} is not a number")
    if stored is not None and not abs(stored - bundle.area) <= 1e-12:
        raise ValueError(
            f"stored area {stored!r} drifts from recomputed {bundle.area!r}")
    return bundle


def cmd_verify(args) -> int:
    bundle = _read_cover(args.infile)
    report = verify.verify_reachability(
        bundle, n_points=args.points, n_lengths=args.lengths, eps=args.eps)
    print(f"points   = {report.points}")
    print(f"lengths  = {report.lengths}")
    print(f"failures = {len(report.failures)}")
    print(f"diameter = {_fmt(report.diameter)}")
    print(f"passed   = {report.passed}")
    if args.out:
        _emit_json(report.to_json(), args.out)
    return 0 if report.passed else 1


def cmd_render(args) -> int:
    svg.render_svg(_read_cover(args.infile), args.out, size=args.size,
                   stroke=args.stroke)
    print(f"wrote {args.out}")
    return 0


def cmd_reproduce(args) -> int:
    report = smooth.reproduce_appendix(args.digits)
    text = report.as_text()
    if args.out:
        with open(args.out, "w") as fh:
            fh.write(text)
    print(text, end="")
    return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cover",
        description="construct, optimize, search, verify, and render "
                    "universal covers for carpenter's rule folding")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("construct", help="build a cover from a known cut")
    p.add_argument("--kind", required=True,
                   choices=["r2", *constructions.CONSTRUCTIONS, "smooth"])
    p.add_argument("--angles", help="comma-separated angle overrides")
    p.add_argument("--edges", type=int,
                   help="--kind smooth only: discretization edges "
                        f"(default {SMOOTH_RENDER_EDGES})")
    p.add_argument("--out", help="cover JSON path (stdout default)")
    p.set_defaults(func=cmd_construct, usage=p.error)

    p = sub.add_parser("optimize", help="minimize cover area over the angles")
    p.add_argument("--kind", required=True,
                   choices=[*OPTIMIZABLE, "smooth"])
    p.add_argument("--digits", type=int,
                   help="--kind smooth only: solve in decimal arithmetic "
                        "like reproduce-smooth, print a and the area to "
                        "this many digits less 2 and write no cover JSON "
                        "(no --out or --edges)")
    p.add_argument("--edges", type=int,
                   help="--kind smooth only: discretization edges of the "
                        f"cover JSON (default {SMOOTH_RENDER_EDGES})")
    p.add_argument("--out", help="cover JSON path (stdout default)")
    p.set_defaults(func=cmd_optimize, usage=p.error)

    p = sub.add_parser("search", help="local search over n-edge chains")
    p.add_argument("--edges", type=int, required=True)
    p.add_argument("--iterations", type=int, default=20000)
    p.add_argument("--seed", type=int, default=1)
    p.add_argument("--step", type=float, default=0.05)
    p.add_argument("--trace", help="CSV trace path")
    p.add_argument("--out", help="best chain JSON path")
    p.add_argument("--stats", help="search counts JSON path")
    p.set_defaults(func=cmd_search)

    p = sub.add_parser("verify", help="check the cover property numerically")
    p.add_argument("--in", dest="infile", required=True, help="cover JSON")
    p.add_argument("--points", type=int, default=256)
    p.add_argument("--lengths", type=int, default=256)
    p.add_argument("--eps", type=float, default=1e-9)
    p.add_argument("--out", help="report JSON path")
    p.set_defaults(func=cmd_verify)

    p = sub.add_parser("render", help="render a cover JSON to SVG")
    p.add_argument("--in", dest="infile", required=True, help="cover JSON")
    p.add_argument("--out", required=True, help="SVG path")
    p.add_argument("--size", type=int, default=640)
    p.add_argument("--stroke", type=float, default=2.0)
    p.set_defaults(func=cmd_render)

    p = sub.add_parser("reproduce-smooth",
                       help="re-run the smooth cut at high precision")
    p.add_argument("--digits", type=int, default=30)
    p.add_argument("--out", help="plain-text report path")
    p.set_defaults(func=cmd_reproduce)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    if args.command == "optimize" and args.digits is not None:
        if args.kind != "smooth":
            args.usage("--digits applies only to --kind smooth")
        if args.out is not None or args.edges is not None:
            args.usage("--digits writes no cover JSON: it takes no --out "
                       "or --edges")
    if args.command in ("construct", "optimize"):
        if args.kind != "smooth" and args.edges is not None:
            args.usage("--edges applies only to --kind smooth")
        if args.edges is None:
            args.edges = SMOOTH_RENDER_EDGES
        if args.edges < 2:  # --kind smooth; refused before any work
            print("error: need at least 2 edges", file=sys.stderr)
            return 1
    try:
        return args.func(args)
    except (ValueError, ArithmeticError, OSError, RuntimeError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
