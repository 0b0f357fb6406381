#!/usr/bin/env python3
"""Run the chain local search across edge counts and tabulate the areas.

Writes one CSV trace per edge count next to the output directory and
prints the best area against the closed-form optima where they exist.

    python scripts/run_search.py --outdir runs/ --seed 1
"""

import argparse
import pathlib
import time

from rulecover.constructions import CONSTRUCTIONS
from rulecover.search import SearchConfig, local_search, write_trace_csv

CLOSED_FORM = {cut.edges: cut.ref_area for cut in CONSTRUCTIONS.values()}

ITERATIONS = {1: 1, 2: 20000, 3: 50000, 4: 20000, 8: 8000, 16: 4000, 32: 4000}

def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--outdir", default="search-runs")
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--edges", type=int, nargs="*",
                        default=[1, 2, 3, 4, 8, 16, 32])
    args = parser.parse_args(argv)

    outdir = pathlib.Path(args.outdir)
    outdir.mkdir(parents=True, exist_ok=True)

    print(f"{'n':>4} {'iterations':>10} {'best area':>14} "
          f"{'closed form':>14} {'gap':>10} {'time':>7}")
    for n in args.edges:
        iters = ITERATIONS.get(n, 4000)
        t0 = time.time()
        trace = local_search(SearchConfig(edges=n, iterations=iters,
                                          seed=args.seed))
        write_trace_csv(trace, outdir / f"trace-n{n}.csv")
        ref = CLOSED_FORM.get(n)
        gap = f"{trace.best_area - ref:.2e}" if ref is not None else "-"
        ref_s = f"{ref:.10f}" if ref is not None else "-"
        print(f"{n:>4} {iters:>10} {trace.best_area:>14.10f} "
              f"{ref_s:>14} {gap:>10} {time.time() - t0:>6.1f}s")
    print("\nsmooth-cut reference area (the trend's limit): 0.55536036...")

if __name__ == "__main__":
    main()
