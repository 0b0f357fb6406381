#!/usr/bin/env python3
"""Regenerate the benchmark's pinned inputs and reference outputs.

    python3 perfbench/make_reference.py            # reference.json only
    python3 perfbench/make_reference.py --inputs   # inputs.json, then reference.json

inputs.json holds the generating chains the workloads build their covers
from, made the way `cover construct` makes them.  reference.json holds, per
scale and workload, the digest of every checked output: seed-independent
ones under "fixed", the rest under "seeded" for each of the VARIANTS input
variants.  Any output that fails its own check aborts the run, so a
reference is only ever taken from outputs that pass.  Regenerating it is a
behaviour change of the library, not of the benchmark; say why when you do.
"""

from __future__ import annotations

import argparse
import json
import math
import sys

import workloads as wl

REF_THREE_ANGLES = (0.575939, 0.519805)
REF_FOUR_ANGLES = (0.488669, 0.423144, 0.189158)
SMOOTH_EDGES = (32, 128, 512)


def make_inputs(lib) -> dict:
    cons, inv, smooth = lib.cli.constructions, lib.involute, lib.smooth
    chains = {
        "r2": inv.chain_from_params("one"),
        "two": inv.chain_from_params("two", cons.solve_two_edge(math.acos(0.75))),
        "three": inv.chain_from_params("three", cons.solve_three_edge(*REF_THREE_ANGLES)),
        "four": inv.chain_from_params("four", cons.solve_four_edge(*REF_FOUR_ANGLES)),
    }
    _, co, _ = smooth.optimize_smooth(tol=1e-12)
    for n in SMOOTH_EDGES:
        chains[f"smooth{n}"] = smooth.discretize_smooth(co, n)
    return {name: chain.to_json() for name, chain in chains.items()}


def record(workload, ops, table):
    outputs = [op.call() for op in ops]
    for op, out in zip(ops, outputs):
        msg = op.check(out)
        if msg is not None:
            sys.exit(f"{workload.name} variant {workload.variant} {op.label}: {msg}")
        if op.digest is not None:
            table[op.label] = op.digest(out)


def make_reference(lib) -> dict:
    reference = {}
    for scale in wl.SCALES:
        reference[scale] = {}
        for name, cls in wl.WORKLOADS.items():
            entry = {"fixed": {}, "seeded": {}}
            for variant in range(wl.VARIANTS):
                workload = cls(variant, scale, reference={})
                workload.setup(lib)
                seeded = {}
                for ops in (workload.main_ops(), workload.side_ops()):
                    # seed-independent outputs are computed once, on variant 0
                    todo = [op for op in ops if op.seeded or variant == 0]
                    table = {}
                    record(workload, todo, table)
                    for op in todo:
                        if op.label in table:
                            (seeded if op.seeded else entry["fixed"])[op.label] = \
                                table[op.label]
                if seeded:
                    entry["seeded"][str(variant)] = seeded
            reference[scale][name] = entry
            print(f"{scale} {name}: done", file=sys.stderr)
    return reference


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--inputs", action="store_true",
                        help="rebuild inputs.json from the constructions first")
    args = parser.parse_args(argv)
    lib = wl.load_program()
    if args.inputs:
        with open(wl.INPUTS, "w") as fh:
            json.dump(make_inputs(lib), fh, indent=1)
            fh.write("\n")
    reference = make_reference(lib)
    with open(wl.REFERENCE, "w") as fh:
        json.dump(reference, fh, indent=1, sort_keys=True)
        fh.write("\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
