"""The ``mrfmap`` command.

    mrfmap build OUT [--n N | --schedule CSV] [--grid GRID.json]

``build`` simulates a fingerprint dictionary over the grid (default: the
paper grid) for the schedule (default: ``default_schedule(N)``), writes
``OUT.dict`` and ``OUT.json``, and prints one JSON line with the atom count,
N, ``workers`` (the processes the build's batches ran on, the caller
included), ``orders_kept`` (the EPG work the order caps leave, as a share of
every atom at K = N), the build time, atoms/s and the schedule digest.
``GRID.json`` holds ``{"t1_segments": [[start, stop, step], ...],
"t2_segments": [...]}`` in ms, as in a dictionary manifest's ``grid``.
Bad input or an unreadable file prints ``mrfmap: error: ...``, naming the
schedule or grid file at fault (a grid of no valid (T1, T2) pair, or of
too many to expand, included), and exits 2.
"""

from __future__ import annotations

import argparse
import json
import sys
import time
from pathlib import Path

from .dictionary import GridSpec, build_dictionary, build_plan, expand_grid, save_dictionary
from .files import naming, read_json
from .parallel import processes_for
from .schedule import DEFAULT_N_EXCITATIONS, default_schedule, load_schedule


def _parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="mrfmap", description="MR fingerprinting T1/T2 mapping")
    commands = parser.add_subparsers(dest="command", required=True)
    build = commands.add_parser(
        "build", help="simulate a fingerprint dictionary; write OUT.dict and OUT.json")
    build.add_argument("out", type=Path, help="output path without suffix")
    source = build.add_mutually_exclusive_group()
    source.add_argument("--n", type=int, default=DEFAULT_N_EXCITATIONS,
                        help="excitations of the default schedule (default: %(default)s)")
    source.add_argument("--schedule", type=Path,
                        help="schedule CSV; its .prep.json sidecar is read if present")
    build.add_argument("--grid", type=Path,
                       help="T1/T2 grid JSON (default: the paper grid)")
    build.set_defaults(run=_build)
    return parser


def _build(args) -> dict:
    schedule = (load_schedule(args.schedule) if args.schedule is not None
                else default_schedule(args.n))
    grid = GridSpec.paper_grid()
    if args.grid is not None:
        with naming(args.grid):
            grid = GridSpec.from_json_dict(read_json(args.grid))
    start = time.perf_counter()
    built = build_dictionary(grid, schedule)
    seconds = time.perf_counter() - start
    save_dictionary(built, args.out)
    plan = build_plan(expand_grid(grid), schedule)
    return {"atoms": built.n_atoms, "n": built.n_samples,
            "workers": processes_for(len(plan.batches)), "orders_kept": plan.orders_kept,
            "seconds": seconds, "atoms_per_s": built.n_atoms / seconds,
            "schedule_digest": built.schedule_digest}


def main(argv: list[str] | None = None) -> int:
    parser = _parser()
    args = parser.parse_args(argv)
    try:
        report = args.run(args)
    except (ValueError, OSError) as err:
        parser.error(str(err))
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
