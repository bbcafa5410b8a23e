"""Command-line scenario runner emitting deterministic CSV or JSON.

Subcommands::

    triqw chi        both measures for the three-mode single-particle state
    triqw phi-scan   phase grid of the six-mode fermion family
    triqw walk       entanglement time series of the three-particle walk
    triqw snapshot   density / pair correlations at a single time

Each command hands one table (a header and its rows, plus a JSON record
for ``chi`` and ``snapshot``) to ``_emit``, the only code that knows the
formats.  CSV rows are tuples whose columns keep one kind, text or
number, in every row, so a table has one ``%``-format, fixed by its
first row: ``%s`` for text cells and ``%.12g`` (12 significant digits)
for numbers.  Identical configurations produce byte-identical output.
Output is written as it is formatted (CSV a row at a time, JSON lists a
block of items at a time), so no whole-output string is held in memory.
Exit code 2 flags a configuration error.
"""

from __future__ import annotations

import argparse
import itertools
import json
import sys

from .entanglement import Partition
from .fock import Statistics
from .scans import GRID_STEPS, TAU_MAX, TIME_SAMPLES, chi_report, phi_scan, snapshot, walk_scan
from .states import ADJACENT_PARTITION


# Items per encoder call of a streamed JSON list: one call per item costs
# about half again the time of encoding the whole list at once.
_JSON_BLOCK = 1024


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def _json_list(items):
    """Chunks of ``_json(list(items))``, encoded a block of items at a time.

    A block encodes as ``[\\n  item,\\n  item\\n]``; dropping its brackets
    and joining the blocks with commas gives the text of the whole list.
    """
    items = iter(items)
    head = "["
    while block := list(itertools.islice(items, _JSON_BLOCK)):
        yield head + _json(block)[1:-3]
        head = ","
    yield "[]\n" if head == "[" else "\n]\n"


def _csv(header: list[str], rows):
    """Lines of a CSV table: one ``%`` operation formats a whole row."""
    yield ",".join(header) + "\n"
    line = None
    for row in rows:
        if line is None:
            line = ",".join("%s" if isinstance(v, str) else "%.12g" for v in row) + "\n"
        yield line % row


def _emit(args, header: list[str], rows, record=None) -> None:
    """Write a command's table as ``--format`` asks, to ``--out`` or stdout.

    CSV is the header, then a line per row, all rows through the format
    of the first.  JSON is ``record`` if given, else the rows as
    ``{column: cell}`` items.
    """
    if args.format == "csv":
        chunks = _csv(header, rows)
    elif record is not None:
        chunks = [_json(record)]
    else:
        chunks = _json_list(dict(zip(header, row)) for row in rows)
    if args.out is None:
        sys.stdout.writelines(chunks)
    else:
        with open(args.out, "w", encoding="utf-8") as handle:
            handle.writelines(chunks)


def cmd_chi(args) -> None:
    report = chi_report()
    _emit(args, ["eps_G", "eps_T"], [(report["eps_G"], report["eps_T"])], report)


def cmd_phi_scan(args) -> None:
    scan = phi_scan(args.alpha_steps, args.beta_steps, Partition.parse(args.partition))
    betas = scan.betas.tolist()
    # Python float cells format fastest; converting one alpha row at a time
    # keeps the output streamed instead of holding the grid as a list.
    rows = (
        (alpha, beta, eps_t, eps_g)
        for alpha, t_row, g_row in zip(scan.alphas.tolist(), scan.eps_t, scan.eps_g)
        for beta, eps_t, eps_g in zip(betas, t_row.tolist(), g_row.tolist())
    )
    _emit(args, ["alpha", "beta", "eps_T", "eps_G"], rows)


def cmd_walk(args) -> None:
    scan = walk_scan(
        Statistics.from_name(args.stats), Partition.parse(args.partition), args.tau_max, args.steps
    )
    header = ["tau", "P111", "N_A-BC", "N_B-AC", "N_C-AB", "TPN", "eps_T"]
    rows = zip(
        scan.taus, scan.p111, scan.n_a_bc, scan.n_b_ac, scan.n_c_ab, scan.tpn, scan.eps_t
    )
    _emit(args, header, rows)


def cmd_snapshot(args) -> None:
    record = snapshot(Statistics.from_name(args.stats), args.tau)
    rows = [("rho", str(r), "", v) for r, v in enumerate(record["rho"], start=1)]
    rows += [
        ("Gamma", str(r), str(s), v)
        for r, row in enumerate(record["Gamma"], start=1)
        for s, v in enumerate(row, start=1)
    ]
    rows += [("g", str(delta), "", v) for delta, v in enumerate(record["g"])]
    _emit(args, ["quantity", "r", "s", "value"], rows, record)


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="triqw",
        description="Tripartite entanglement scenarios for identical particles "
        "on a finite mode lattice",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def add_io(p, default_format: str):
        p.add_argument("--out", metavar="PATH", help="output file (default: stdout)")
        p.add_argument(
            "--format",
            choices=("csv", "json"),
            default=default_format,
            help=f"output format (default: {default_format})",
        )

    chi = sub.add_parser("chi", help="measures for the three-mode single-particle state")
    add_io(chi, "json")
    chi.set_defaults(func=cmd_chi)

    phi = sub.add_parser("phi-scan", help="phase grid of the six-mode fermion family")
    phi.add_argument("--alpha-steps", type=int, default=GRID_STEPS, help="grid points over [0, pi]")
    phi.add_argument("--beta-steps", type=int, default=GRID_STEPS, help="grid points over [0, pi]")
    phi.add_argument(
        "--partition",
        default=str(ADJACENT_PARTITION),
        help="two-mode parties, e.g. '1,2|3,4|5,6'",
    )
    add_io(phi, "csv")
    phi.set_defaults(func=cmd_phi_scan)

    walk = sub.add_parser("walk", help="entanglement time series of the walk")
    walk.add_argument("--stats", choices=("bosons", "fermions"), default="fermions")
    walk.add_argument(
        "--partition",
        default=str(ADJACENT_PARTITION),
        help="two-mode parties, e.g. '1,2|3,4|5,6'",
    )
    walk.add_argument("--tau-max", type=float, default=TAU_MAX, help="end of the time grid")
    walk.add_argument("--steps", type=int, default=TIME_SAMPLES, help="number of time samples")
    add_io(walk, "csv")
    walk.set_defaults(func=cmd_walk)

    snap = sub.add_parser("snapshot", help="observables at a single time")
    snap.add_argument("--stats", choices=("bosons", "fermions"), default="fermions")
    snap.add_argument("--tau", type=float, default=8.7, help="snapshot time")
    add_io(snap, "json")
    snap.set_defaults(func=cmd_snapshot)

    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        args.func(args)
    except (ValueError, OSError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main())
