"""Command-line scenario runner emitting deterministic CSV or JSON.

Subcommands::

    triqw chi        both measures for the three-mode single-particle state
    triqw phi-scan   phase grid of the six-mode fermion family
    triqw walk       entanglement time series of the three-particle walk
    triqw snapshot   density / pair correlations at a single time

Floating values in CSV output carry 12 significant digits; identical
configurations produce byte-identical output.  Exit code 2 flags a
configuration error.
"""

from __future__ import annotations

import argparse
import json
import sys

from .entanglement import Partition
from .fock import Statistics
from .scans import chi_report, phi_scan, snapshot, walk_scan
from .states import ADJACENT_PARTITION, CHI_PARTITION


def _fmt(value: float) -> str:
    return f"{float(value):.12g}"


def _write(text: str, out: str | None) -> None:
    if out is None:
        sys.stdout.write(text)
    else:
        with open(out, "w", encoding="utf-8") as handle:
            handle.write(text)


def _csv(header: list[str], rows) -> str:
    lines = [",".join(header)]
    lines += [",".join(row) for row in rows]
    return "\n".join(lines) + "\n"


def _json(payload) -> str:
    return json.dumps(payload, indent=2, sort_keys=True, allow_nan=False) + "\n"


def cmd_chi(args) -> None:
    report = chi_report(Partition.parse(args.partition))
    if args.format == "csv":
        _write(
            _csv(["eps_G", "eps_T"], [[_fmt(report["eps_G"]), _fmt(report["eps_T"])]]),
            args.out,
        )
    else:
        _write(_json(report), args.out)


def cmd_phi_scan(args) -> None:
    scan = phi_scan(args.alpha_steps, args.beta_steps, Partition.parse(args.partition))
    if args.format == "json":
        payload = [
            {
                "alpha": alpha,
                "beta": beta,
                "eps_T": scan.eps_t[i, j],
                "eps_G": scan.eps_g[i, j],
            }
            for i, alpha in enumerate(scan.alphas)
            for j, beta in enumerate(scan.betas)
        ]
        _write(_json(payload), args.out)
        return
    rows = (
        [_fmt(alpha), _fmt(beta), _fmt(scan.eps_t[i, j]), _fmt(scan.eps_g[i, j])]
        for i, alpha in enumerate(scan.alphas)
        for j, beta in enumerate(scan.betas)
    )
    _write(_csv(["alpha", "beta", "eps_T", "eps_G"], rows), args.out)


def cmd_walk(args) -> None:
    scan = walk_scan(
        Statistics.from_name(args.stats),
        Partition.parse(args.partition),
        tau_max=args.tau_max,
        steps=args.steps,
        onsite=args.onsite,
    )
    header = ["tau", "P111", "N_A-BC", "N_B-AC", "N_C-AB", "TPN", "eps_T"]
    columns = (
        scan.taus,
        scan.p111,
        scan.n_a_bc,
        scan.n_b_ac,
        scan.n_c_ab,
        scan.tpn,
        scan.eps_t,
    )
    if args.format == "json":
        payload = [
            {name: col[i] for name, col in zip(header, columns)}
            for i in range(len(scan.taus))
        ]
        _write(_json(payload), args.out)
        return
    rows = (
        [_fmt(col[i]) for col in columns] for i in range(len(scan.taus))
    )
    _write(_csv(header, rows), args.out)


def cmd_snapshot(args) -> None:
    record = snapshot(Statistics.from_name(args.stats), args.tau, onsite=args.onsite)
    if args.format == "csv":
        rows = []
        for r, value in enumerate(record["rho"], start=1):
            rows.append(["rho", str(r), "", _fmt(value)])
        for r, row in enumerate(record["Gamma"], start=1):
            for s, value in enumerate(row, start=1):
                rows.append(["Gamma", str(r), str(s), _fmt(value)])
        for delta, value in enumerate(record["g"]):
            rows.append(["g", str(delta), "", _fmt(value)])
        _write(_csv(["quantity", "r", "s", "value"], rows), args.out)
    else:
        _write(_json(record), args.out)


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
    chi.add_argument(
        "--partition",
        default=str(CHI_PARTITION),
        help="single-mode parties, e.g. '1|2|3'",
    )
    add_io(chi, "json")
    chi.set_defaults(func=cmd_chi)

    phi = sub.add_parser("phi-scan", help="phase grid of the six-mode fermion family")
    phi.add_argument("--alpha-steps", type=int, default=101, help="grid points over [0, pi]")
    phi.add_argument("--beta-steps", type=int, default=101, help="grid points over [0, pi]")
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
    walk.add_argument("--tau-max", type=float, default=20.0, help="end of the time grid")
    walk.add_argument("--steps", type=int, default=400, help="number of time samples")
    walk.add_argument("--onsite", type=float, default=0.0, metavar="G", help="on-site energy")
    add_io(walk, "csv")
    walk.set_defaults(func=cmd_walk)

    snap = sub.add_parser("snapshot", help="observables at a single time")
    snap.add_argument("--stats", choices=("bosons", "fermions"), default="fermions")
    snap.add_argument("--tau", type=float, default=8.7, help="snapshot time")
    snap.add_argument("--onsite", type=float, default=0.0, metavar="G", help="on-site energy")
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
