"""Child process of the ``dephased`` workload: mixed-state input through the library API.

For each statistics x partition pair it evolves the three-particle walk to
the sample times with ``evolve_state`` and, at every k, computes
``entanglement_of_particles`` of ``DensityMatrix`` of the running time average
rho_k = (1/k) sum_{j<=k} |psi_j><psi_j|.  Each series prints under a
``## <operation>`` header as ``tau,eps_T,trace`` rows followed by the
pure-state eps_T of psi_1, which the runner checks against the mixed-state
value of rho_1.

Usage: python3 perfbench/dephased.py --seed N [--smoke]
"""

from __future__ import annotations

import argparse
import sys

import numpy as np

import triqw
from workloads import dephased_series, dephased_taus


def _num(value) -> str:
    return repr(float(value))


def series(stats_name: str, partition_text: str, taus) -> str:
    """Output text of one series.  Library names are looked up on the package
    at call time, so wrappers installed there by the traced pass apply."""
    stats = triqw.Statistics.from_name(stats_name)
    partition = triqw.Partition.parse(partition_text)
    params = triqw.LatticeParams(len(triqw.WALK_INIT))
    basis = triqw.enumerate_basis(sum(triqw.WALK_INIT), params.n_modes, stats)
    total = np.zeros((len(basis), len(basis)), dtype=complex)
    lines = ["tau,eps_T,trace"]
    first = None
    for k, tau in enumerate(taus, start=1):
        state = triqw.evolve_state(triqw.WALK_INIT, params, tau, stats, basis=basis)
        if first is None:
            first = state
        total += np.outer(state.amp, state.amp.conj())
        rho = triqw.DensityMatrix((len(basis),), total / k)
        report = triqw.entanglement_of_particles(rho, partition, basis=basis)
        lines.append(f"{_num(tau)},{_num(report.eps_t)},{_num(rho.trace())}")
    pure = triqw.entanglement_of_particles(first, partition).eps_t
    lines.append(f"pure_eps_T_1,{_num(pure)}")
    return "\n".join(lines) + "\n"


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--smoke", action="store_true", help="reduced sample count")
    args = parser.parse_args()
    taus = dephased_taus(args.seed, args.smoke)
    for name, stats, partition in dephased_series():
        sys.stdout.write(f"## {name}\n{series(stats, partition, taus)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
