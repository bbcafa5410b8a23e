"""Scenario computations behind the command-line runner.

Each scan returns plain arrays; serialization stays in the CLI.  The
scans call the same batched kernels as the per-state measures: the
phase-grid scan passes one grid row at a time to the ``eps_T`` and
``eps_G`` kernels, and the walk builds one sector decomposition and
passes all its time samples to the ``eps_T`` kernel in one call.
Sample counts are capped (MAX_GRID_STEPS per phase axis,
MAX_TIME_SAMPLES per walk) because memory grows with them; larger
requests are rejected before anything is allocated.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LatticeParams, evolve_state, single_particle_propagator
from .entanglement import (
    Partition,
    SectorDecomposition,
    entanglement_of_particles,
    geometric_measure,
    mode_qubit_tensor,
    _check_geometric_partition,
    _eps_t_kernel,
    _geometric_kernel,
)
from .fock import ManyBodyState, Statistics, enumerate_basis
from .observables import (
    interparticle_distance,
    single_particle_density,
    two_particle_correlation,
)
from .states import (
    ADJACENT_PARTITION,
    CHI_PARTITION,
    PHI_KETS,
    WALK_INIT,
    chi_state,
    phi_basis,
    phi_weights,
)

MAX_GRID_STEPS = 501
MAX_TIME_SAMPLES = 10_000


def chi_report(partition: Partition = CHI_PARTITION) -> dict[str, float]:
    """Both measures for the single particle spread over three modes."""
    state = chi_state()
    return {
        "eps_G": geometric_measure(state, partition),
        "eps_T": entanglement_of_particles(state, partition).eps_t,
    }


@dataclass
class PhiScan:
    alphas: np.ndarray
    betas: np.ndarray
    eps_t: np.ndarray  # shape (alphas, betas)
    eps_g: np.ndarray


def phi_scan(
    alpha_steps: int = 101,
    beta_steps: int = 101,
    partition: Partition = ADJACENT_PARTITION,
) -> PhiScan:
    """Both measures for the two-phase fermion family on a phase grid."""
    if not (2 <= alpha_steps <= MAX_GRID_STEPS and 2 <= beta_steps <= MAX_GRID_STEPS):
        raise ValueError(f"need between 2 and {MAX_GRID_STEPS} grid steps per axis")
    _check_geometric_partition(partition)
    basis = phi_basis()
    alphas = np.linspace(0.0, math.pi, alpha_steps)
    betas = np.linspace(0.0, math.pi, beta_steps)

    kets = np.zeros((4, len(basis)), dtype=complex)
    for i, ket in enumerate(PHI_KETS):
        kets[i, basis.index(ket)] = 1.0
    dec = SectorDecomposition(basis, partition)
    ket_tensors = np.stack(
        [
            mode_qubit_tensor(ManyBodyState(basis, kets[i]), partition)
            for i in range(4)
        ]
    )

    eps_t = np.zeros((alpha_steps, beta_steps))
    eps_g = np.zeros((alpha_steps, beta_steps))
    for i, alpha in enumerate(alphas):
        weights = np.stack([phi_weights(alpha, beta) for beta in betas])  # (B, 4)
        eps_g[i] = _geometric_kernel(np.einsum("gm,mabc->gabc", weights, ket_tensors))
        eps_t[i] = _eps_t_kernel(dec, weights @ kets)[2]
    return PhiScan(alphas, betas, eps_t, eps_g)


@dataclass
class WalkScan:
    taus: np.ndarray
    p111: np.ndarray
    n_a_bc: np.ndarray
    n_b_ac: np.ndarray
    n_c_ab: np.ndarray
    tpn: np.ndarray
    eps_t: np.ndarray


def walk_scan(
    stats: Statistics,
    partition: Partition = ADJACENT_PARTITION,
    tau_max: float = 20.0,
    steps: int = 400,
    onsite: float = 0.0,
    init=WALK_INIT,
) -> WalkScan:
    """Entanglement time series of the three-particle walk.

    Samples ``steps`` times uniformly over [0, tau_max] (endpoints
    included, so at least two and at most MAX_TIME_SAMPLES) and reports,
    per time, the single-occupancy sector probability, its three
    one-versus-rest negativities, their geometric mean and the
    sector-averaged total.
    """
    if not 2 <= steps <= MAX_TIME_SAMPLES:
        raise ValueError(f"need between 2 and {MAX_TIME_SAMPLES} time samples")
    if not math.isfinite(tau_max):
        raise ValueError("tau_max must be finite")
    init = tuple(init)
    params = LatticeParams(len(init), onsite=onsite)
    basis = enumerate_basis(sum(init), len(init), stats)
    dec = SectorDecomposition(basis, partition)
    taus = np.linspace(0.0, tau_max, steps)
    amps = np.stack(
        [evolve_state(init, params, tau, stats, basis=basis).amp for tau in taus]
    )
    probs, negs, eps_t = _eps_t_kernel(dec, amps)
    single = np.zeros((steps, 5))
    if (1, 1, 1) in dec.sectors:
        k = list(dec.sectors).index((1, 1, 1))
        single = np.column_stack([probs[:, k], negs[:, k]])
    return WalkScan(taus, *single.T, eps_t)


def snapshot(
    stats: Statistics, tau: float, onsite: float = 0.0, init=WALK_INIT
) -> dict:
    """Density, pair-correlation matrix and distance histogram at one time."""
    init = tuple(init)
    params = LatticeParams(len(init), onsite=onsite)
    prop = single_particle_propagator(params, tau)
    gamma = two_particle_correlation(prop, init, stats)
    return {
        "tau": float(tau),
        "stats": stats.value,
        "rho": single_particle_density(prop, init).tolist(),
        "Gamma": gamma.tolist(),
        "g": interparticle_distance(gamma).tolist(),
    }
