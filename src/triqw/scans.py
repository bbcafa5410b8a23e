"""Scenario computations behind the command-line runner.

Each scan returns plain arrays; serialization stays in the CLI.  The scans
call the same batched kernels as the per-state measures: the phase-grid
scan passes each alpha row (one ``phi_weights`` call, scattered into
tensors by ``mode_qubit_tensor`` as ``geometric_measure`` does) to the
``eps_T`` and ``eps_G`` kernels.  The walk takes its time grid in blocks
of _WALK_BLOCK times: each block's propagators in one call, their
amplitudes through one plan, with no per-time state, and the ``eps_T``
kernel in one call, writing its rows into outputs allocated up front, so
its memory does not grow with the step count.  Both take the shared
sector decomposition of their basis and partition.  The kernels give a
state the same bits in any batch, so every scan value equals the
per-state function's value on the same state, whatever the block size.
Sample counts are capped (MAX_GRID_STEPS per phase axis,
MAX_TIME_SAMPLES per walk) to bound run time and output size; larger
requests are rejected before anything is allocated.  The walk and the
snapshot check their initial occupation (``fock._occupations``) and time
(``fock._real``) once, before they build anything from them, and hand
the checked times to the propagator (``dynamics._propagator``) without a
second check.  Each default (GRID_STEPS, TAU_MAX, TIME_SAMPLES) is named
once, here; the CLI imports it.  The chain has no energy parameter.
"""

from __future__ import annotations

import math
from typing import NamedTuple

import numpy as np

from .dynamics import _propagator
from .entanglement import (
    Partition,
    entanglement_of_particles,
    geometric_measure,
    _decomposition,
    _eps_t_kernel,
    _geometric_kernel,
    mode_qubit_tensor,
)
from .fock import Statistics, _integer, _monomial_amplitudes, _occupations, _real, enumerate_basis
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

GRID_STEPS = 101
MAX_GRID_STEPS = 501
TAU_MAX = 20.0
TIME_SAMPLES = 400
MAX_TIME_SAMPLES = 10_000
# Times per block of the walk.  Each block goes through the propagator, the
# amplitudes and the eps_T kernel on its own, so the walk's working set
# follows this, not the step count.
_WALK_BLOCK = 64


def _sample_count(count, limit: int, what: str) -> int:
    return _integer(count, f"need between 2 and {limit} {what}", low=2, high=limit)


def chi_report() -> dict[str, float]:
    """Both measures for one particle spread over three single-mode parties,
    which no relabelling of the parties changes."""
    state = chi_state()
    return {
        "eps_G": geometric_measure(state, CHI_PARTITION),
        "eps_T": entanglement_of_particles(state, CHI_PARTITION).eps_t,
    }


class PhiScan(NamedTuple):
    alphas: np.ndarray
    betas: np.ndarray
    eps_t: np.ndarray  # shape (alphas, betas)
    eps_g: np.ndarray


def phi_scan(
    alpha_steps: int = GRID_STEPS,
    beta_steps: int = GRID_STEPS,
    partition: Partition = ADJACENT_PARTITION,
) -> PhiScan:
    """Both measures for the two-phase fermion family on a phase grid."""
    alpha_steps = _sample_count(alpha_steps, MAX_GRID_STEPS, "grid steps per axis")
    beta_steps = _sample_count(beta_steps, MAX_GRID_STEPS, "grid steps per axis")
    basis = phi_basis()
    dec = _decomposition(basis, partition)
    kets = [basis.index(ket) for ket in PHI_KETS]
    alphas = np.linspace(0.0, math.pi, alpha_steps)
    betas = np.linspace(0.0, math.pi, beta_steps)

    eps_t = np.zeros((alpha_steps, beta_steps))
    eps_g = np.zeros((alpha_steps, beta_steps))
    for i, alpha in enumerate(alphas):
        amps = np.zeros((beta_steps, len(basis)), dtype=complex)
        amps[:, kets] = phi_weights(alpha, betas)
        eps_g[i] = _geometric_kernel(mode_qubit_tensor(basis, amps, partition))
        eps_t[i] = _eps_t_kernel(dec, amps)[2]
    return PhiScan(alphas, betas, eps_t, eps_g)


class WalkScan(NamedTuple):
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
    tau_max: float = TAU_MAX,
    steps: int = TIME_SAMPLES,
    init=WALK_INIT,
) -> WalkScan:
    """Entanglement time series of the three-particle walk.

    Samples ``steps`` times uniformly over [0, tau_max] (endpoints
    included, so at least two and at most MAX_TIME_SAMPLES) and reports,
    per time, the single-occupancy sector probability, its three
    one-versus-rest negativities, their geometric mean and the
    sector-averaged total.
    """
    steps = _sample_count(steps, MAX_TIME_SAMPLES, "time samples")
    tau_max = _real(tau_max, "tau_max", finite=True)
    init = _occupations(init, stats=stats)
    basis = enumerate_basis(sum(init), len(init), stats)
    dec = _decomposition(basis, partition)
    taus = np.linspace(0.0, tau_max, steps)
    single, eps_t = np.zeros((steps, 5)), np.zeros(steps)
    for lo in range(0, steps, _WALK_BLOCK):
        block = slice(lo, lo + _WALK_BLOCK)
        amps = _monomial_amplitudes(basis, init, _propagator(len(init), taus[block]))
        probs, negs, eps_t[block] = _eps_t_kernel(dec, amps)
        if (1, 1, 1) in dec.sectors:
            k = list(dec.sectors).index((1, 1, 1))
            single[block] = np.column_stack([probs[:, k], negs[:, k]])
    return WalkScan(taus, *single.T, eps_t)


def snapshot(stats: Statistics, tau: float, init=WALK_INIT) -> dict:
    """Density, pair-correlation matrix and distance histogram at one time."""
    init = _occupations(init, stats=stats)
    tau = _real(tau, "tau")
    prop = _propagator(len(init), tau)
    gamma = two_particle_correlation(prop, init, stats)
    return {
        "tau": tau,
        "stats": stats.value,
        "rho": single_particle_density(prop, init).tolist(),
        "Gamma": gamma.tolist(),
        "g": interparticle_distance(gamma).tolist(),
    }
