"""Scenario computations behind the command-line runner.

Each scan returns plain arrays; serialization stays in the CLI.  The
phase-grid scan batches whole grid rows through the vectorized sector
negativities and the marginal-purity geometric kernel that
``geometric_measure`` also uses; every value agrees with the per-state
reference path (see the test suite).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .dynamics import LatticeParams, single_particle_propagator
from .entanglement import (
    Partition,
    SectorDecomposition,
    entanglement_of_particles,
    geometric_measure,
    mode_qubit_tensor,
    _check_geometric_partition,
    _geometric_kernel,
    PROBABILITY_FLOOR,
)
from .fock import ManyBodyState, Statistics, build_monomial_state, enumerate_basis
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
    if alpha_steps < 2 or beta_steps < 2:
        raise ValueError("need at least two grid steps per axis")
    _check_geometric_partition(partition)
    basis = phi_basis()
    alphas = np.linspace(0.0, math.pi, alpha_steps)
    betas = np.linspace(0.0, math.pi, beta_steps)

    kets = np.zeros((4, len(basis)), dtype=complex)
    for i, ket in enumerate(PHI_KETS):
        kets[i, basis.index(ket)] = 1.0

    dec = SectorDecomposition(basis, partition)
    # per sector: local amplitudes of the four family kets
    sector_maps = {
        counts: (sector.dims, sector.matrix @ kets.T)
        for counts, sector in dec.sectors.items()
        if min(sector.dims) > 1
    }

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

        psis = np.einsum("gm,mabc->gabc", weights, ket_tensors)
        eps_g[i] = _geometric_kernel(psis)

        row = np.zeros(beta_steps)
        for dims, ket_map in sector_maps.values():
            vecs = weights @ ket_map.T  # (B, sector dim)
            probs = np.sum(np.abs(vecs) ** 2, axis=1)
            mask = probs > PROBABILITY_FLOOR
            if not mask.any():
                continue
            normed = vecs[mask] / np.sqrt(probs[mask])[:, None]
            rhos = np.einsum("gi,gj->gij", normed, normed.conj())
            dim = dims[0] * dims[1] * dims[2]
            product = np.ones(int(mask.sum()))
            for party in range(3):
                pt = np.swapaxes(
                    rhos.reshape(-1, *dims, *dims), 1 + party, 4 + party
                ).reshape(-1, dim, dim)
                eig = np.linalg.eigvalsh(pt)
                product *= np.maximum(0.0, np.abs(eig).sum(axis=1) - 1.0)
            row[mask] += probs[mask] * np.cbrt(product)
        eps_t[i] = row
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
    included) and reports, per time, the single-occupancy sector
    probability, its three one-versus-rest negativities, their
    geometric mean and the sector-averaged total.
    """
    if steps < 1:
        raise ValueError("need at least one time sample")
    init = tuple(init)
    params = LatticeParams(len(init), onsite=onsite)
    basis = enumerate_basis(sum(init), len(init), stats)
    taus = np.linspace(0.0, tau_max, steps)

    fields = {name: np.zeros(steps) for name in ("p111", "na", "nb", "nc", "tpn", "et")}
    for i, tau in enumerate(taus):
        prop = single_particle_propagator(params, tau)
        state = build_monomial_state(basis, prop.mat, init)
        report = entanglement_of_particles(state, partition)
        fields["et"][i] = report.eps_t
        record = report.sector((1, 1, 1))
        if record is not None:
            fields["p111"][i] = record.prob
            fields["na"][i] = record.n_a_bc
            fields["nb"][i] = record.n_b_ac
            fields["nc"][i] = record.n_c_ab
            fields["tpn"][i] = record.tpn
    return WalkScan(
        taus,
        fields["p111"],
        fields["na"],
        fields["nb"],
        fields["nc"],
        fields["tpn"],
        fields["et"],
    )


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
