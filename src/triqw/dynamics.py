"""Tight-binding lattice dynamics for the continuous-time quantum walk.

The chain has reflecting boundaries (no 1-L coupling), on-site energy G
and tunneling rate T.  Time is handled exclusively through the
dimensionless variable ``tau = t*T/hbar``; G contributes only a global
phase ``exp(-i*N*G*tau/T)`` to any N-particle state and defaults to 0.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    ManyBodyState,
    Statistics,
    apply_annihilation,
    apply_creation,
    build_monomial_state,
    enumerate_basis,
)

ORACLE_DIMENSION_LIMIT = 1000


@dataclass(frozen=True)
class LatticeParams:
    """Chain geometry and energies: L modes, on-site G, tunneling T."""

    n_modes: int
    onsite: float = 0.0
    tunneling: float = 1.0

    def __post_init__(self):
        if self.n_modes < 1:
            raise ValueError("need at least one mode")
        if not (np.isfinite(self.onsite) and np.isfinite(self.tunneling)):
            raise ValueError("on-site energy and tunneling rate must be finite")
        if self.tunneling == 0.0:
            raise ValueError("tunneling rate must be non-zero")


def single_particle_propagator(params: LatticeParams, tau: float) -> np.ndarray:
    """Closed-form propagator of the reflecting L-site chain.

    Returns the (L, L) matrix of transition amplitudes C[r-1, s-1] for
    site s -> r:

    C_rs = (2/(L+1)) exp(-i G tau / T)
           * sum_k exp(-2 i tau cos(k pi/(L+1))) sin(r k pi/(L+1)) sin(s k pi/(L+1)),

    i.e. the sine-basis eigendecomposition of exp(-i H tau / T).  The
    matrix is unitary and symmetric.  A tau whose phases are not finite
    (a non-finite tau, or 2 tau or G tau / T overflowing) is rejected.
    """
    L = params.n_modes
    k = np.arange(1, L + 1)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-2.0j * tau * np.cos(k * np.pi / (L + 1)))
        global_phase = np.exp(-1.0j * params.onsite * tau / params.tunneling)
    if not (np.isfinite(phases).all() and np.isfinite(global_phase)):
        raise ValueError(
            f"tau = {float(tau):g} gives non-finite propagator phases "
            f"(on-site energy {params.onsite:g}, tunneling rate {params.tunneling:g})"
        )
    sines = np.sin(np.outer(k, k) * np.pi / (L + 1))  # sines[r-1, k-1]
    return (2.0 / (L + 1)) * global_phase * (sines * phases) @ sines.T


def many_body_hamiltonian(basis: FockBasis, params: LatticeParams) -> np.ndarray:
    """Assemble G sum_i c_i^+ c_i + T sum_i (c_i^+ c_{i+1} + h.c.) on the basis."""
    if basis.n_modes != params.n_modes:
        raise ValueError("basis and lattice mode counts differ")
    L = basis.n_modes
    dim = len(basis)
    ham = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
        ham[col, col] += params.onsite * sum(occ)
        for i in range(1, L):
            for dst, src in ((i, i + 1), (i + 1, i)):
                res = apply_annihilation(occ, src, basis.stats)
                if res is None:
                    continue
                f1, occ1 = res
                res = apply_creation(occ1, dst, basis.stats)
                if res is None:
                    continue
                f2, occ2 = res
                ham[basis.index(occ2), col] += params.tunneling * f1 * f2
    return ham


def evolve_state(
    init,
    params: LatticeParams,
    tau: float,
    stats: Statistics,
    basis: FockBasis | None = None,
) -> ManyBodyState:
    """Walk state at time tau from the initial occupation ``init``.

    Each initial-site creation operator is replaced by its propagated
    combination, then the monomial is expanded on the Fock basis.  The
    substitution matrix is the propagator itself (row p holds the
    amplitudes of site p spreading over the lattice); this orientation
    is pinned by agreement with :func:`evolve_state_oracle`.
    """
    init = tuple(init)
    if basis is None:
        basis = enumerate_basis(sum(init), params.n_modes, stats)
    return build_monomial_state(basis, single_particle_propagator(params, tau), init)


def evolve_state_oracle(
    init,
    params: LatticeParams,
    tau: float,
    stats: Statistics,
    basis: FockBasis | None = None,
) -> ManyBodyState:
    """Independent verification path: dense exp(-i H tau / T) |init>.

    Uses the eigendecomposition of the full many-body Hamiltonian and no
    propagator shortcut, guarded to Fock dimensions <= 1000.
    """
    init = tuple(init)
    if basis is None:
        basis = enumerate_basis(sum(init), params.n_modes, stats)
    if len(basis) > ORACLE_DIMENSION_LIMIT:
        raise ValueError(f"oracle limited to dimension {ORACLE_DIMENSION_LIMIT}")
    ham = many_body_hamiltonian(basis, params)
    evals, evecs = np.linalg.eigh(ham)
    start = np.zeros(len(basis), dtype=complex)
    start[basis.index(init)] = 1.0
    phases = np.exp(-1.0j * evals * tau / params.tunneling)
    amp = evecs @ (phases * (evecs.conj().T @ start))
    return ManyBodyState(basis, amp)
