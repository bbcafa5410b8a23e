"""Reference states and partitions used by the scenario runner and tests."""

from __future__ import annotations

import math

import numpy as np

from .entanglement import Partition
from .fock import FockBasis, ManyBodyState, Statistics, _real, enumerate_basis

#: one particle spread over three single-mode parties
CHI_PARTITION = Partition((1,), (2,), (3,))

#: six-mode partitions studied in the walk scenarios
ADJACENT_PARTITION = Partition((1, 2), (3, 4), (5, 6))
ALTERNATING_PARTITION = Partition((1, 4), (2, 5), (3, 6))

#: walk initial occupation: three particles on three neighboring sites
WALK_INIT = (1, 1, 1, 0, 0, 0)

PHI_KETS = (
    (0, 1, 0, 1, 0, 1),
    (1, 0, 1, 0, 1, 0),
    (1, 1, 1, 0, 0, 0),
    (0, 0, 0, 1, 1, 1),
)


def chi_state() -> ManyBodyState:
    """Equal superposition of one particle over three modes."""
    basis = enumerate_basis(1, 3, Statistics.BOSONS)
    return ManyBodyState(basis, np.full(3, 1.0 / math.sqrt(3.0), dtype=complex))


def phi_basis() -> FockBasis:
    return enumerate_basis(3, 6, Statistics.FERMIONS)


def phi_weights(alpha: float, beta) -> np.ndarray:
    """Coefficients of the four PHI_KETS for phase alpha and every phase in
    ``beta`` (a number or an array), with shape ``np.shape(beta) + (4,)``."""
    beta = np.asarray(beta, dtype=float)
    s = np.full(beta.shape, math.sin(alpha) / math.sqrt(2.0))
    cos = math.cos(alpha)
    return np.stack([cos * np.cos(beta), cos * np.sin(beta), s, s], axis=-1).astype(complex)


def phi_state(alpha: float, beta: float) -> ManyBodyState:
    """Two-phase family of three-fermion states on six modes.

    Interpolates between the two alternating-occupation kets and the
    pair of half-filled blocks; alpha = 0 with beta = pi/4 gives a GHZ
    state with one particle per adjacent two-mode party.  Each phase must
    be a finite real number (``fock._real``).
    """
    alpha, beta = _real(alpha, "alpha", finite=True), _real(beta, "beta", finite=True)
    basis = phi_basis()
    amp = np.zeros(len(basis), dtype=complex)
    amp[[basis.index(ket) for ket in PHI_KETS]] = phi_weights(alpha, beta)
    return ManyBodyState(basis, amp)
