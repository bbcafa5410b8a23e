"""Tight-binding lattice dynamics for the continuous-time quantum walk.

The chain has reflecting boundaries (no 1-L coupling).  A uniform on-site
energy G and the hopping amplitude T enter only as the global phase
``exp(-i*N*G*tau/T)``, so the package fixes G = 0 and measures time as
``tau = t*T/hbar``: the chain's one parameter is its mode count.  The
propagator takes one time or an array of them, in one broadcast.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    ManyBodyState,
    Statistics,
    _integer,
    _monomial_amplitudes,
    _occupations,
    _read_only,
    _real,
    enumerate_basis,
)


@dataclass(frozen=True)
class LatticeParams:
    """Chain geometry: L modes."""

    n_modes: int

    def __post_init__(self):
        n_modes = _integer(self.n_modes, "mode count must be a positive integer", low=1)
        object.__setattr__(self, "n_modes", n_modes)


def single_particle_propagator(params: LatticeParams, tau) -> np.ndarray:
    """Closed-form propagator of the reflecting L-site chain.

    Returns the (L, L) matrix of transition amplitudes C[r-1, s-1] for
    site s -> r:

    C_rs = (2/(L+1)) sum_k exp(-2 i tau cos(k pi/(L+1))) sin(r k pi/(L+1)) sin(s k pi/(L+1)),

    i.e. the sine-basis eigendecomposition of exp(-i H tau) with H the
    hopping matrix in units of T.  The matrix is unitary and symmetric.
    An array ``tau`` gives shape ``np.shape(tau) + (L, L)``.  A tau whose
    phases are not finite (a non-finite tau, or 2 tau overflowing) is
    rejected; the message names the first.  The cosines and the sine
    matrix depend only on L, so they are built once per L.
    """
    L = params.n_modes
    cosines, sines = _sine_basis(L)
    tau = np.asarray(tau, dtype=float)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-2.0j * tau[..., None] * cosines)
    finite = np.isfinite(phases).all(axis=-1)
    if not finite.all():
        raise ValueError(f"tau = {tau[~finite][0]:g} gives non-finite propagator phases")
    return (2.0 / (L + 1)) * (sines * phases[..., None, :]) @ sines.T


@functools.lru_cache(maxsize=64)
def _sine_basis(n_modes: int) -> tuple[np.ndarray, np.ndarray]:
    """``cos(k pi / (L+1))`` and ``sines[r-1, k-1] = sin(r k pi / (L+1))``
    for k, r = 1..L: read-only, built once per L."""
    k = np.arange(1, n_modes + 1)
    cosines = _read_only(np.cos(k * np.pi / (n_modes + 1)))
    sines = _read_only(np.sin(np.outer(k, k) * np.pi / (n_modes + 1)))
    return cosines, sines


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
    is pinned by agreement with ``evolve_state_oracle`` in
    ``tests/oracles.py``, the dense ``exp(-iHt)`` reference.  The sine
    basis and the expansion plan are cached, and a passed ``basis`` saves
    its enumeration.  ``init`` (one non-negative integer per site, at most
    one for fermions) is checked once, first, then ``tau`` (one real
    number); a ``basis`` whose particle number, mode count or statistics
    differ raises ValueError.
    """
    init = _occupations(init, params.n_modes, stats)
    tau = _real(tau, "tau")
    shape = (sum(init), params.n_modes, stats)
    if basis is None:
        basis = enumerate_basis(*shape)
    elif (basis.n_particles, basis.n_modes, basis.stats) != shape:
        raise ValueError(f"{basis!r} does not match N={shape[0]}, L={shape[1]}, {stats.value}")
    coeffs = single_particle_propagator(params, tau)
    return ManyBodyState(basis, _monomial_amplitudes(basis, init, coeffs))
