"""Tight-binding lattice dynamics for the continuous-time quantum walk.

The chain has reflecting boundaries (no 1-L coupling).  A uniform on-site
energy G and the hopping amplitude T enter only as the global phase
``exp(-i*N*G*tau/T)``, so the package fixes G = 0 and measures time as
``tau = t*T/hbar``: the chain's one parameter is its mode count.
"""

from __future__ import annotations

import functools
from dataclasses import dataclass

import numpy as np

from .fock import (
    FockBasis,
    ManyBodyState,
    Statistics,
    _integers,
    _occupations,
    _read_only,
    build_monomial_state,
    enumerate_basis,
)


@dataclass(frozen=True)
class LatticeParams:
    """Chain geometry: L modes."""

    n_modes: int

    def __post_init__(self):
        (n_modes,) = _integers((self.n_modes,), "mode count must be a positive integer", low=1)
        object.__setattr__(self, "n_modes", n_modes)


def single_particle_propagator(params: LatticeParams, tau: float) -> np.ndarray:
    """Closed-form propagator of the reflecting L-site chain.

    Returns the (L, L) matrix of transition amplitudes C[r-1, s-1] for
    site s -> r:

    C_rs = (2/(L+1)) sum_k exp(-2 i tau cos(k pi/(L+1))) sin(r k pi/(L+1)) sin(s k pi/(L+1)),

    i.e. the sine-basis eigendecomposition of exp(-i H tau) with H the
    hopping matrix in units of T.  The matrix is unitary and symmetric.
    A tau whose phases are not finite (a non-finite tau, or 2 tau
    overflowing) is rejected.
    The cosines and the sine matrix depend only on L, so they are built
    once per L.
    """
    L = params.n_modes
    cosines, sines = _sine_basis(L)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-2.0j * tau * cosines)
    if not np.isfinite(phases).all():
        raise ValueError(f"tau = {float(tau):g} gives non-finite propagator phases")
    return (2.0 / (L + 1)) * (sines * phases) @ sines.T


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
    ``tests/oracles.py``, the dense ``exp(-iHt)`` reference.  Only the
    propagator's phases depend on tau: its sine basis and the expansion
    plan are cached per structure, so repeated calls on one ``basis`` and
    ``init`` redo only the arithmetic.  Passing ``basis`` also saves its
    enumeration on every call.  ``init`` needs one non-negative integer per
    site, at most one per site for fermions, and is checked before
    anything is built from it; a ``basis`` whose particle number, mode
    count or statistics differ from ``init``, ``params`` and ``stats``
    raises ValueError.
    """
    init = _occupations(init, params.n_modes, stats)
    shape = (sum(init), params.n_modes, stats)
    if basis is None:
        basis = enumerate_basis(*shape)
    elif (basis.n_particles, basis.n_modes, basis.stats) != shape:
        raise ValueError(f"{basis!r} does not match N={shape[0]}, L={shape[1]}, {stats.value}")
    return build_monomial_state(basis, single_particle_propagator(params, tau), init)
