"""Tight-binding lattice dynamics for the continuous-time quantum walk.

The chain has reflecting boundaries (no 1-L coupling), on-site energy G
and tunneling rate T.  Time is handled exclusively through the
dimensionless variable ``tau = t*T/hbar``; G contributes only a global
phase ``exp(-i*N*G*tau/T)`` to any N-particle state and defaults to 0.
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
    """Chain geometry and energies: L modes, on-site G, tunneling T."""

    n_modes: int
    onsite: float = 0.0
    tunneling: float = 1.0

    def __post_init__(self):
        (n_modes,) = _integers((self.n_modes,), "mode count must be a positive integer", low=1)
        object.__setattr__(self, "n_modes", n_modes)
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
    The cosines and the sine matrix depend only on L, so they are built
    once per L.
    """
    L = params.n_modes
    cosines, sines = _sine_basis(L)
    with np.errstate(over="ignore", invalid="ignore"):
        phases = np.exp(-2.0j * tau * cosines)
        global_phase = np.exp(-1.0j * params.onsite * tau / params.tunneling)
    if not (np.isfinite(phases).all() and np.isfinite(global_phase)):
        raise ValueError(
            f"tau = {float(tau):g} gives non-finite propagator phases "
            f"(on-site energy {params.onsite:g}, tunneling rate {params.tunneling:g})"
        )
    return (2.0 / (L + 1)) * global_phase * (sines * phases) @ sines.T


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
