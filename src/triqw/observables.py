"""Closed-form walk observables.

The production quantities are evaluated directly from the single-particle
propagator, so their cost is polynomial in the mode count and independent
of the Fock dimension:

* density     rho_r = sum_s |C_rs|^2 n_s                 (statistics-blind)
* pair matrix Gamma_rs = sum_{p>=q} |C_rp C_sq +- C_rq C_sp|^2 w_pq
              (+ for bosons, - for fermions), with w_pq = n_p n_q for
              p > q and w_pp = n_p (n_p - 1) / 4 on the same site, where
              the amplitude is 2 C_rp C_sp for bosons and 0 for fermions
* distance    g(Delta) = sum_q Gamma_{q, q+Delta}, single-sided

Occupations are checked by ``fock._occupations``: non-negative integers,
at most one per site for fermions; floats such as ``1.0`` are rejected.
Each propagator or pair matrix is checked by ``_square``: a non-empty
square matrix of numbers.
"""

from __future__ import annotations

import numpy as np

from .fock import Statistics, _occupations


def _square(matrix, name: str) -> np.ndarray:
    """``matrix`` as an array, else ValueError: a non-empty square matrix of
    integer, float or complex numbers."""
    mat = np.asarray(matrix)
    square = mat.ndim == 2 and mat.shape[0] == mat.shape[1] and mat.size
    if not square or mat.dtype.kind not in "iufc":
        raise ValueError(
            f"{name} must be a non-empty square matrix of numbers, got {mat.dtype} {mat.shape}"
        )
    return mat


def single_particle_density(prop, occupations) -> np.ndarray:
    """Site-resolved particle density; identical for bosons and fermions."""
    mat = _square(prop, "propagator").astype(complex)
    return np.abs(mat) ** 2 @ np.array(_occupations(occupations, len(mat)), dtype=float)


def two_particle_correlation(prop, occupations, stats: Statistics) -> np.ndarray:
    """Joint detection matrix Gamma[r, s] = <c_r^+ c_s^+ c_s c_r>."""
    mat = _square(prop, "propagator").astype(complex)
    n = np.array(_occupations(occupations, len(mat), stats), dtype=float)

    sign = -1.0 if stats.exclusive else 1.0
    # amp[r, s, p, q] = C_rp C_sq +- C_rq C_sp, summed over pairs q <= p
    direct = np.einsum("rp,sq->rspq", mat, mat)
    weight = np.tril(np.outer(n, n), k=-1) + np.diag(n * (n - 1.0) / 4)
    return np.einsum("rspq,pq->rs", np.abs(direct + sign * direct.swapaxes(2, 3)) ** 2, weight)


def interparticle_distance(gamma: np.ndarray) -> np.ndarray:
    """Distance histogram g[Delta] = sum_q Gamma[q, q+Delta], Delta >= 0.

    The matrix is symmetric, so the single-sided sum carries all the
    information.
    """
    gamma = _square(gamma, "pair matrix")
    L = gamma.shape[0]
    return np.array([np.trace(gamma, offset=delta) for delta in range(L)])
