"""Closed-form walk observables and a Fock-space expectation oracle.

The production quantities are evaluated directly from the single-particle
propagator, so their cost is polynomial in the mode count and independent
of the Fock dimension:

* density     rho_r = sum_s |C_rs|^2 n_s                 (statistics-blind)
* pair matrix Gamma_rs = sum_{p>q} |C_rp C_sq +- C_rq C_sp|^2 n_p n_q
              (+ for bosons, - for fermions), plus the bosonic
              same-site term sum_p |C_rp|^2 |C_sp|^2 n_p (n_p - 1)
* distance    g(Delta) = sum_q Gamma_{q, q+Delta}, single-sided

``expectation_oracle`` computes the same quantities as direct state
expectations for cross-validation.
"""

from __future__ import annotations

import numpy as np

from .fock import ManyBodyState, Statistics, apply_annihilation, apply_creation


def single_particle_density(prop, occupations) -> np.ndarray:
    """Site-resolved particle density; identical for bosons and fermions."""
    mat = np.asarray(prop, dtype=complex)
    n = np.asarray(occupations, dtype=float)
    if n.shape != (mat.shape[0],):
        raise ValueError("occupation vector does not match the lattice size")
    return np.abs(mat) ** 2 @ n


def two_particle_correlation(prop, occupations, stats: Statistics) -> np.ndarray:
    """Joint detection matrix Gamma[r, s] = <c_r^+ c_s^+ c_s c_r>."""
    mat = np.asarray(prop, dtype=complex)
    n = np.asarray(occupations, dtype=float)
    L = mat.shape[0]
    if n.shape != (L,):
        raise ValueError("occupation vector does not match the lattice size")
    if stats.exclusive and np.any(n > 1):
        raise ValueError("fermionic occupations must be 0 or 1")

    sign = -1.0 if stats.exclusive else 1.0
    # amp[r, s, p, q] = C_rp C_sq +- C_rq C_sp, summed over pairs q < p
    direct = np.einsum("rp,sq->rspq", mat, mat)
    exchanged = np.einsum("rq,sp->rspq", mat, mat)
    pair_weight = np.tril(np.outer(n, n), k=-1)  # n_p n_q restricted to q < p
    gamma = np.einsum(
        "rspq,pq->rs", np.abs(direct + sign * exchanged) ** 2, pair_weight
    )
    if not stats.exclusive:
        bunching = n * (n - 1.0)
        gamma += np.einsum("rp,sp,p->rs", np.abs(mat) ** 2, np.abs(mat) ** 2, bunching)
    return gamma


def interparticle_distance(gamma: np.ndarray) -> np.ndarray:
    """Distance histogram g[Delta] = sum_q Gamma[q, q+Delta], Delta >= 0.

    The matrix is symmetric, so the single-sided sum carries all the
    information.
    """
    gamma = np.asarray(gamma)
    L = gamma.shape[0]
    return np.array([np.trace(gamma, offset=delta) for delta in range(L)])


def expectation_oracle(state: ManyBodyState, creators, annihilators) -> float:
    """Expectation of a normal-ordered product of ladder operators.

    Evaluates ``<state| c^+_{creators[0]} ... c_{annihilators[-1]} |state>``
    by direct operator application (cost grows with the Fock dimension;
    intended for validation, not production).  The mode multisets must
    match so the observable is Hermitian.
    """
    creators = tuple(int(m) for m in creators)
    annihilators = tuple(int(m) for m in annihilators)
    if sorted(creators) != sorted(annihilators):
        raise ValueError("observable is not Hermitian: creator/annihilator modes differ")

    stats = state.basis.stats
    terms = {
        occ: state.amp[i]
        for i, occ in enumerate(state.basis.states)
        if state.amp[i] != 0.0
    }
    # rightmost operator acts first
    ops = [(apply_annihilation, m) for m in reversed(annihilators)]
    ops += [(apply_creation, m) for m in reversed(creators)]
    for apply_op, mode in ops:
        new: dict[tuple[int, ...], complex] = {}
        for occ, amp in terms.items():
            res = apply_op(occ, mode, stats)
            if res is None:
                continue
            factor, occ2 = res
            new[occ2] = new.get(occ2, 0.0j) + factor * amp
        terms = new

    value = 0.0j
    for occ, amp in terms.items():
        value += np.conj(state.amp[state.basis.index(occ)]) * amp
    if abs(value.imag) > 1e-12:
        raise ArithmeticError(f"Hermitian expectation came out complex: {value}")
    return float(value.real)
