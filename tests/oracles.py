"""Independent verification oracles shared across the test suite.

These deliberately avoid the production code paths (and, apart from
``hermitian_eigenvalues``, LAPACK's Hermitian solvers) so that agreement
with them is evidence, not tautology.  ``monomial_expansion`` is the
exception by design: it repeats the expansion loop of
``build_monomial_state`` with one ``apply_creation`` call per term and
mode, to pin the table-driven loop bit for bit.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from triqw.fock import apply_creation


def bubble_sort_parity(seq) -> float:
    """Permutation sign by literally counting adjacent swaps."""
    arr = list(seq)
    sign = 1.0
    for _ in range(len(arr)):
        for j in range(len(arr) - 1):
            if arr[j] > arr[j + 1]:
                arr[j], arr[j + 1] = arr[j + 1], arr[j]
                sign = -sign
    return sign


def hermitian_eigenvalues(mat: np.ndarray, tol: float = 1e-10) -> np.ndarray:
    """All eigenvalues of a Hermitian matrix, ascending.

    The input is checked against Hermiticity within ``tol`` and
    symmetrized before the backward-stable dense solve.
    """
    mat = np.asarray(mat, dtype=complex)
    if mat.ndim != 2 or mat.shape[0] != mat.shape[1]:
        raise ValueError("expected a square matrix")
    if np.abs(mat - mat.conj().T).max() > tol:
        raise ValueError(f"matrix is not Hermitian within {tol}")
    return np.linalg.eigvalsh(0.5 * (mat + mat.conj().T))


def jacobi_eigenvalues(mat, max_sweeps: int = 60, tol: float = 1e-14) -> np.ndarray:
    """Eigenvalues of a complex Hermitian matrix by cyclic Jacobi rotations.

    Works on the real-symmetric embedding [[Re, -Im], [Im, Re]], whose
    spectrum is that of the input with every eigenvalue doubled.
    """
    h = np.asarray(mat, dtype=complex)
    n = h.shape[0]
    a = np.block([[h.real, -h.imag], [h.imag, h.real]])
    m = 2 * n
    for _ in range(max_sweeps):
        off = np.sqrt(np.sum(np.square(a - np.diag(np.diag(a)))))
        if off < tol:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[p, q]
                if abs(apq) < 1e-300:
                    continue
                theta = (a[q, q] - a[p, p]) / (2.0 * apq)
                t = math.copysign(1.0, theta) / (abs(theta) + math.hypot(theta, 1.0))
                c = 1.0 / math.sqrt(t * t + 1.0)
                s = t * c
                rot_p = c * a[p, :] - s * a[q, :]
                rot_q = s * a[p, :] + c * a[q, :]
                a[p, :], a[q, :] = rot_p, rot_q
                col_p = c * a[:, p] - s * a[:, q]
                col_q = s * a[:, p] + c * a[:, q]
                a[:, p], a[:, q] = col_p, col_q
    doubled = np.sort(np.diag(a).real)
    return doubled.reshape(n, 2).mean(axis=1)


def negativity_by_jacobi(rho: np.ndarray, dims, party: int) -> float:
    """Partial-transpose negativity using only the Jacobi solver."""
    dims = tuple(dims)
    tensor = np.asarray(rho).reshape(dims + dims)
    tensor = np.swapaxes(tensor, party, party + len(dims))
    pt = tensor.reshape(rho.shape)
    eig = jacobi_eigenvalues(pt)
    return max(0.0, float(np.abs(eig).sum() - 1.0))


def tripartite_negativity_by_jacobi(rho: np.ndarray, dims) -> float:
    product = 1.0
    for party in range(3):
        n = negativity_by_jacobi(rho, dims, party)
        if n == 0.0:
            return 0.0
        product *= n
    return float(np.cbrt(product))


def sector_maps(basis, partition) -> dict:
    """Local-count sectors by direct enumeration of local product bases.

    Maps (n_A, n_B, n_C) to (dims, entries): each party's occupation
    patterns are the ranked ``itertools.product`` tuples with that count
    (capped at 1 for fermions), and entry f of the product basis is the
    (global basis index, reordering sign) of its ket, the sign from a
    bubble sort of the party-blocked creation sequence.
    """
    exclusive = basis.stats.exclusive
    out = {}
    for counts in itertools.product(range(basis.n_particles + 1), repeat=3):
        if sum(counts) != basis.n_particles:
            continue
        patterns = []
        for party, n in zip(partition.parties, counts):
            ranked = itertools.product(range((1 if exclusive else n) + 1), repeat=len(party))
            patterns.append([p for p in ranked if sum(p) == n])
        if not all(patterns):
            continue
        entries = []
        for combo in itertools.product(*patterns):
            occ = [0] * basis.n_modes
            for party, pattern in zip(partition.parties, combo):
                for mode, n in zip(party, pattern):
                    occ[mode - 1] = n
            blocked = [m for party in partition.parties for m in party if occ[m - 1]]
            sign = bubble_sort_parity(blocked) if exclusive else 1.0
            entries.append((basis.index(occ), sign))
        out[counts] = (tuple(len(p) for p in patterns), entries)
    return out


def sector_matrix(entries, n_states: int) -> np.ndarray:
    """Dense (len(entries), n_states) map with one +-1 per row."""
    mat = np.zeros((len(entries), n_states))
    for f, (gi, sign) in enumerate(entries):
        mat[f, gi] = sign
    return mat


def monomial_expansion(basis, coeffs, init) -> np.ndarray:
    """Amplitudes of ``build_monomial_state(basis, coeffs, init)`` by one
    ``apply_creation`` call per term and mode, in the same order of
    floating-point operations, so the two agree bit for bit."""
    coeffs = np.asarray(coeffs, dtype=complex)
    L = basis.n_modes
    terms = {(0,) * L: 1.0 + 0.0j}
    for p in range(L, 0, -1):
        for _ in range(init[p - 1]):
            new = {}
            row = coeffs[p - 1]
            for occ, amp in terms.items():
                for s in range(1, L + 1):
                    c = row[s - 1]
                    if c == 0:
                        continue
                    res = apply_creation(occ, s, basis.stats)
                    if res is None:
                        continue
                    factor, occ2 = res
                    new[occ2] = new.get(occ2, 0.0j) + amp * c * factor
            terms = new
    norm = math.sqrt(math.prod(math.factorial(n) for n in init))
    amp = np.zeros(len(basis), dtype=complex)
    for occ, value in terms.items():
        amp[basis.index(occ)] = value / norm
    return amp
