"""Independent verification oracles shared across the test suite.

These deliberately avoid the production code paths (and LAPACK's
Hermitian solvers) so that agreement with them is evidence, not
tautology.
"""

from __future__ import annotations

import itertools
import math

import numpy as np


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
