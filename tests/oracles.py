"""Independent verification oracles shared across the test suite.

These deliberately avoid the production code paths (and, apart from
``hermitian_eigenvalues`` and ``evolve_state_oracle``, LAPACK's Hermitian
solvers) so that agreement with them is evidence, not tautology.
``monomial_expansion`` is the exception by design: it repeats the
expansion loop of ``build_monomial_state`` with one ``apply_creation``
call per term and mode, to pin the table-driven loop bit for bit.

The definitional forms of the library's quantities live here too: the
annihilation operator, the many-body hopping Hamiltonian and the dense
``exp(-iHt)`` walk, the operator-by-operator Fock-space expectation and
the su(d) generators of the geometric measure's tensor norm, and the
ket-by-ket occupation-qubit mapping.
"""

from __future__ import annotations

import itertools
import math

import numpy as np

from triqw import DensityMatrix, LatticeParams, ManyBodyState, Statistics, enumerate_basis
from triqw.fock import FockBasis, _check_mode, apply_creation

ORACLE_DIMENSION_LIMIT = 1000


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


def basis_ket(basis: FockBasis, occ) -> ManyBodyState:
    """The ket ``|occ>`` of ``basis``, amplitude one."""
    return ManyBodyState(basis, np.eye(len(basis), dtype=complex)[basis.index(occ)])


def projector(state: ManyBodyState) -> DensityMatrix:
    """The pure-state density matrix of ``state`` on its full Fock basis."""
    return DensityMatrix((len(state.basis),), np.outer(state.amp, state.amp.conj()))


def sector_record(report, counts):
    """The record of the sector with local ``counts`` in a report, or None."""
    return next((rec for rec in report.sectors if rec.counts == tuple(counts)), None)


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
    """Eigenvalues, ascending, of a (..., n, n) stack of complex Hermitian
    matrices by cyclic Jacobi rotations.

    Works on the real-symmetric embedding [[Re, -Im], [Im, Re]], whose
    spectrum is that of the input with every eigenvalue doubled.  Each
    (p, q) rotation of a sweep is applied to every matrix of the stack at
    once, the identity where a matrix's (p, q) entry is already below
    1e-300; the sweeps stop when every matrix's off-diagonal norm is
    below ``tol``.
    """
    h = np.asarray(mat, dtype=complex)
    n = h.shape[-1]
    a = np.block([[h.real, -h.imag], [h.imag, h.real]])
    m = 2 * n
    diag = np.arange(m)
    for _ in range(max_sweeps):
        off = a.copy()
        off[..., diag, diag] = 0.0
        if np.sqrt(np.sum(np.square(off), axis=(-2, -1))).max(initial=0.0) < tol:
            break
        for p in range(m - 1):
            for q in range(p + 1, m):
                apq = a[..., p, q]
                skip = np.abs(apq) < 1e-300
                if skip.all():
                    continue
                theta = (a[..., q, q] - a[..., p, p]) / (2.0 * np.where(skip, 1.0, apq))
                t = np.copysign(1.0, theta) / (np.abs(theta) + np.hypot(theta, 1.0))
                t = np.where(skip, 0.0, t)[..., None]
                c = 1.0 / np.sqrt(t * t + 1.0)
                s = t * c
                row_p, row_q = a[..., p, :], a[..., q, :]
                a[..., p, :], a[..., q, :] = c * row_p - s * row_q, s * row_p + c * row_q
                col_p, col_q = a[..., :, p], a[..., :, q]
                a[..., :, p], a[..., :, q] = c * col_p - s * col_q, s * col_p + c * col_q
    doubled = np.sort(np.diagonal(a, axis1=-2, axis2=-1), axis=-1)
    return doubled.reshape(h.shape[:-2] + (n, 2)).mean(axis=-1)


def negativity_by_jacobi(rho, dims, parties) -> np.ndarray:
    """Partial-transpose negativities (..., len(parties)) of a (..., D, D)
    stack, cut between each of ``parties`` and the rest, from one call of
    the Jacobi solver on every matrix and cut."""
    dims = tuple(dims)
    rho = np.asarray(rho)
    lead = rho.ndim - 2
    tensor = rho.reshape(rho.shape[:-2] + dims + dims)
    transposes = [
        np.swapaxes(tensor, lead + p, lead + p + len(dims)).reshape(rho.shape) for p in parties
    ]
    eig = jacobi_eigenvalues(np.stack(transposes, axis=-3))
    return np.maximum(0.0, np.abs(eig).sum(axis=-1) - 1.0)


def tripartite_negativity_by_jacobi(rho: np.ndarray, dims) -> float:
    return float(np.cbrt(negativity_by_jacobi(rho, dims, range(3)).prod()))


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


def apply_annihilation(occ, mode: int, stats: Statistics):
    """Apply c_mode to a basis ket; adjoint of :func:`apply_creation`.

    Returns ``(factor, new_occ)`` or ``None`` when the mode is empty.
    """
    _check_mode(occ, mode)
    i = mode - 1
    if occ[i] == 0:
        return None
    if stats.exclusive:
        sign = -1.0 if sum(occ[:i]) % 2 else 1.0
        return sign, occ[:i] + (0,) + occ[i + 1 :]
    return math.sqrt(occ[i]), occ[:i] + (occ[i] - 1,) + occ[i + 1 :]


def many_body_hamiltonian(basis: FockBasis, params: LatticeParams) -> np.ndarray:
    """Assemble sum_i (c_i^+ c_{i+1} + h.c.) on the basis: the hopping term in
    units of T, with the on-site energy G = 0 as in the package."""
    if basis.n_modes != params.n_modes:
        raise ValueError("basis and lattice mode counts differ")
    L = basis.n_modes
    dim = len(basis)
    ham = np.zeros((dim, dim), dtype=complex)
    for col, occ in enumerate(basis.states):
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
                ham[basis.index(occ2), col] += f1 * f2
    return ham


def evolve_state_oracle(
    init,
    params: LatticeParams,
    tau: float,
    stats: Statistics,
    basis: FockBasis | None = None,
) -> ManyBodyState:
    """Independent verification path: dense exp(-i H tau) |init>.

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
    phases = np.exp(-1.0j * evals * tau)
    amp = evecs @ (phases * (evecs.conj().T @ start))
    return ManyBodyState(basis, amp)


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


def su_generators(dim: int) -> np.ndarray:
    """The d^2-1 generalized Gell-Mann matrices, Pauli-normalized.

    Symmetric, antisymmetric and diagonal families, scaled so that
    Tr(g_a g_b) = d * delta_ab.  For dim=2 this is exactly the Pauli
    triple; for dim=4 the normalization makes the fully factorized
    three-party tensor norm of ``tensor_norm_squared`` come out at its
    separable value.
    """
    if dim < 2:
        raise ValueError("generators need dimension >= 2")
    mats = []
    for j in range(dim):
        for k in range(j + 1, dim):
            sym = np.zeros((dim, dim), dtype=complex)
            sym[j, k] = sym[k, j] = 1.0
            mats.append(sym)
            asym = np.zeros((dim, dim), dtype=complex)
            asym[j, k] = -1.0j
            asym[k, j] = 1.0j
            mats.append(asym)
    for l in range(1, dim):
        diag = np.zeros((dim, dim), dtype=complex)
        for j in range(l):
            diag[j, j] = 1.0
        diag[l, l] = -l
        mats.append(math.sqrt(2.0 / (l * (l + 1))) * diag)
    return math.sqrt(dim / 2.0) * np.array(mats)


def occupation_qubit_tensor(state: ManyBodyState, parties) -> np.ndarray:
    """The (d, d, d) occupation-qubit tensor, one ket at a time.

    Each party of m modes is a 2^m-level subsystem whose level is the
    binary number its occupations spell in the party's mode order.  A
    fermionic ket's amplitude carries the sign of a bubble sort of its
    party-blocked creation sequence, as in ``sector_maps``.  Kets without
    amplitude are skipped; a ket with amplitude and a doubly occupied
    mode raises ValueError.
    """
    dim = 2 ** len(parties[0])
    psi = np.zeros((dim, dim, dim), dtype=complex)
    for occ, amp in zip(state.basis.states, state.amp):
        if amp == 0.0:
            continue
        if max(occ) > 1:
            raise ValueError("occupation above one")
        levels = []
        for party in parties:
            level = 0
            for mode in party:
                level = 2 * level + occ[mode - 1]
            levels.append(level)
        blocked = [m for party in parties for m in party if occ[m - 1]]
        sign = bubble_sort_parity(blocked) if state.basis.stats.exclusive else 1.0
        psi[tuple(levels)] += sign * amp
    return psi
