"""Tripartite entanglement measures under local particle-number superselection.

Two quantities are computed for a three-party split of the modes:

* ``entanglement_of_particles`` (``eps_T``) -- projects the state onto
  fixed local particle-number sectors, applies the tripartite negativity
  to each sector on its local tensor-product basis and averages with the
  sector probabilities.  Sectors in which some party has a
  one-dimensional local space are biseparable and contribute exactly
  zero.  One batched kernel (``_eps_t_kernel``) serves the per-state
  function and the scans; every partial-transpose negativity goes
  through ``_negativity``.
* ``geometric_measure`` (``eps_G``) -- the mode-entanglement tensor norm
  built from triple products of su(d) generators on the occupation-qubit
  isomorphism, minus its value on fully factorized kets.  Production
  code evaluates the generator sum through its closed form in the
  one-party marginal purities (``_geometric_kernel``); the generator
  contraction ``tensor_norm_squared`` stays as the definitional
  reference.

Fermionic bookkeeping: each sector stores, per entry of its local
product basis, the position of the global ket that entry gathers and
the parity sign of the permutation that reorders the ket's creation
string from party-blocked order to globally ascending order.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np

from .fock import DensityMatrix, FockBasis, ManyBodyState

PROBABILITY_FLOOR = 1e-14
NEGATIVITY_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class Partition:
    """Three disjoint mode groups (1-based indices) covering the lattice.

    Party mode order is preserved as given; the canonical presentation
    is ascending, but permuted orders are accepted and only change the
    local basis convention, not any entanglement value.
    """

    a: tuple[int, ...]
    b: tuple[int, ...]
    c: tuple[int, ...]

    def __post_init__(self):
        object.__setattr__(self, "a", tuple(int(m) for m in self.a))
        object.__setattr__(self, "b", tuple(int(m) for m in self.b))
        object.__setattr__(self, "c", tuple(int(m) for m in self.c))
        all_modes = self.a + self.b + self.c
        if not all_modes or min(all_modes) < 1:
            raise ValueError("mode indices must be positive")
        if len(set(all_modes)) != len(all_modes):
            raise ValueError("parties must be disjoint")
        if not (self.a and self.b and self.c):
            raise ValueError("every party needs at least one mode")

    @property
    def parties(self) -> tuple[tuple[int, ...], ...]:
        return (self.a, self.b, self.c)

    @property
    def n_modes(self) -> int:
        return len(self.a) + len(self.b) + len(self.c)

    def validate_cover(self, n_modes: int) -> None:
        covered = set(self.a) | set(self.b) | set(self.c)
        if covered != set(range(1, n_modes + 1)):
            raise ValueError(f"partition {self} does not cover modes 1..{n_modes}")

    @classmethod
    def parse(cls, text: str) -> "Partition":
        """Parse the pipe syntax, e.g. ``"1,2|3,4|5,6"``."""
        groups = text.split("|")
        if len(groups) != 3:
            raise ValueError(f"expected three '|'-separated groups, got {text!r}")
        parts = []
        for group in groups:
            try:
                modes = tuple(int(tok) for tok in group.split(",") if tok.strip())
            except ValueError:
                raise ValueError(f"malformed mode list {group!r}")
            parts.append(modes)
        return cls(*parts)

    def __str__(self) -> str:
        return "|".join(",".join(str(m) for m in p) for p in self.parties)


def _inversion_parity(seq) -> float:
    inv = sum(
        1 for i in range(len(seq)) for j in range(i + 1, len(seq)) if seq[i] > seq[j]
    )
    return -1.0 if inv % 2 else 1.0


@dataclass(frozen=True)
class Sector:
    """One fixed local-particle-number block of a partitioned basis.

    Entry ``f`` of the local product basis (party A x party B x party C,
    each party's occupation patterns in ascending lexicographic order)
    is the global basis state ``index[f]`` times ``sign[f]``, the +-1
    fermionic reordering sign (all +1 for bosons).  ``dims`` counts each
    party's patterns, so ``len(index) == prod(dims)``.
    """

    counts: tuple[int, int, int]
    dims: tuple[int, int, int]
    index: np.ndarray
    sign: np.ndarray


@dataclass
class SectorState:
    """Projection result: sector probability and normalized block state."""

    counts: tuple[int, int, int]
    dims: tuple[int, int, int]
    prob: float
    rho: DensityMatrix | None


class SectorDecomposition:
    """All local-particle-number sectors of a basis for one partition.

    ``sectors`` maps the local counts (n_A, n_B, n_C) of every non-empty
    sector, in ascending order, to its ``Sector``.  A sector holds every
    combination of local patterns with its counts, so sorting its basis
    states on their (A, B, C) local patterns yields the local product
    basis in order.
    """

    def __init__(self, basis: FockBasis, partition: Partition):
        partition.validate_cover(basis.n_modes)
        self.basis = basis
        self.partition = partition

        grouped: dict[tuple[int, int, int], list] = {}
        for gi, occ in enumerate(basis.states):
            local = tuple(tuple(occ[m - 1] for m in party) for party in partition.parties)
            sign = 1.0
            if basis.stats.exclusive:
                blocked = [m for party in partition.parties for m in party if occ[m - 1]]
                sign = _inversion_parity(blocked)
            grouped.setdefault(tuple(map(sum, local)), []).append((local, gi, sign))

        self.sectors: dict[tuple[int, int, int], Sector] = {}
        for counts in sorted(grouped):
            local, index, sign = zip(*sorted(grouped[counts]))
            dims = tuple(len(set(patterns)) for patterns in zip(*local))
            self.sectors[counts] = Sector(counts, dims, np.array(index), np.array(sign))

    def project_state(self, state: ManyBodyState) -> list[SectorState]:
        if state.basis != self.basis:
            raise ValueError("state basis does not match the decomposition")
        return [_sector_state(sec, state.amp[None]) for sec in self.sectors.values()]

    def project_density(self, dm: DensityMatrix) -> list[SectorState]:
        if dm.mat.shape != (len(self.basis), len(self.basis)):
            raise ValueError("density matrix does not match the basis dimension")
        return [_sector_state(sec, dm.mat[None]) for sec in self.sectors.values()]


def _sector_state(sector: Sector, stack: np.ndarray) -> SectorState:
    """Probability and normalized block of a batch-of-one stack in one sector."""
    probs, parts = _sector_parts(sector, stack)
    rho = None
    if probs[0] > PROBABILITY_FLOOR:
        rho = DensityMatrix(sector.dims, _normalized_blocks(parts, probs)[0])
    return SectorState(sector.counts, sector.dims, float(probs[0]), rho)


def _sector_parts(sector: Sector, states: np.ndarray):
    """Sector probabilities (B,) and parts of a stack of states, gathered
    through the sector's index and sign: the (B, d) local amplitudes of
    (B, n) amplitude vectors, or the unnormalised (B, d, d) blocks of
    (B, n, n) density matrices."""
    if states.ndim == 3:
        blocks = states[:, sector.index[:, None], sector.index]
        blocks = blocks * np.outer(sector.sign, sector.sign)
        return np.trace(blocks, axis1=1, axis2=2).real, blocks
    vecs = states[:, sector.index] * sector.sign
    return np.sum(np.abs(vecs) ** 2, axis=1), vecs


def _normalized_blocks(parts: np.ndarray, probs: np.ndarray) -> np.ndarray:
    """Trace-one density blocks of sector parts with non-zero probabilities."""
    if parts.ndim == 3:
        return parts / probs[:, None, None]
    normed = parts / np.sqrt(probs)[:, None]
    return normed[:, :, None] * normed[:, None, :].conj()


def _decomposed(state, partition: Partition, basis: FockBasis | None):
    """Decomposition and batch-of-one stack of a ManyBodyState, or of a
    DensityMatrix on the full Fock basis ``basis``."""
    if isinstance(state, ManyBodyState):
        return SectorDecomposition(state.basis, partition), state.amp[None]
    if not isinstance(state, DensityMatrix):
        raise TypeError("expected a ManyBodyState or a DensityMatrix")
    if basis is None:
        raise TypeError("a DensityMatrix input needs the Fock basis")
    if state.mat.shape != (len(basis), len(basis)):
        raise ValueError("density matrix does not match the basis dimension")
    return SectorDecomposition(basis, partition), state.mat[None]


def project_sector(
    state, partition: Partition, counts, basis: FockBasis | None = None
) -> SectorState:
    """Project onto one fixed local-particle-number sector.

    ``state`` is a ManyBodyState, or a DensityMatrix over the full Fock
    basis with ``basis`` passed explicitly.  Counts that admit no legal
    local pattern (e.g. two fermions on a single-mode party) are legal
    input and yield probability zero.
    """
    counts = tuple(int(n) for n in counts)
    dec, stack = _decomposed(state, partition, basis)
    if sum(counts) != dec.basis.n_particles:
        raise ValueError(
            f"sector counts {counts} do not sum to N={dec.basis.n_particles}"
        )
    sector = dec.sectors.get(counts)
    if sector is None:
        return SectorState(counts, (0, 0, 0), 0.0, None)
    return _sector_state(sector, stack)


# ---------------------------------------------------------------------------
# negativities


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


def _partial_transpose(mats: np.ndarray, dims, party: int) -> np.ndarray:
    """Transpose one party's indices of (a stack of) matrices on ``dims``."""
    dims = tuple(dims)
    lead = mats.ndim - 2
    tensor = mats.reshape(mats.shape[:lead] + dims + dims)
    tensor = np.swapaxes(tensor, lead + party, lead + party + len(dims))
    return tensor.reshape(mats.shape)


def partial_transpose(rho: DensityMatrix, party: int) -> DensityMatrix:
    """Transpose the indices of one party; an involution."""
    if not 0 <= party < len(rho.dims):
        raise ValueError(f"party {party} out of range for dims {rho.dims}")
    return DensityMatrix(rho.dims, _partial_transpose(rho.mat, rho.dims, party))


def _negativity(mats: np.ndarray, dims, party: int) -> np.ndarray:
    """One-versus-rest negativity of a stack of trace-one density matrices.

    The sum of absolute eigenvalues of the partial transpose minus one,
    floored at 0.  The partial transpose of a Hermitian matrix is
    Hermitian, so the batched Hermitian solve applies; it reads one
    triangle of each matrix.
    """
    eig = np.linalg.eigvalsh(_partial_transpose(mats, dims, party))
    return np.maximum(0.0, np.abs(eig).sum(axis=-1) - 1.0)


def bipartite_negativity(rho: DensityMatrix, party: int) -> float:
    """Sum of absolute partial-transpose eigenvalues minus one, floored at 0."""
    if abs(rho.trace() - 1.0) > NEGATIVITY_TRACE_TOL:
        raise ValueError("negativity expects a trace-one density matrix")
    return float(_negativity(rho.mat, rho.dims, party))


def tripartite_negativity(rho: DensityMatrix) -> float:
    """Geometric mean of the three one-versus-rest negativities."""
    if len(rho.dims) != 3:
        raise ValueError("tripartite negativity needs dims (d_A, d_B, d_C)")
    return float(np.cbrt(np.prod([bipartite_negativity(rho, p) for p in range(3)])))


# ---------------------------------------------------------------------------
# entanglement of particles


def _eps_t_kernel(dec: SectorDecomposition, states: np.ndarray):
    """Batched sector negativities and ``eps_T`` of a stack of states.

    ``states`` is a (B, n) stack of amplitude vectors or a (B, n, n)
    stack of density matrices on ``dec.basis``.  Returns, with sectors in
    the order of ``dec.sectors``:

    * ``probs`` (B, S), set to exactly 0 at or below PROBABILITY_FLOOR;
    * ``negs`` (B, S, 4): N_A|BC, N_B|AC, N_C|AB and their geometric
      mean (TPN), all 0 in dropped sectors and in sectors where a party
      has a one-dimensional local space (biseparable across that cut;
      skipping them also keeps the cube root from amplifying eigensolver
      noise on the zero factor);
    * ``eps_t`` (B,), the probability-weighted sum of the TPN.
    """
    probs = np.zeros((len(states), len(dec.sectors)))
    negs = np.zeros(probs.shape + (4,))
    for k, sector in enumerate(dec.sectors.values()):
        prob, parts = _sector_parts(sector, states)
        live = prob > PROBABILITY_FLOOR
        probs[live, k] = prob[live]
        if min(sector.dims) == 1 or not live.any():
            continue
        rhos = _normalized_blocks(parts[live], prob[live])
        cuts = np.stack([_negativity(rhos, sector.dims, p) for p in range(3)], axis=-1)
        negs[live, k, :3] = cuts
        negs[live, k, 3] = np.cbrt(np.prod(cuts, axis=-1))
    return probs, negs, np.sum(probs * negs[..., 3], axis=1)


@dataclass(frozen=True)
class SectorRecord:
    counts: tuple[int, int, int]
    prob: float
    n_a_bc: float
    n_b_ac: float
    n_c_ab: float
    tpn: float


@dataclass
class EntanglementReport:
    """Per-sector negativities and the particle-number-weighted total."""

    partition: Partition
    sectors: tuple[SectorRecord, ...]
    eps_t: float

    def sector(self, counts) -> SectorRecord | None:
        counts = tuple(int(n) for n in counts)
        for rec in self.sectors:
            if rec.counts == counts:
                return rec
        return None


def entanglement_of_particles(
    state, partition: Partition, basis: FockBasis | None = None
) -> EntanglementReport:
    """Sector-averaged tripartite negativity of a state or density matrix.

    ``state`` is a ManyBodyState, or a DensityMatrix on the full Fock
    basis with ``basis`` passed explicitly.  Evaluated by
    ``_eps_t_kernel`` as a batch of one; the report lists the sectors
    with probability above 1e-14, and sectors in which any party has a
    one-dimensional local space (no particles, or no room left by
    exclusion) carry zero negativities.
    """
    dec, stack = _decomposed(state, partition, basis)
    probs, negs, eps_t = _eps_t_kernel(dec, stack)
    records = tuple(
        SectorRecord(counts, float(prob), *(float(n) for n in sector_negs))
        for counts, prob, sector_negs in zip(dec.sectors, probs[0], negs[0])
        if prob > 0.0
    )
    return EntanglementReport(partition, records, float(eps_t[0]))


# ---------------------------------------------------------------------------
# geometric mode-entanglement measure


def su_generators(dim: int) -> np.ndarray:
    """The d^2-1 generalized Gell-Mann matrices, Pauli-normalized.

    Symmetric, antisymmetric and diagonal families, scaled so that
    Tr(g_a g_b) = d * delta_ab.  For dim=2 this is exactly the Pauli
    triple; for dim=4 the normalization makes the fully factorized
    three-party tensor norm below come out at its separable value.
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


def mode_qubit_tensor(state: ManyBodyState, partition: Partition) -> np.ndarray:
    """Map a hard-core state onto the three-party occupation-qubit tensor.

    Each mode becomes a qubit (sign-free under the canonical ket
    convention); the qubits of one party combine in the party's mode
    order into a 2^m-level subsystem.  Fails if any ket with more than
    one particle in a mode carries amplitude.
    """
    partition.validate_cover(state.basis.n_modes)
    sizes = {len(p) for p in partition.parties}
    if len(sizes) != 1:
        raise ValueError("parties must have equal mode counts")
    m = sizes.pop()
    d = 2**m
    psi = np.zeros((d, d, d), dtype=complex)
    for gi, occ in enumerate(state.basis.states):
        amp = state.amp[gi]
        if amp == 0.0:
            continue
        if any(n > 1 for n in occ):
            raise ValueError(
                "occupation-qubit mapping needs occupations of at most one"
            )
        idx = []
        for party in partition.parties:
            value = 0
            for mode in party:
                value = 2 * value + occ[mode - 1]
            idx.append(value)
        psi[tuple(idx)] += amp
    return psi


def tensor_norm_squared(psis: np.ndarray, gens: np.ndarray) -> np.ndarray:
    """Batched sum_{ijk} |<psi| g_i x g_j x g_k |psi>|^2.

    ``psis`` carries arbitrary leading axes over (d, d, d) state
    tensors; contraction is staged party by party so the generator
    triple is never materialized.
    """
    t1 = np.einsum("...abc,iax->...ixbc", psis.conj(), gens)
    t2 = np.einsum("...ixbc,jby->...ijxyc", t1, gens)
    t3 = np.einsum("kcz,...xyz->...kxyc", gens, psis)
    corr = np.einsum("...ijxyc,...kxyc->...ijk", t2, t3)
    return np.sum(np.abs(corr) ** 2, axis=(-3, -2, -1))


def _tensor_norm_constants(dim: int) -> tuple[float, float]:
    """(prefactor inside the root, separable norm) for d-level parties.

    The separable norm is the tensor norm of any fully factorized ket,
    sqrt(prefactor * (d^3 - 1 - 3 d (d - 1))); both are (1, 1) for d=2
    and (8, 6 sqrt 6) for d=4.
    """
    return (dim / 2.0) ** 3, (dim * (dim - 1) / 2.0) ** 1.5


def _geometric_kernel(psis: np.ndarray) -> np.ndarray:
    """Batched geometric measure of (d, d, d) occupation-qubit tensors.

    ``psis`` carries arbitrary leading axes.  On a pure state the
    generator completeness relation sum_i g_i (x) g_i = d SWAP - 1
    collapses the triple sum of ``tensor_norm_squared`` to

        sum_ijk |T_ijk|^2 = (d^3 - 1) n^2 - d (d - 1) sum_X Tr rho_X^2,

    with n = <psi|psi> and rho_X the unnormalised one-party marginals,
    so no generator is contracted and unnormalised input gives the same
    value as the generator path.
    """
    dim = psis.shape[-1]
    norm = np.sum(np.abs(psis) ** 2, axis=(-3, -2, -1))
    marginals = ("...abc,...xbc->...ax", "...abc,...ayc->...by", "...abc,...abz->...cz")
    purities = sum(
        np.sum(np.abs(np.einsum(spec, psis, psis.conj())) ** 2, axis=(-2, -1))
        for spec in marginals
    )
    total = (dim**3 - 1) * norm**2 - dim * (dim - 1) * purities
    prefactor, sep_norm = _tensor_norm_constants(dim)
    return np.sqrt(prefactor * total) - sep_norm


def _check_geometric_partition(partition: Partition) -> None:
    m = len(partition.a)
    if m not in (1, 2) or {len(p) for p in partition.parties} != {m}:
        raise ValueError("geometric measure supports equal party sizes of 1 or 2 modes")


def geometric_measure(state: ManyBodyState, partition: Partition) -> float:
    """Mode-entanglement tensor norm minus its fully-separable value.

    Supports parties of one mode (Pauli triple, separable norm 1) and
    two modes (fifteen su(4) generators, prefactor 8 inside the root,
    separable norm 6*sqrt(6)).  Defined here for pure states only, and
    evaluated from the marginal purities by ``_geometric_kernel`` as a
    batch of one.
    """
    _check_geometric_partition(partition)
    return float(_geometric_kernel(mode_qubit_tensor(state, partition)))
