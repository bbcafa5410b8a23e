"""Tripartite entanglement measures under local particle-number superselection.

Two quantities are computed for a three-party split of the modes:

* ``entanglement_of_particles`` (``eps_T``) -- projects the state onto
  fixed local particle-number sectors, applies the tripartite negativity
  to each sector on its local tensor-product basis and averages with the
  sector probabilities.  Sectors in which some party has a
  one-dimensional local space are biseparable and contribute exactly
  zero.  One batched kernel (``_eps_t_kernel``) serves the per-state
  function and the scans.  The sector decomposition depends only on the
  basis and the partition, so every caller shares one cached instance
  per pair (``_decomposition``), with its kernel plan: the sector
  gathers stacked by length, for one probability gather per length, and
  the sectors whose parties all have more than one local state.  One
  function (``_sector_blocks``) builds the normalised sector blocks for
  ``project_sector`` and the kernel, and one (``_negativity``) cuts
  blocks for the kernel and both public negativities, gathering every
  partial transpose through the cached permutation of its dims
  (``_transpose_index``).
* ``geometric_measure`` (``eps_G``) -- the mode-entanglement tensor norm
  built from triple products of su(d) generators on the occupation-qubit
  isomorphism (``mode_qubit_tensor``, also used by the phase-grid scan),
  minus its value on fully factorized kets.  Production code evaluates
  the generator sum through its closed form in the one-party marginal
  purities (``_geometric_kernel``); the generator contraction
  ``tensor_norm_squared`` stays as the definitional reference, and the
  generators it contracts (``su_generators``) are built in
  ``tests/oracles.py``.

Fermionic bookkeeping: each sector stores, per entry of its local
product basis, the position of the global ket that entry gathers and
the parity sign of the permutation that reorders the ket's creation
string from party-blocked order to globally ascending order.
"""

from __future__ import annotations

import functools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import DensityMatrix, FockBasis, ManyBodyState, _integer, _integers, _read_only

PROBABILITY_FLOOR = 1e-14
NEGATIVITY_TRACE_TOL = 1e-10
# States per eigensolve call in _eps_t_kernel.  A call stacks the three
# partial transposes of its states, so a long batch goes in chunks and the
# stack stays small next to the batch's own blocks.
_EIGENSOLVE_CHUNK = 32


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
        for name, modes in zip("abc", self.parties):
            modes = _integers(modes, "mode indices must be positive integers", low=1)
            object.__setattr__(self, name, modes)
        all_modes = self.a + self.b + self.c
        if len(set(all_modes)) != len(all_modes):
            raise ValueError("parties must be disjoint")
        if not (self.a and self.b and self.c):
            raise ValueError("every party needs at least one mode")

    @property
    def parties(self) -> tuple[tuple[int, ...], ...]:
        return (self.a, self.b, self.c)

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
    party's patterns, so ``len(index) == prod(dims)``.  Both arrays are
    read-only, because decompositions are shared between callers.
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
            self.sectors[counts] = Sector(counts, dims, _read_only(index), _read_only(sign))
        # The kernel plan of _eps_t_kernel, fixed by the basis and the
        # partition.  The probability groups hold one (cols, index) pair per
        # sector length d: the (m,) positions and the (m, d) stacked index
        # arrays of every sector of that length, so one gather and one sum
        # over the last axis give all their probabilities.  The live sectors
        # are the (col, sector) pairs of every sector whose local dimensions
        # all exceed one, the only ones with non-zero negativities.
        sectors = list(self.sectors.values())
        by_length: dict[int, list[int]] = {}
        for k, sector in enumerate(sectors):
            by_length.setdefault(len(sector.index), []).append(k)
        self._probability_groups = tuple(
            (_read_only(cols, np.intp), _read_only([sectors[k].index for k in cols], np.intp))
            for cols in by_length.values()
        )
        self._live = tuple((k, sec) for k, sec in enumerate(sectors) if min(sec.dims) > 1)

    def project_state(self, state: ManyBodyState) -> list[SectorState]:
        if state.basis != self.basis:
            raise ValueError("state basis does not match the decomposition")
        return [_sector_state(sec, state.amp[None]) for sec in self.sectors.values()]

    def project_density(self, dm: DensityMatrix) -> list[SectorState]:
        _, stack = _decomposed(dm, self.partition, self.basis)
        return [_sector_state(sec, stack) for sec in self.sectors.values()]


@functools.lru_cache(maxsize=64)
def _decomposition(basis: FockBasis, partition: Partition) -> SectorDecomposition:
    """The shared decomposition of ``basis`` for ``partition``.

    It depends on the basis and the partition, not on any state, so
    production code builds it once per pair and reuses it on every call.
    """
    return SectorDecomposition(basis, partition)


def _sector_state(sector: Sector, stack: np.ndarray) -> SectorState:
    """Probability and normalized block of a batch-of-one stack in one sector."""
    prob = _sector_probs(stack, sector.index[None])[:, 0]
    rho = None
    if prob[0] > PROBABILITY_FLOOR:
        rho = DensityMatrix(sector.dims, _sector_blocks(sector, stack, np.arange(1), prob)[0])
    return SectorState(sector.counts, sector.dims, float(prob[0]), rho)


def _sector_probs(states: np.ndarray, index: np.ndarray) -> np.ndarray:
    """Probabilities (B, m) of the sectors of a stack of equal-length
    indices (m, d) in a stack of (B, n) amplitude vectors or (B, n, n)
    density matrices: the sum of ``|amp|^2`` or of the diagonal over each
    row's basis states.  A sign of +-1 changes no modulus and no diagonal
    entry, so it is left out."""
    if states.ndim == 3:
        return states[:, index, index].sum(axis=-1).real
    return (np.abs(states[:, index]) ** 2).sum(axis=-1)


def _sector_blocks(sector: Sector, states: np.ndarray, rows, prob) -> np.ndarray:
    """Trace-one (P, d, d) blocks in ``sector`` of the states ``rows`` (P,)
    of a (B, n) amplitude stack or a (B, n, n) density stack, whose sector
    probabilities ``prob`` (P,) must be non-zero.

    The block of a density matrix is its gathered entries times the product
    of the two +-1 signs, divided by the probability; a pure state's local
    amplitudes times their signs are divided by the root of the probability,
    and the block is their outer product.  ``project_sector`` and
    ``_eps_t_kernel`` both build their blocks here, so their entries agree
    bit for bit.
    """
    if states.ndim == 3:
        parts = states[rows[:, None, None], sector.index[:, None], sector.index]
        return parts * np.outer(sector.sign, sector.sign) / prob[:, None, None]
    normed = states[rows[:, None], sector.index] * sector.sign / np.sqrt(prob)[:, None]
    return normed[:, :, None] * normed[:, None, :].conj()


def _decomposed(state, partition: Partition, basis: FockBasis | None):
    """Decomposition and batch-of-one stack of a ManyBodyState, or of a
    DensityMatrix on the full Fock basis ``basis``: the one check that a
    density matrix matches the basis dimension."""
    if isinstance(state, ManyBodyState):
        return _decomposition(state.basis, partition), state.amp[None]
    if not isinstance(state, DensityMatrix):
        raise TypeError("expected a ManyBodyState or a DensityMatrix")
    if basis is None:
        raise TypeError("a DensityMatrix input needs the Fock basis")
    if state.mat.shape != (len(basis), len(basis)):
        raise ValueError("density matrix does not match the basis dimension")
    return _decomposition(basis, partition), state.mat[None]


def project_sector(
    state, partition: Partition, counts, basis: FockBasis | None = None
) -> SectorState:
    """Project onto one fixed local-particle-number sector.

    ``state`` is a ManyBodyState, or a DensityMatrix over the full Fock
    basis with ``basis`` passed explicitly.  ``counts`` must be three
    non-negative integers summing to N; anything else raises ValueError.
    Counts that admit no legal local pattern (e.g. two fermions on a
    single-mode party) are legal input and yield probability zero.
    """
    counts = _sector_counts(counts)
    dec, stack = _decomposed(state, partition, basis)
    if sum(counts) != dec.basis.n_particles:
        raise ValueError(
            f"sector counts {counts} do not sum to N={dec.basis.n_particles}"
        )
    sector = dec.sectors.get(counts)
    if sector is None:
        return SectorState(counts, (0, 0, 0), 0.0, None)
    return _sector_state(sector, stack)


def _sector_counts(counts) -> tuple[int, int, int]:
    message = "sector counts must be three non-negative integers"
    checked = _integers(counts, message)
    if len(checked) != 3:
        raise ValueError(f"{message}, got {counts!r}")
    return checked


# ---------------------------------------------------------------------------
# negativities


@functools.lru_cache(maxsize=64)
def _transpose_index(dims: tuple[int, ...]) -> np.ndarray:
    """Gather index of every one-party partial transpose on ``dims``.

    Row ``p`` lists, for each entry of the flattened D x D partial
    transpose over party ``p`` (D = prod(dims)), the position of the
    entry of the flattened matrix it takes.  It is the one definition of
    the partial transpose: ``partial_transpose`` and ``_negativity``
    gather through it.  Read-only, because rows are shared between
    callers.
    """
    size = math.prod(dims)
    grid = np.arange(size * size).reshape(dims + dims)
    return _read_only(
        [np.swapaxes(grid, p, p + len(dims)).reshape(-1) for p in range(len(dims))], np.intp
    )


def _check_party(rho: DensityMatrix, party) -> int:
    message = f"party out of range for dims {rho.dims}: need an integer 0..{len(rho.dims) - 1}"
    return _integer(party, message, high=len(rho.dims) - 1)


def _check_normalised(measure: str, state) -> None:
    """Reject a ket whose squared norm, or a density matrix whose trace, is
    more than NEGATIVITY_TRACE_TOL from one."""
    if isinstance(state, DensityMatrix):
        weight, name = state.trace(), "trace"
    else:
        weight, name = float(np.vdot(state.amp, state.amp).real), "squared norm"
    if abs(weight - 1.0) > NEGATIVITY_TRACE_TOL:
        raise ValueError(f"{measure} expects a normalised state, got {name} {weight!r}")


def partial_transpose(rho: DensityMatrix, party: int) -> DensityMatrix:
    """Transpose the indices of one party; an involution."""
    party = _check_party(rho, party)
    mat = rho.mat.reshape(-1)[_transpose_index(rho.dims)[party]]
    return DensityMatrix(rho.dims, mat.reshape(rho.mat.shape))


def _negativity(stack: np.ndarray, dims: tuple[int, ...], parties: list[int]) -> np.ndarray:
    """Negativities (P, len(parties)) of a (P, D, D) stack of trace-one
    density matrices on ``dims``, cut between each of ``parties`` and the
    rest: the sum of absolute partial-transpose eigenvalues minus one,
    floored at 0.  The transposes are Hermitian, so one batched Hermitian
    solve takes them all; LAPACK solves each on its own, reading one
    triangle."""
    size = stack.shape[-1]
    transposes = stack.reshape(len(stack), -1)[:, _transpose_index(dims)[parties]]
    eig = np.linalg.eigvalsh(transposes.reshape(transposes.shape[:2] + (size, size)))
    return np.maximum(0.0, np.abs(eig).sum(axis=-1) - 1.0)


def bipartite_negativity(rho: DensityMatrix, party: int) -> float:
    """Sum of absolute partial-transpose eigenvalues minus one, floored at 0.

    ``party`` is an integer indexing ``rho.dims``; anything else (a float,
    or an integer outside ``0..len(dims)-1``) raises ValueError, and so
    does a trace more than NEGATIVITY_TRACE_TOL from one.
    """
    party = _check_party(rho, party)
    _check_normalised("negativity", rho)
    return float(_negativity(rho.mat[None], rho.dims, [party])[0, 0])


def tripartite_negativity(rho: DensityMatrix) -> float:
    """Geometric mean of the three one-versus-rest negativities."""
    if len(rho.dims) != 3:
        raise ValueError("tripartite negativity needs dims (d_A, d_B, d_C)")
    _check_normalised("negativity", rho)
    return float(np.cbrt(_negativity(rho.mat[None], rho.dims, [0, 1, 2])[0].prod()))


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

    Nothing loops over every sector: the decomposition's kernel plan
    fixes the gathers.  One gather and one sum over the last axis per
    sector length fill every column of ``probs``; a sector with a
    one-dimensional party needs nothing more.  Each live sector (every
    local dimension > 1; for three particles at most (1, 1, 1)) builds
    the blocks of up to _EIGENSOLVE_CHUNK of its states above the floor
    (``_sector_blocks``) and cuts each of them three ways in one
    ``_negativity`` call.  On a batch of one, both give bit for bit what
    ``project_sector``, ``bipartite_negativity`` and
    ``tripartite_negativity`` give on the same sector; numpy may order the
    sums of a longer batch differently.
    """
    probs = np.zeros((len(states), len(dec.sectors)))
    for cols, index in dec._probability_groups:
        probs[:, cols] = _sector_probs(states, index)
    probs[probs <= PROBABILITY_FLOOR] = 0.0
    negs = np.zeros(probs.shape + (4,))
    for col, sector in dec._live:
        rows = np.flatnonzero(probs[:, col])
        for lo in range(0, len(rows), _EIGENSOLVE_CHUNK):
            b = rows[lo : lo + _EIGENSOLVE_CHUNK]
            blocks = _sector_blocks(sector, states, b, probs[b, col])
            cuts = _negativity(blocks, sector.dims, [0, 1, 2])
            negs[b, col] = np.column_stack([cuts, np.cbrt(cuts.prod(axis=-1))])
    return probs, negs, (probs * negs[..., 3]).sum(axis=1)


class SectorRecord(NamedTuple):
    counts: tuple[int, int, int]
    prob: float
    n_a_bc: float
    n_b_ac: float
    n_c_ab: float
    tpn: float


@dataclass
class EntanglementReport:
    """Per-sector negativities and the particle-number-weighted total."""

    sectors: tuple[SectorRecord, ...]
    eps_t: float

    def sector(self, counts) -> SectorRecord | None:
        """The record of the sector with local ``counts``, or None if it
        was dropped; counts that are not three non-negative integers
        raise ValueError."""
        counts = _sector_counts(counts)
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
    exclusion) carry zero negativities.  The state must be normalised:
    a trace or squared norm more than NEGATIVITY_TRACE_TOL from one
    raises ValueError, because it would scale ``eps_T``.
    """
    dec, stack = _decomposed(state, partition, basis)
    _check_normalised("eps_T", state)
    probs, negs, eps_t = _eps_t_kernel(dec, stack)
    records = tuple(
        SectorRecord(counts, prob, *sector_negs)
        for counts, prob, sector_negs in zip(dec.sectors, probs[0].tolist(), negs[0].tolist())
        if prob > 0.0
    )
    return EntanglementReport(records, float(eps_t[0]))


# ---------------------------------------------------------------------------
# geometric mode-entanglement measure


@functools.lru_cache(maxsize=64)
def _qubit_index(basis: FockBasis, partition: Partition) -> np.ndarray:
    """Read-only flat position of every basis ket in the (d, d, d)
    occupation-qubit tensor, or -1 for a ket with a doubly occupied mode.

    Each mode is a qubit (sign-free under the canonical ket convention):
    the parties' occupations, read in each party's mode order, form one
    binary number.  Holds the one ``eps_G`` partition check.
    """
    if {len(p) for p in partition.parties} not in ({1}, {2}):
        raise ValueError("geometric measure supports equal party sizes of 1 or 2 modes")
    partition.validate_cover(basis.n_modes)
    occ = np.array(basis.states)[:, [m - 1 for party in partition.parties for m in party]]
    flat = occ @ (1 << np.arange(occ.shape[1])[::-1])
    return _read_only(np.where((occ > 1).any(axis=1), -1, flat), np.intp)


def mode_qubit_tensor(basis: FockBasis, amps: np.ndarray, partition: Partition) -> np.ndarray:
    """Map hard-core amplitudes onto three-party occupation-qubit tensors.

    Scatters a (..., n) stack of amplitude vectors on ``basis`` through
    the cached ``_qubit_index`` into (..., d, d, d) tensors, so each party
    of m modes is a d = 2^m-level subsystem.  Fails if any ket with more
    than one particle in a mode carries amplitude in any row.
    """
    index = _qubit_index(basis, partition)
    if amps[..., index < 0].any():
        raise ValueError("occupation-qubit mapping needs occupations of at most one")
    psi = np.zeros(amps.shape[:-1] + (2 ** len(partition.a),) * 3, dtype=complex)
    psi.reshape(amps.shape[:-1] + (-1,))[..., index[index >= 0]] = amps[..., index >= 0]
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
    value as the generator path.  Each marginal is one batched Gram
    product: with party X's axis first, the tensor is a (d, d^2) matrix
    R of rows and rho_X = R R^dagger.
    """
    dim = psis.shape[-1]
    norm = np.sum(np.abs(psis) ** 2, axis=(-3, -2, -1))
    purities = 0.0
    for axis in (-3, -2, -1):
        rows = np.moveaxis(psis, axis, -3).reshape(psis.shape[:-3] + (dim, dim * dim))
        marginal = rows @ rows.conj().swapaxes(-1, -2)
        purities = purities + np.sum(np.abs(marginal) ** 2, axis=(-2, -1))
    total = (dim**3 - 1) * norm**2 - dim * (dim - 1) * purities
    prefactor, sep_norm = _tensor_norm_constants(dim)
    return np.sqrt(prefactor * total) - sep_norm


def geometric_measure(state: ManyBodyState, partition: Partition) -> float:
    """Mode-entanglement tensor norm minus its fully-separable value.

    Supports parties of one mode (Pauli triple, separable norm 1) and
    two modes (fifteen su(4) generators, prefactor 8 inside the root,
    separable norm 6*sqrt(6)).  Defined here for pure states only, and
    evaluated from the marginal purities by ``_geometric_kernel`` as a
    batch of one.  The state must be normalised: a squared norm more
    than NEGATIVITY_TRACE_TOL from one raises ValueError, because the
    measure grows with the norm.
    """
    if not isinstance(state, ManyBodyState):
        raise ValueError("eps_G is defined for pure states (ManyBodyState) only")
    psi = mode_qubit_tensor(state.basis, state.amp, partition)
    _check_normalised("eps_G", state)
    return float(_geometric_kernel(psi))
