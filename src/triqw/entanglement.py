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
  per pair (``_decomposition``), with its kernel plan: the sectors'
  basis positions stacked by sector length, and the sectors whose
  parties all have more than one local state.  There is one probability
  expression, ``_sector_probs``: the kernel calls it once per sector
  length, ``project_sector`` once per sector.  There is one block path
  and one negativity path for density input and for blocks with a local
  dimension above two: ``_sector_blocks`` builds the normalised blocks
  of a sector, and ``_negativity`` cuts them through the cached
  permutation of their dims (``_transpose_index``) and takes the
  eigenvalues of all one-party cuts in one call.  ``project_sector`` and
  the public negativities go through them too, so there they agree bit
  for bit with the kernel.  A pure state's block in a sector of three
  qubits, the only live sector of three particles on two-mode parties,
  takes the closed form ``_qubit_negativity`` (2 sqrt(det rho_X) per
  cut, from the 2 x 2 minors of its ``_local_amplitudes``) instead, with
  no eigensolve; it agrees with the eigen path to roundoff.  A
  per-state call checks its input once and then does only the
  arithmetic that depends on it.
* ``geometric_measure`` (``eps_G``) -- the mode-entanglement tensor norm
  built from triple products of su(d) generators on the occupation-qubit
  isomorphism (``mode_qubit_tensor``, also used by the phase-grid scan),
  minus its value on fully factorized kets.  Production code evaluates
  the generator sum through its closed form in the one-party marginal
  purities (``_geometric_kernel``); the generator contraction
  ``tensor_norm_squared`` stays as the definitional reference, and the
  generators it contracts (``su_generators``) are built in
  ``tests/oracles.py``.

Fermionic bookkeeping: both measures read each ket's creation string in
party-blocked order, which differs from the ascending ket by the parity
sign of the reordering.  One cached table (``_party_layout``) holds every
ket's occupations in party order and that sign; the sectors and
``mode_qubit_tensor`` both read it.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .fock import DensityMatrix, FockBasis, ManyBodyState, _integer, _integers, _read_only

PROBABILITY_FLOOR = 1e-14
NEGATIVITY_TRACE_TOL = 1e-10


@dataclass(frozen=True)
class Partition:
    """Three disjoint mode groups (1-based indices) covering the lattice.

    Party mode order is preserved as given; the canonical presentation
    is ascending, but permuted orders are accepted and only change the
    local basis convention, not ``eps_T`` or ``eps_G``.
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
        groups = text.split("|") if isinstance(text, str) else ()
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


@functools.lru_cache(maxsize=64)
def _party_layout(basis: FockBasis, partition: Partition) -> tuple[np.ndarray, np.ndarray]:
    """Every basis ket in party-blocked mode order: the (n, L) occupations
    and the (n,) +-1 parity of reordering each fermionic creation string
    from that order to ascending order (all +1 for bosons).  Holds the
    package's one partition cover check; read-only, shared by both measures."""
    partition.validate_cover(basis.n_modes)
    order = np.array([m for party in partition.parties for m in party]) - 1
    occ = np.array(basis.states)[:, order]
    inverted = np.triu(order[:, None] > order, 1)
    odd = np.einsum("ki,ij,kj->k", occ, inverted, occ) % 2 == 1
    sign = np.where(odd & basis.stats.exclusive, -1.0, 1.0)
    return _read_only(occ, np.intp), _read_only(sign)


class Sector(NamedTuple):
    """One fixed local-particle-number block of a partitioned basis.

    Entry ``f`` of the local product basis (party A x party B x party C,
    each party's occupation patterns in ascending lexicographic order)
    is the global basis state ``index[f]`` times ``sign[f]``, the +-1
    fermionic reordering sign (all +1 for bosons).  ``signs`` is the
    (D, D) product ``outer(sign, sign)`` that signs a density block.
    ``dims`` counts each party's patterns, so ``len(index) == prod(dims)``.
    All three arrays are read-only, because decompositions are shared
    between callers.
    """

    counts: tuple[int, int, int]
    dims: tuple[int, int, int]
    index: np.ndarray
    sign: np.ndarray
    signs: np.ndarray


class SectorState(NamedTuple):
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
        occ, signs = _party_layout(basis, partition)
        self.basis = basis
        self.partition = partition

        a, b = len(partition.a), len(partition.a) + len(partition.b)
        grouped: dict[tuple[int, int, int], list] = {}
        for gi, (row, sign) in enumerate(zip(occ.tolist(), signs.tolist())):
            local = (tuple(row[:a]), tuple(row[a:b]), tuple(row[b:]))
            grouped.setdefault(tuple(map(sum, local)), []).append((local, gi, sign))

        self.sectors: dict[tuple[int, int, int], Sector] = {}
        for counts in sorted(grouped):
            local, index, sign = zip(*sorted(grouped[counts]))
            dims = tuple(len(set(patterns)) for patterns in zip(*local))
            self.sectors[counts] = Sector(
                counts, dims, _read_only(index), _read_only(sign), _read_only(np.outer(sign, sign))
            )
        # The kernel plan of _eps_t_kernel, fixed by the basis and the
        # partition.  Each probability group holds the (m,) columns of the m
        # sectors of one length d and the (m, d) stack of their basis
        # positions, for one _sector_probs call per length.  The live
        # sectors are the (column, Sector) pairs of the sectors whose local
        # dimensions all exceed one, the only ones with non-zero
        # negativities.
        by_length: dict[int, list] = {}
        for k, sector in enumerate(self.sectors.values()):
            by_length.setdefault(len(sector.index), []).append((k, sector.index))
        self._probability_groups = tuple(
            tuple(_read_only(part, np.intp) for part in zip(*group)) for group in by_length.values()
        )
        columns = enumerate(self.sectors.values())
        self._live = tuple((k, sec) for k, sec in columns if min(sec.dims) > 1)

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
    prob = _sector_probs(stack, sector.index)
    rho = None
    if prob[0] > PROBABILITY_FLOOR:
        rho = DensityMatrix(sector.dims, _sector_blocks(sector, stack, np.arange(1), prob)[0])
    return SectorState(sector.counts, sector.dims, float(prob[0]), rho)


def _sector_probs(states: np.ndarray, positions: np.ndarray) -> np.ndarray:
    """Probabilities in a stack of (B, n) amplitude vectors or (B, n, n)
    density matrices of the sectors whose basis positions are the last axis
    of ``positions``: (B,) for the (d,) positions of one sector, (B, m) for
    the (m, d) stack of m sectors of one length.  Each is its states'
    ``|amp|^2``, or diagonal entries, summed over that axis, then the real
    part.  A sign of +-1 changes no modulus and no diagonal entry, so it is
    left out.  The gathered weights are made C-contiguous before the sum:
    a (B, m, d) gather puts the batch axis innermost in memory, and numpy
    would then add a state's weights in an order that depends on B."""
    if states.ndim == 3:
        weights = states[:, positions, positions]
    else:
        weights = np.abs(states[:, positions]) ** 2
    return np.ascontiguousarray(weights).sum(axis=-1).real


def _sector_blocks(sector: Sector, states: np.ndarray, rows, prob) -> np.ndarray:
    """Trace-one (P, d, d) blocks in ``sector`` of the states ``rows`` (P,)
    of a (B, n) amplitude stack or a (B, n, n) density stack, whose sector
    probabilities ``prob`` (P,) must be non-zero.

    The block of a density matrix is its gathered entries times the product
    of the two +-1 signs, divided by the probability; a pure state's block
    is the outer product of its ``_local_amplitudes``.  The one block path
    of ``project_sector``, and of ``_eps_t_kernel`` for every sector but
    the pure three-qubit ones.
    """
    if states.ndim == 3:
        parts = states[rows[:, None, None], sector.index[:, None], sector.index]
        return parts * sector.signs / prob[:, None, None]
    normed = _local_amplitudes(sector, states, rows, prob)
    return normed[:, :, None] * normed[:, None, :].conj()


def _local_amplitudes(sector: Sector, states: np.ndarray, rows, prob) -> np.ndarray:
    """Normalised local amplitudes (P, D) in ``sector`` of the states ``rows``
    (P,) of a (B, n) amplitude stack: the gathered amplitudes times their
    +-1 signs, divided by the root of the non-zero sector probabilities
    ``prob`` (P,)."""
    return states[rows[:, None], sector.index] * sector.sign / np.sqrt(prob)[:, None]


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
    """Transpose the indices of one party; an involution.  ``party`` is
    checked as in ``bipartite_negativity``."""
    party = _check_party(rho, party)
    mat = rho.mat.reshape(-1)[_transpose_index(rho.dims)[party]]
    return DensityMatrix(rho.dims, mat.reshape(rho.mat.shape))


def _negativity(stack: np.ndarray, dims: tuple[int, ...]) -> np.ndarray:
    """Negativities (P, len(dims)) of a (P, D, D) stack of trace-one
    density matrices on ``dims``, cut between each party and the rest:
    the sum of absolute eigenvalues of the partial transpose minus one,
    floored at 0.  One gather through ``_transpose_index`` takes every
    cut, and the transposes are Hermitian, so one batched Hermitian solve
    takes them all; LAPACK solves each on its own, reading one
    triangle.  An empty stack (P = 0) gives an empty (0, len(dims))."""
    size = stack.shape[-1]
    transposes = stack.reshape(len(stack), size * size)[:, _transpose_index(dims)]
    eig = np.linalg.eigvalsh(transposes.reshape(transposes.shape[:2] + (size, size)))
    return np.maximum(0.0, np.abs(eig).sum(axis=-1) - 1.0)


# Gather index (3, 2, 4) of the rows R of each qubit's cut: entry (p, i, j)
# is the position, among the 8 amplitudes of three qubits, of qubit p in
# state i and the other two in joint state j.  Read-only, like the other
# shared tables.
_QUBIT_ROWS = _read_only(
    [np.moveaxis(np.arange(8).reshape(2, 2, 2), p, 0).reshape(2, 4) for p in range(3)]
)
_COLUMN_PAIRS = tuple(_read_only(i) for i in np.triu_indices(4, 1))


def _qubit_negativity(normed: np.ndarray) -> np.ndarray:
    """Negativities (P, 3) of the pure three-qubit states with normalised
    amplitudes ``normed`` (P, 8), cut between each qubit and the rest.

    With Schmidt coefficients s0, s1 of a cut, the partial transpose has
    eigenvalues s0^2, s1^2 and +-s0 s1, so the negativity is 2 s0 s1 =
    2 sqrt(det rho_X) (Vidal & Werner, PRA 65, 032314, 2002).  By
    Cauchy-Binet, det rho_X = det(R R^dagger) is the sum of the squared
    moduli of the six 2 x 2 minors of the (2, 4) rows R.  No Gram matrix,
    no subtraction of one and no eigensolve, so a product cut gives
    exactly 0 whenever its minors cancel exactly.
    """
    rows = normed[:, _QUBIT_ROWS]
    j, k = _COLUMN_PAIRS
    minors = rows[..., 0, j] * rows[..., 1, k] - rows[..., 0, k] * rows[..., 1, j]
    return 2.0 * np.sqrt(np.sum(np.abs(minors) ** 2, axis=-1))


def bipartite_negativity(rho: DensityMatrix, party: int) -> float:
    """Sum of absolute partial-transpose eigenvalues minus one, floored at 0.

    ``party`` is an integer indexing ``rho.dims``; anything else (a float,
    or an integer outside ``0..len(dims)-1``) raises ValueError, and so
    does a trace more than NEGATIVITY_TRACE_TOL from one.
    """
    party = _check_party(rho, party)
    _check_normalised("negativity", rho)
    return float(_negativity(rho.mat[None], rho.dims)[0, party])


def tripartite_negativity(rho: DensityMatrix) -> float:
    """Geometric mean of the three one-versus-rest negativities."""
    if len(rho.dims) != 3:
        raise ValueError("tripartite negativity needs dims (d_A, d_B, d_C)")
    _check_normalised("negativity", rho)
    return float(np.cbrt(_negativity(rho.mat[None], rho.dims)[0].prod()))


# ---------------------------------------------------------------------------
# entanglement of particles


def _eps_t_kernel(dec: SectorDecomposition, states: np.ndarray):
    """Batched sector negativities and ``eps_T`` of a stack of states.

    ``states`` is a (B, n) stack of amplitude vectors or a (B, n, n)
    stack of density matrices on ``dec.basis``, already checked by the
    caller.  Returns, with sectors in the order of ``dec.sectors``:

    * ``probs`` (B, S), set to exactly 0 at or below PROBABILITY_FLOOR;
    * ``negs`` (B, S, 4): N_A|BC, N_B|AC, N_C|AB and their geometric
      mean (TPN), all 0 in dropped sectors and in sectors where a party
      has a one-dimensional local space (biseparable across that cut;
      skipping them also keeps the cube root from amplifying eigensolver
      noise on the zero factor);
    * ``eps_t`` (B,), the probability-weighted sum of the TPN.

    Everything fixed by the basis and the partition comes from the
    decomposition's kernel plan, so a call does only the arithmetic that
    depends on ``states``.  One ``_sector_probs`` call per sector length,
    on the (m, d) stack of those sectors' basis positions, fills their m
    columns of ``probs``; a sector with a one-dimensional party needs
    nothing more.
    For each live sector (every local dimension > 1; for three particles
    at most (1, 1, 1)) the path depends on the input.  An amplitude stack
    in a sector of dims (2, 2, 2) sends all its states above the floor
    through ``_qubit_negativity``, the closed form of a pure three-qubit
    state, whose working set is (P, 8).  Otherwise ``_sector_blocks``
    builds the normalised blocks of all those states and ``_negativity``
    takes their three cuts in one stacked eigensolve, so the batch that
    the caller passes bounds that working set.  Those are the functions
    behind ``project_sector``, ``bipartite_negativity`` and
    ``tripartite_negativity``, so on that path a batch of one gives bit
    for bit what they give on the same sector; the closed form agrees
    with them to roundoff.  A state's outputs do not depend on the other
    states of its batch, so any split of a stack gives the same bits.
    """
    probs = np.empty((len(states), len(dec.sectors)))
    for cols, index in dec._probability_groups:
        probs[:, cols] = _sector_probs(states, index)
    probs[probs <= PROBABILITY_FLOOR] = 0.0
    negs = np.zeros(probs.shape + (4,))
    for k, sector in dec._live:
        rows = probs[:, k].nonzero()[0]
        if states.ndim == 2 and sector.dims == (2, 2, 2):
            cut = _qubit_negativity(_local_amplitudes(sector, states, rows, probs[rows, k]))
        else:
            cut = _negativity(_sector_blocks(sector, states, rows, probs[rows, k]), sector.dims)
        negs[rows, k, :3] = cut
        negs[rows, k, 3] = np.cbrt(cut.prod(axis=-1))
    return probs, negs, (probs * negs[..., 3]).sum(axis=1)


class SectorRecord(NamedTuple):
    counts: tuple[int, int, int]
    prob: float
    n_a_bc: float
    n_b_ac: float
    n_c_ab: float
    tpn: float


class EntanglementReport(NamedTuple):
    """Per-sector negativities and the particle-number-weighted total."""

    sectors: tuple[SectorRecord, ...]
    eps_t: float


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
    sector_probs = probs[0].tolist()
    rows = zip(dec.sectors, sector_probs, *negs[0].T.tolist())
    kept = [prob > 0.0 for prob in sector_probs]
    records = tuple(map(SectorRecord._make, itertools.compress(rows, kept)))
    return EntanglementReport(records, float(eps_t[0]))


# ---------------------------------------------------------------------------
# geometric mode-entanglement measure


def mode_qubit_tensor(basis: FockBasis, amps: np.ndarray, partition: Partition) -> np.ndarray:
    """Map hard-core amplitudes onto three-party occupation-qubit tensors.

    Scatters a (..., n) stack of amplitude vectors on ``basis`` into
    (..., d, d, d) tensors, so each party of m modes is a d = 2^m-level
    subsystem, at the positions and with the signs of ``_party_layout``.
    The parties must have equal sizes of one or two modes, and it fails if
    any ket with more than one particle in a mode carries amplitude in any
    row.
    """
    if {len(p) for p in partition.parties} not in ({1}, {2}):
        raise ValueError("geometric measure supports equal party sizes of 1 or 2 modes")
    occ, sign = _party_layout(basis, partition)
    hard = (occ <= 1).all(axis=1)
    if amps[..., ~hard].any():
        raise ValueError("occupation-qubit mapping needs occupations of at most one")
    flat = occ[hard] @ (1 << np.arange(occ.shape[1])[::-1])
    psi = np.zeros(amps.shape[:-1] + (2 ** len(partition.a),) * 3, dtype=complex)
    psi.reshape(amps.shape[:-1] + (-1,))[..., flat] = amps[..., hard] * sign[hard]
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
