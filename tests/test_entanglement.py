import itertools
import math

import numpy as np
import pytest
from hypothesis import assume, example, given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    basis_ket,
    bubble_sort_parity,
    hermitian_eigenvalues,
    jacobi_eigenvalues,
    negativity_by_jacobi,
    occupation_qubit_tensor,
    projector,
    sector_maps,
    sector_record,
    sector_matrix,
    su_generators,
    tripartite_negativity_by_jacobi,
)
from triqw import (
    ADJACENT_PARTITION,
    ALTERNATING_PARTITION,
    CHI_PARTITION,
    WALK_INIT,
    DensityMatrix,
    LatticeParams,
    ManyBodyState,
    Partition,
    Statistics,
    bipartite_negativity,
    chi_state,
    entanglement_of_particles,
    enumerate_basis,
    evolve_state,
    geometric_measure,
    partial_transpose,
    phi_scan,
    phi_state,
    project_sector,
    single_particle_propagator,
    tripartite_negativity,
    walk_scan,
)
from triqw import entanglement
from triqw.entanglement import (
    PROBABILITY_FLOOR,
    SectorDecomposition,
    _decomposition,
    _eps_t_kernel,
    _geometric_kernel,
    _negativity,
    _party_layout,
    _tensor_norm_constants,
    mode_qubit_tensor,
    tensor_norm_squared,
)
from triqw.fock import FockBasis, _monomial_amplitudes
from triqw.states import phi_basis

BOS = Statistics.BOSONS
FER = Statistics.FERMIONS


def random_state(basis, seed):
    rng = np.random.default_rng(seed)
    amp = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    return ManyBodyState(basis, amp / np.linalg.norm(amp))


def qubit_dm(vec):
    vec = np.asarray(vec, dtype=complex)
    vec = vec / np.linalg.norm(vec)
    return DensityMatrix((2, 2, 2), np.outer(vec, vec.conj()))


GHZ = qubit_dm([1, 0, 0, 0, 0, 0, 0, 1])
W_STATE = qubit_dm([0, 1, 1, 0, 1, 0, 0, 0])


class TestPartition:
    def test_parse_round_trip(self):
        part = Partition.parse("1,2|3,4|5,6")
        assert part.parties == ((1, 2), (3, 4), (5, 6))
        assert str(part) == "1,2|3,4|5,6"

    def test_parse_errors(self):
        with pytest.raises(ValueError):
            Partition.parse("1,2|3,4")
        with pytest.raises(ValueError):
            Partition.parse("1,2|2,3|4,5")
        with pytest.raises(ValueError):
            Partition.parse("1,x|3|4")
        with pytest.raises(ValueError):
            Partition.parse("|1,2|3")

    def test_cover_check(self):
        with pytest.raises(ValueError):
            Partition.parse("1,2|3,4|5,7").validate_cover(6)

    @pytest.mark.parametrize("mode", [6.7, 6.0, "6", True])
    def test_rejects_non_integer_modes(self, mode):
        with pytest.raises(ValueError, match="integers"):
            Partition((1, 2), (3, 4), (5, mode))

    def test_accepts_numpy_integers(self):
        part = Partition(*np.arange(1, 7).reshape(3, 2))
        assert part == ADJACENT_PARTITION
        assert all(type(m) is int for m in part.a + part.b + part.c)


@st.composite
def shuffled_partitions(draw):
    """A random permutation of the modes split into parties of 1-4 modes."""
    sizes = draw(st.tuples(*[st.integers(1, 4)] * 3))
    modes = draw(st.permutations(range(1, sum(sizes) + 1)))
    a, b = sizes[0], sizes[0] + sizes[1]
    return Partition(modes[:a], modes[a:b], modes[b:])


class TestSectorProjection:
    def test_phi_ghz_point_lands_in_single_occupancy_sector(self):
        sec = project_sector(phi_state(0.0, math.pi / 4), ADJACENT_PARTITION, (1, 1, 1))
        assert sec.prob == pytest.approx(1.0, abs=1e-12)
        assert sec.dims == (2, 2, 2)
        expected = np.zeros((8, 8))
        expected[0, 0] = expected[0, 7] = expected[7, 0] = expected[7, 7] = 0.5
        assert np.abs(sec.rho.mat - expected).max() <= 1e-12

    def test_chi_single_mode_sector(self):
        sec = project_sector(chi_state(), CHI_PARTITION, (1, 0, 0))
        assert sec.prob == pytest.approx(1.0 / 3.0, abs=1e-12)
        assert sec.dims == (1, 1, 1)
        assert np.abs(sec.rho.mat - np.eye(1)).max() <= 1e-12

    def test_impossible_fermionic_counts_have_zero_probability(self):
        sec = project_sector(phi_state(0.3, 0.7), ADJACENT_PARTITION, (3, 0, 0))
        assert sec.prob == 0.0
        assert sec.rho is None
        assert sec.dims == (0, 0, 0)

    def test_counts_must_sum_to_particle_number(self):
        with pytest.raises(ValueError):
            project_sector(chi_state(), CHI_PARTITION, (1, 1, 0))

    @pytest.mark.parametrize(
        "counts",
        [(1, 2), (4, -1, 0), (1, 1, 1, 0), (), (1.5, 1.5, 0.0), ("3", "0", "0"), (True, 1, 1)],
    )
    def test_counts_must_be_three_non_negative_integers(self, counts):
        # (1, 2) and (4, -1, 0) sum to N=3, so only the shape check rejects them
        with pytest.raises(ValueError, match="sector counts"):
            project_sector(phi_state(0.3, 0.7), ADJACENT_PARTITION, counts)

    @pytest.mark.parametrize("via", ["project_sector", "project_density"])
    def test_density_matrix_must_match_the_basis_dimension(self, via):
        basis = enumerate_basis(3, 6, FER)
        small = projector(chi_state())
        with pytest.raises(ValueError, match="does not match the basis dimension"):
            if via == "project_sector":
                project_sector(small, ADJACENT_PARTITION, (1, 1, 1), basis=basis)
            else:
                _decomposition(basis, ADJACENT_PARTITION).project_density(small)

    def test_two_fermions_on_a_one_mode_party_have_zero_probability(self):
        state = basis_ket(enumerate_basis(2, 3, FER), (1, 1, 0))
        sec = project_sector(state, CHI_PARTITION, (2, 0, 0))
        assert (sec.prob, sec.rho) == (0.0, None)
        assert project_sector(state, CHI_PARTITION, (np.int64(1), 1, 0)).prob == 1.0

    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    def test_fermionic_signs_match_parity_oracle(self, partition):
        # every three-fermion ket, checked against a literal bubble sort of
        # its blocked creation sequence
        basis = enumerate_basis(3, 6, FER)
        dec = SectorDecomposition(basis, partition)
        for gi, occ in enumerate(basis.states):
            blocked = [m for party in partition.parties for m in party if occ[m - 1]]
            counts = tuple(sum(occ[m - 1] for m in party) for party in partition.parties)
            sector = dec.sectors[counts]
            assert np.count_nonzero(sector.index == gi) == 1
            assert sector.sign[sector.index == gi].sum() == bubble_sort_parity(blocked)

    def test_hand_computed_signs_for_alternating_partition(self):
        basis = enumerate_basis(3, 6, FER)
        dec = SectorDecomposition(basis, ALTERNATING_PARTITION)
        sector = dec.sectors[(1, 1, 1)]
        # occupied (1,2,3): blocked sequence (1,2,3), even
        assert sector.sign[sector.index == basis.index((1, 1, 1, 0, 0, 0))].sum() == 1.0
        # occupied (2,3,4): blocked sequence (4,2,3), two inversions
        assert sector.sign[sector.index == basis.index((0, 1, 1, 1, 0, 0))].sum() == 1.0

    @pytest.mark.parametrize("stats", [BOS, FER])
    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    @pytest.mark.parametrize("seed", range(5))
    def test_sector_probabilities_sum_to_one(self, stats, partition, seed):
        basis = enumerate_basis(3, 6, stats)
        state = random_state(basis, seed)
        dec = SectorDecomposition(basis, partition)
        total = sum(sec.prob for sec in dec.project_state(state))
        assert total == pytest.approx(1.0, abs=1e-12)

    @settings(max_examples=60, deadline=None)
    @given(
        partition=shuffled_partitions(),
        n_particles=st.integers(1, 3),
        stats=st.sampled_from([BOS, FER]),
    )
    def test_sectors_match_enumerated_product_bases(self, partition, n_particles, stats):
        basis = enumerate_basis(n_particles, sum(map(len, partition.parties)), stats)
        dec = SectorDecomposition(basis, partition)
        gathered = np.concatenate([sector.index for sector in dec.sectors.values()])
        assert sorted(gathered.tolist()) == list(range(len(basis)))
        expected = sector_maps(basis, partition)
        assert list(dec.sectors) == list(expected)
        for counts, sector in dec.sectors.items():
            dims, entries = expected[counts]
            assert sector.counts == counts
            assert sector.dims == dims
            assert len(sector.index) == math.prod(sector.dims)
            assert sector.index.tolist() == [gi for gi, _ in entries]
            assert sector.sign.tolist() == [sign for _, sign in entries]

    def test_density_matrix_input_matches_pure_path(self):
        basis = enumerate_basis(3, 6, FER)
        state = random_state(basis, 42)
        pure = project_sector(state, ADJACENT_PARTITION, (1, 1, 1))
        dense = project_sector(
            projector(state), ADJACENT_PARTITION, (1, 1, 1), basis=basis
        )
        assert dense.prob == pytest.approx(pure.prob, abs=1e-12)
        assert np.abs(dense.rho.mat - pure.rho.mat).max() <= 1e-12


class TestHermitianEigenvalues:
    def test_two_by_two(self):
        assert np.allclose(
            hermitian_eigenvalues(np.array([[0.0, 1.0], [1.0, 0.0]])), [-1.0, 1.0]
        )

    def test_diagonal(self):
        got = hermitian_eigenvalues(np.diag([0.1, 0.2, 0.7]))
        assert np.allclose(got, [0.1, 0.2, 0.7], atol=1e-15)

    def test_reconstruction_self_check(self):
        rng = np.random.default_rng(3)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = 0.5 * (raw + raw.conj().T)
        evals, evecs = np.linalg.eigh(herm)
        assert np.abs(evecs @ np.diag(evals) @ evecs.conj().T - herm).max() <= 1e-10
        assert np.abs(hermitian_eigenvalues(herm) - evals).max() <= 1e-12

    def test_jacobi_oracle_agrees(self):
        rng = np.random.default_rng(5)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        herm = 0.5 * (raw + raw.conj().T)
        assert np.abs(jacobi_eigenvalues(herm) - hermitian_eigenvalues(herm)).max() <= 1e-8

    def test_rejects_non_hermitian(self):
        with pytest.raises(ValueError):
            hermitian_eigenvalues(np.array([[0.0, 1.0], [0.0, 0.0]]))

    def test_stacked_jacobi_oracle_matches_known_spectra(self):
        # diagonal matrices conjugated by known unitaries, one stack of (2, 3)
        rng = np.random.default_rng(21)
        spectra = np.sort(rng.normal(size=(2, 3, 6)), axis=-1)
        raw = rng.normal(size=(2, 3, 6, 6)) + 1j * rng.normal(size=(2, 3, 6, 6))
        unitaries = np.linalg.qr(raw)[0]
        mats = np.einsum("...ij,...j,...kj->...ik", unitaries, spectra, unitaries.conj())
        stacked = jacobi_eigenvalues(mats)
        assert stacked.shape == (2, 3, 6)
        assert np.abs(stacked - spectra).max() <= 1e-10
        for got, mat in zip(stacked.reshape(6, 6), mats.reshape(6, 6, 6)):
            assert np.abs(got - jacobi_eigenvalues(mat)).max() <= 1e-12
        # the GHZ and W cut negativities of test_acceptance, cut as one stack
        cuts = negativity_by_jacobi(np.stack([GHZ.mat, W_STATE.mat]), (2, 2, 2), range(3))
        w_cut = 2.0 * math.sqrt(2.0) / 3.0
        assert np.abs(cuts - [[1.0] * 3, [w_cut] * 3]).max() <= 1e-9


class TestPartialTranspose:
    def test_involution_is_exact(self):
        rng = np.random.default_rng(9)
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        rho = DensityMatrix((2, 2, 2), 0.5 * (raw + raw.conj().T))
        for party in range(3):
            twice = partial_transpose(partial_transpose(rho, party), party)
            assert np.array_equal(twice.mat, rho.mat)

    def test_product_state_spectrum_unchanged(self):
        rng = np.random.default_rng(13)
        blocks = []
        for dim in (2, 4):
            raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
            psd = raw @ raw.conj().T
            blocks.append(psd / psd.trace())
        rho = DensityMatrix((2, 2, 2), np.kron(blocks[0], blocks[1]))
        base = hermitian_eigenvalues(rho.mat)
        swapped = hermitian_eigenvalues(partial_transpose(rho, 0).mat)
        assert np.abs(np.sort(base) - np.sort(swapped)).max() <= 1e-12

    def test_bell_pair_minimum_eigenvalue(self):
        bell_c = qubit_dm([1, 0, 0, 0, 0, 0, 1, 0])  # Bell on A,B; C in |0>
        eig = jacobi_eigenvalues(partial_transpose(bell_c, 0).mat)
        assert eig.min() == pytest.approx(-0.5, abs=1e-9)

    def test_party_out_of_range(self):
        with pytest.raises(ValueError):
            partial_transpose(GHZ, 3)


class TestNegativities:
    def test_product_states_have_zero_negativity(self):
        rng = np.random.default_rng(17)
        for _ in range(25):
            parts = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
            vec = np.kron(np.kron(parts[0], parts[1]), parts[2])
            rho = qubit_dm(vec)
            for party in range(3):
                assert bipartite_negativity(rho, party) <= 1e-10

    def test_bell_pair_negativity_is_one(self):
        bell_c = qubit_dm([1, 0, 0, 0, 0, 0, 1, 0])
        assert bipartite_negativity(bell_c, 0) == pytest.approx(1.0, abs=1e-12)

    def test_ghz_cut_negativity_is_one(self):
        assert bipartite_negativity(GHZ, 0) == pytest.approx(1.0, abs=1e-12)
        assert negativity_by_jacobi(GHZ.mat, (2, 2, 2), [0])[0] == pytest.approx(1.0, abs=1e-9)

    def test_ghz_tripartite_negativity(self):
        assert tripartite_negativity(GHZ) == pytest.approx(1.0, abs=1e-12)

    def test_biseparable_state_has_zero_tripartite_negativity(self):
        bell_c = qubit_dm([1, 0, 0, 0, 0, 0, 1, 0])  # Bell on A,B times pure C
        assert tripartite_negativity(bell_c) == 0.0

    def test_w_state_tripartite_negativity(self):
        expected = 2.0 * math.sqrt(2.0) / 3.0
        assert tripartite_negativity(W_STATE) == pytest.approx(expected, abs=1e-9)
        assert tripartite_negativity_by_jacobi(W_STATE.mat, (2, 2, 2)) == pytest.approx(
            expected, abs=1e-8
        )

    def test_trace_precondition(self):
        bad = DensityMatrix((2, 2, 2), 2.0 * GHZ.mat)
        with pytest.raises(ValueError, match="negativity expects a normalised state, got trace"):
            bipartite_negativity(bad, 0)

    @pytest.mark.parametrize("party", [-1, 3, 1.0, np.float64(1), True], ids=repr)
    def test_party_out_of_range(self, party):
        # -1 would otherwise index the last party and 3 numpy's axes; a
        # float raised numpy's IndexError, and True was taken as party 1
        for function in (bipartite_negativity, partial_transpose):
            with pytest.raises(ValueError, match="out of range"):
                function(GHZ, party)

    @pytest.mark.parametrize("party", [np.int64(1)], ids=repr)
    def test_integer_party_types_agree(self, party):
        assert bipartite_negativity(W_STATE, party) == bipartite_negativity(W_STATE, 1)
        transposed = partial_transpose(W_STATE, 1).mat
        assert np.array_equal(partial_transpose(W_STATE, party).mat, transposed)

    def test_negativity_upper_bound(self):
        # N_{I-JK} <= d_I - 1 on random pure states
        rng = np.random.default_rng(23)
        for _ in range(20):
            vec = rng.normal(size=8) + 1j * rng.normal(size=8)
            rho = qubit_dm(vec)
            for party in range(3):
                assert bipartite_negativity(rho, party) <= 1.0 + 1e-12


class TestEntanglementOfParticles:
    def test_chi_is_exactly_zero(self):
        report = entanglement_of_particles(chi_state(), CHI_PARTITION)
        assert report.eps_t == 0.0

    def test_phi_alpha_half_pi_vanishes(self):
        for beta in (0.0, 0.4, math.pi / 4, 2.9):
            report = entanglement_of_particles(
                phi_state(math.pi / 2, beta), ADJACENT_PARTITION
            )
            assert report.eps_t <= 1e-12

    def test_phi_ghz_point_is_one(self):
        report = entanglement_of_particles(phi_state(0.0, math.pi / 4), ADJACENT_PARTITION)
        assert report.eps_t == pytest.approx(1.0, abs=1e-12)

    @pytest.mark.parametrize(
        "alpha,beta", [(0.3, 0.9), (1.1, 2.2), (2.4, 0.5), (0.0, 1.9)]
    )
    def test_phi_family_analytic_law(self, alpha, beta):
        """The adjacent-partition value is cos(alpha)^2 * |sin(2 beta)|.

        Only the single-occupancy sector survives; its two surviving
        kets form a weighted GHZ pair whose one-versus-rest negativity
        is |sin(2 beta)| on every cut, and the sector probability is
        cos(alpha)^2.
        """
        report = entanglement_of_particles(phi_state(alpha, beta), ADJACENT_PARTITION)
        expected = math.cos(alpha) ** 2 * abs(math.sin(2.0 * beta))
        assert report.eps_t == pytest.approx(expected, abs=1e-12)

    def test_report_lists_only_sectors_with_weight(self):
        # the adjacent partition has seven sectors for three fermions; a basis
        # ket has weight in one of them
        state = basis_ket(enumerate_basis(3, 6, FER), (1, 1, 1, 0, 0, 0))
        report = entanglement_of_particles(state, ADJACENT_PARTITION)
        assert [(rec.counts, rec.prob) for rec in report.sectors] == [((2, 1, 0), 1.0)]

    def test_report_total_matches_sector_sum(self):
        basis = enumerate_basis(3, 6, BOS)
        report = entanglement_of_particles(random_state(basis, 31), ADJACENT_PARTITION)
        total = sum(rec.prob * rec.tpn for rec in report.sectors)
        assert report.eps_t == pytest.approx(total, abs=1e-12)

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_sectors_with_an_empty_party_contribute_nothing(self, stats):
        basis = enumerate_basis(3, 6, stats)
        report = entanglement_of_particles(random_state(basis, 29), ADJACENT_PARTITION)
        for rec in report.sectors:
            if 0 in rec.counts:
                assert rec.tpn == 0.0

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_party_permutation_invariance(self, stats):
        basis = enumerate_basis(3, 6, stats)
        state = random_state(basis, 37)
        base = entanglement_of_particles(state, ADJACENT_PARTITION).eps_t
        for a, b, c in itertools.permutations(ADJACENT_PARTITION.parties):
            value = entanglement_of_particles(state, Partition(a, b, c)).eps_t
            assert value == pytest.approx(base, abs=1e-12)

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_within_party_mode_permutation_invariance(self, stats):
        basis = enumerate_basis(3, 6, stats)
        state = random_state(basis, 41)
        base = entanglement_of_particles(state, ALTERNATING_PARTITION).eps_t
        flipped = Partition((4, 1), (2, 5), (6, 3))
        assert entanglement_of_particles(state, flipped).eps_t == pytest.approx(
            base, abs=1e-12
        )

    def test_density_matrix_input(self):
        basis = enumerate_basis(3, 6, FER)
        state = random_state(basis, 43)
        pure = entanglement_of_particles(state, ADJACENT_PARTITION).eps_t
        dense = entanglement_of_particles(
            projector(state), ADJACENT_PARTITION, basis=basis
        ).eps_t
        assert dense == pytest.approx(pure, abs=1e-12)

    def test_mixture_of_sector_states(self):
        # classical mixture of the GHZ point and a single-term ket: the
        # totals combine linearly because both live in one sector
        basis = enumerate_basis(3, 6, FER)
        ghz = phi_state(0.0, math.pi / 4)
        term = phi_state(0.0, 0.0)
        mixed = DensityMatrix(
            (len(basis),),
            0.5 * np.outer(ghz.amp, ghz.amp.conj()) + 0.5 * np.outer(term.amp, term.amp.conj()),
        )
        report = entanglement_of_particles(mixed, ADJACENT_PARTITION, basis=basis)
        sector = sector_record(report, (1, 1, 1))
        assert sector is not None
        assert sector.prob == pytest.approx(1.0, abs=1e-12)
        assert 0.0 < report.eps_t < 1.0


    @pytest.mark.parametrize("dense", [False, True], ids=["state", "density"])
    def test_non_finite_input_is_rejected(self, dense):
        basis = enumerate_basis(3, 6, FER)
        amp = random_state(basis, 47).amp
        amp[0] = np.nan
        with pytest.raises(ValueError, match="finite"):
            if dense:
                mat = np.outer(amp, amp.conj())
                state = DensityMatrix((len(basis),), mat)
                entanglement_of_particles(state, ADJACENT_PARTITION, basis=basis)
            else:
                entanglement_of_particles(ManyBodyState(basis, amp), ADJACENT_PARTITION)

    @pytest.mark.parametrize("scale", [3.0, 0.5, 1.0 + 1e-9])
    @pytest.mark.parametrize("dense", [False, True], ids=["state", "density"])
    def test_unnormalised_input_is_rejected(self, dense, scale):
        # a trace-3 walk density matrix used to give three times eps_T
        stats = BOS
        basis = enumerate_basis(3, 6, stats)
        state = evolve_state(WALK_INIT, LatticeParams(6), 2.0, stats, basis=basis)
        if dense:
            bad = DensityMatrix((len(basis),), scale * projector(state).mat)
            kwargs = {"basis": basis}
        else:
            bad = ManyBodyState(basis, math.sqrt(scale) * state.amp)
            kwargs = {}
        with pytest.raises(ValueError, match="normalised"):
            entanglement_of_particles(bad, ADJACENT_PARTITION, **kwargs)

    @pytest.mark.parametrize("dense", [False, True], ids=["state", "density"])
    def test_rounding_of_the_norm_is_accepted(self, dense):
        stats = FER
        basis = enumerate_basis(3, 6, stats)
        state = random_state(basis, 71)
        scale = 1.0 + 1e-12
        if dense:
            near = DensityMatrix((len(basis),), scale * projector(state).mat)
            report = entanglement_of_particles(near, ADJACENT_PARTITION, basis=basis)
        else:
            near = ManyBodyState(basis, math.sqrt(scale) * state.amp)
            report = entanglement_of_particles(near, ADJACENT_PARTITION)
        exact = entanglement_of_particles(state, ADJACENT_PARTITION).eps_t
        assert report.eps_t == pytest.approx(exact, abs=1e-10)

    def test_report_records_are_immutable(self):
        report = entanglement_of_particles(phi_state(0.3, 0.7), ADJACENT_PARTITION)
        record = sector_record(report, (1, 1, 1))
        with pytest.raises(AttributeError):
            record.tpn = 0.0


@st.composite
def state_stacks(draw):
    """(seed, batch size, rank) of a stack of random pure (rank 1) or
    rank-2 mixed states."""
    seed = draw(st.integers(0, 2**32 - 1))
    return seed, draw(st.integers(1, 3)), draw(st.sampled_from([1, 2]))


def random_stack(basis, seed, batch, rank):
    """(batch, n) amplitudes for rank 1, else (batch, n, n) density matrices."""
    rng = np.random.default_rng(seed)
    vecs = rng.normal(size=(batch, rank, len(basis))) + 1j * rng.normal(
        size=(batch, rank, len(basis))
    )
    vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
    if rank == 1:
        return vecs[:, 0]
    weights = rng.uniform(0.1, 1.0, size=(batch, rank))
    weights /= weights.sum(axis=1, keepdims=True)
    return np.einsum("br,bri,brj->bij", weights, vecs, vecs.conj())


class TestEpsTKernel:
    """The batched eps_T kernel against the Jacobi oracle, per sector."""

    # rank is a parameter, not drawn, so pure and density input both reach
    # the block gather that project_sector and the kernel share
    @pytest.mark.parametrize("rank", [1, 2])
    @pytest.mark.parametrize("stats", [BOS, FER])
    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    @settings(max_examples=8, deadline=None)
    @given(seed=st.integers(0, 2**32 - 1), batch=st.integers(1, 3))
    def test_sector_negativities_match_jacobi_oracle(self, stats, partition, rank, seed, batch):
        basis = enumerate_basis(3, 6, stats)
        dec = SectorDecomposition(basis, partition)
        states = random_stack(basis, seed, batch, rank)
        probs, negs, eps_t = _eps_t_kernel(dec, states)
        dens = states if states.ndim == 3 else np.einsum("bi,bj->bij", states, states.conj())
        maps = sector_maps(basis, partition)
        assert list(maps) == list(dec.sectors)
        live = {}  # dims -> [(b, k, normalised block)], for one oracle call per dims
        for b, rho in enumerate(dens):
            for k, (dims, entries) in enumerate(maps.values()):
                mat = sector_matrix(entries, len(basis))
                block = mat @ rho @ mat.T
                prob = block.trace().real
                if prob <= PROBABILITY_FLOOR:
                    assert probs[b, k] == 0.0
                    assert not negs[b, k].any()
                    continue
                assert probs[b, k] == pytest.approx(prob, abs=1e-12)
                if min(dims) == 1:
                    assert not negs[b, k].any()
                    continue
                live.setdefault(dims, []).append((b, k, block / prob))
            tpn = np.cbrt(np.prod(negs[b, :, :3], axis=-1))
            assert np.abs(negs[b, :, 3] - tpn).max() <= 1e-12
            assert eps_t[b] == pytest.approx(np.sum(probs[b] * tpn), abs=1e-12)
        for dims, cases in live.items():
            cuts = negativity_by_jacobi(np.array([block for _, _, block in cases]), dims, range(3))
            for (b, k, _), expected in zip(cases, cuts):
                for party in range(3):
                    assert abs(negs[b, k, party] - expected[party]) <= 1e-9
        # a batch of B states equals B batches of one
        for b in range(len(states)):
            single = _eps_t_kernel(dec, states[b : b + 1])
            for batched, alone in zip((probs, negs, eps_t), single):
                assert np.abs(batched[b] - alone[0]).max() <= 1e-12

    @settings(max_examples=40, deadline=None)
    @given(
        stats=st.sampled_from([BOS, FER]),
        n_particles=st.sampled_from([3, 4]),
        modes=st.permutations(range(1, 7)),
        case=state_stacks(),
    )
    def test_kernel_is_bit_identical_to_per_sector_path(self, stats, n_particles, modes, case):
        # Pins the sector probabilities, which skip the signs, and the one
        # stacked eigensolve to the trace of the signed block and to the
        # per-cut negativity.  Each state goes in as a batch of one, as in
        # entanglement_of_particles: numpy may order the sums of a longer
        # batch differently, so bits agree only between equal batch sizes.
        # Four bosons have three live sectors with dims (3, 2, 2) and its
        # permutations, so the kernel is not tied to the (1, 1, 1) sector.
        # Pure (2, 2, 2) blocks take the closed form, not the eigensolve,
        # so there the kernel agrees with the per-sector path to roundoff.
        partition = Partition(modes[:2], modes[2:4], modes[4:])
        basis = enumerate_basis(n_particles, 6, stats)
        dec = _decomposition(basis, partition)
        for item in random_stack(basis, *case):
            probs, negs, _ = _eps_t_kernel(dec, item[None])
            if item.ndim == 1:
                state = ManyBodyState(basis, item)
            else:
                state = DensityMatrix((len(basis),), item)
            for k, (counts, sector) in enumerate(dec.sectors.items()):
                if item.ndim == 1:
                    signed = item[None, sector.index] * sector.sign
                    trace = np.sum(np.abs(signed) ** 2, axis=1)[0]
                else:
                    signs = np.outer(sector.sign, sector.sign)
                    signed = item[None, sector.index[:, None], sector.index] * signs
                    trace = np.trace(signed, axis1=1, axis2=2).real[0]
                sec = project_sector(state, partition, counts, basis=basis)
                assert np.float64(sec.prob).tobytes() == trace.tobytes()
                if sec.prob <= PROBABILITY_FLOOR:
                    assert probs[0, k] == 0.0 and not negs[0, k].any()
                    continue
                assert probs[0, k].tobytes() == np.float64(sec.prob).tobytes()
                if min(sector.dims) == 1:
                    assert not negs[0, k].any()
                    continue
                expected = [bipartite_negativity(sec.rho, party) for party in range(3)]
                expected.append(tripartite_negativity(sec.rho))
                if item.ndim == 1 and sector.dims == (2, 2, 2):
                    assert np.abs(negs[0, k] - expected).max() <= 1e-12
                    continue
                assert negs[0, k].tobytes() == np.array(expected).tobytes()

    @settings(max_examples=12, deadline=None)
    @given(
        stats=st.sampled_from([BOS, FER]),
        n_particles=st.sampled_from([3, 4]),
        modes=st.permutations(range(1, 7)),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(2, 40),
        rank=st.sampled_from([1, 2]),
    )
    def test_batch_equals_batches_of_one(self, stats, n_particles, modes, seed, batch, rank):
        # up to 40 states, so a live sector can span two eigensolve chunks
        partition = Partition(modes[:2], modes[2:4], modes[4:])
        basis = enumerate_basis(n_particles, 6, stats)
        dec = _decomposition(basis, partition)
        states = random_stack(basis, seed, batch, rank)
        batched = _eps_t_kernel(dec, states)
        for b in range(batch):
            for whole, alone in zip(batched, _eps_t_kernel(dec, states[b : b + 1])):
                assert np.abs(whole[b] - alone[0]).max() <= 1e-14

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_plan_arrays_are_read_only(self, stats, monkeypatch):
        dec = _decomposition(enumerate_basis(4, 6, stats), ALTERNATING_PARTITION)
        sectors = list(dec.sectors.values())
        groups = dec._probability_groups
        arrays = [arr for group in groups for arr in group]
        arrays += [a for _, sector in dec._live for a in (sector.index, sector.sign)]
        assert arrays
        for arr in arrays:
            with pytest.raises(ValueError, match="read-only"):
                arr.flat[0] = 0
        # one group per sector length; row j of a group's index is the
        # index of the sector in its column j
        assert len({index.shape[1] for _, index in groups}) == len(groups)
        for cols, index in groups:
            assert index.shape == (len(cols), len(sectors[cols[0]].index))
            for j, k in enumerate(cols.tolist()):
                assert index[j].tolist() == sectors[k].index.tolist()
        covered = np.concatenate([cols for cols, _ in groups])
        assert sorted(covered.tolist()) == list(range(len(dec.sectors)))
        live = [k for k, sec in enumerate(sectors) if min(sec.dims) > 1]
        assert [k for k, _ in dec._live] == live
        assert all(sector is sectors[k] for k, sector in dec._live)
        # the kernel takes its probabilities with one gather per group
        calls = []
        sector_probs = entanglement._sector_probs
        monkeypatch.setattr(
            entanglement, "_sector_probs", lambda *args: calls.append(1) or sector_probs(*args)
        )
        _eps_t_kernel(dec, random_stack(dec.basis, 3, 4, 1))
        assert len(calls) == len(groups) < len(sectors)

    @settings(max_examples=40, deadline=None)
    @given(
        stats=st.sampled_from([BOS, FER]),
        n_particles=st.integers(1, 4),
        modes=st.permutations(range(1, 7)),
        cuts=st.lists(st.integers(1, 5), min_size=2, max_size=2, unique=True).map(sorted),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 5),
        rank=st.sampled_from([1, 2]),
    )
    def test_kernel_probabilities_equal_project_sector(
        self, stats, n_particles, modes, cuts, seed, batch, rank
    ):
        # Every sector of any partition of six modes, 2 + 2 + 2 or uneven.
        # A state's kernel probability, alone or in a longer batch, has the
        # bytes of project_sector's.
        i, j = cuts
        partition = Partition(modes[:i], modes[i:j], modes[j:])
        basis = enumerate_basis(n_particles, 6, stats)
        dec = _decomposition(basis, partition)
        states = random_stack(basis, seed, batch, rank)
        batched = _eps_t_kernel(dec, states)[0]
        for b, item in enumerate(states):
            alone = _eps_t_kernel(dec, item[None])[0][0]
            if rank == 1:
                state = ManyBodyState(basis, item)
            else:
                state = DensityMatrix((len(basis),), item)
            for k, counts in enumerate(dec.sectors):
                prob = project_sector(state, partition, counts, basis=basis).prob
                if prob <= PROBABILITY_FLOOR:
                    assert alone[k] == 0.0
                else:
                    assert alone[k].tobytes() == np.float64(prob).tobytes()
            assert batched[b].tobytes() == alone.tobytes()

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_project_state_and_density_match_kernel(self, stats):
        basis = enumerate_basis(3, 6, stats)
        dec = _decomposition(basis, ADJACENT_PARTITION)
        state = random_state(basis, 61)
        dm = projector(state)
        for projected, stack in (
            (dec.project_state(state), state.amp[None]),
            (dec.project_density(dm), dm.mat[None]),
        ):
            probs = _eps_t_kernel(dec, stack)[0][0]
            assert [sec.counts for sec in projected] == list(dec.sectors)
            for sec, prob in zip(projected, probs):
                same = project_sector(dm, ADJACENT_PARTITION, sec.counts, basis=basis)
                assert sec.prob == pytest.approx(same.prob, abs=1e-14)
                if sec.prob <= PROBABILITY_FLOOR:
                    assert prob == 0.0
                    continue
                assert np.float64(sec.prob).tobytes() == prob.tobytes()
                assert np.abs(sec.rho.mat - same.rho.mat).max() <= 1e-14

    @pytest.mark.parametrize("rank", [1, 2])
    def test_eigensolve_chunks_match_single_states(self, monkeypatch, rank):
        # five live states: density blocks in chunks of 2, 2 and 1, pure
        # (2, 2, 2) blocks in one closed-form call
        monkeypatch.setattr(entanglement, "_EIGENSOLVE_CHUNK", 2)
        basis = enumerate_basis(3, 6, BOS)
        dec = _decomposition(basis, ALTERNATING_PARTITION)
        states = random_stack(basis, 11, 5, rank)
        probs, negs, eps_t = _eps_t_kernel(dec, states)
        assert negs[:, list(dec.sectors).index((1, 1, 1)), 3].all()
        for b in range(len(states)):
            single = _eps_t_kernel(dec, states[b : b + 1])
            for batched, alone in zip((probs, negs, eps_t), single):
                assert np.abs(batched[b] - alone[0]).max() <= 1e-12

    @pytest.mark.parametrize(
        "n_particles, rank, calls", [(3, 1, 0), (3, 2, 2), (4, 1, 3 * 2), (4, 2, 3 * 2)]
    )
    def test_eigensolves_per_live_sector(self, monkeypatch, n_particles, rank, calls):
        # 40 states, chunks of 32 and 8: pure (2, 2, 2) blocks make no
        # eigensolve, density blocks and four bosons' (3, 2, 2) blocks one
        # per chunk of each live sector (one for three particles, three
        # for four)
        eigvalsh = np.linalg.eigvalsh
        seen = []
        monkeypatch.setattr(np.linalg, "eigvalsh", lambda a: seen.append(a.shape) or eigvalsh(a))
        basis = enumerate_basis(n_particles, 6, BOS)
        dec = _decomposition(basis, ALTERNATING_PARTITION)
        _eps_t_kernel(dec, random_stack(basis, 5, 40, rank))
        assert len(seen) == calls

    @pytest.mark.parametrize("stats", [BOS, FER])
    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    def test_walk_scan_rows_match_per_state_reports(self, stats, partition):
        # bit for bit on every row of the default walk
        columns = dict(p111="prob", n_a_bc="n_a_bc", n_b_ac="n_b_ac", n_c_ab="n_c_ab", tpn="tpn")
        scan = walk_scan(stats, partition)
        params = LatticeParams(len(WALK_INIT))
        rows = []
        for tau in scan.taus:
            report = entanglement_of_particles(evolve_state(WALK_INIT, params, tau, stats), partition)
            record = sector_record(report, (1, 1, 1))  # None below the probability floor
            rows.append([getattr(record, field, 0.0) for field in columns.values()] + [report.eps_t])
        for name, column in zip([*columns, "eps_t"], np.array(rows).T):
            assert getattr(scan, name).tobytes() == column.tobytes(), name

    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    def test_phi_scan_points_match_per_state_measures(self, partition):
        # bit for bit on every point of a 21 x 21 grid
        scan = phi_scan(21, 21, partition)
        eps_t, eps_g = np.empty((21, 21)), np.empty((21, 21))
        for (i, alpha), (j, beta) in itertools.product(enumerate(scan.alphas), enumerate(scan.betas)):
            state = phi_state(alpha, beta)
            eps_t[i, j] = entanglement_of_particles(state, partition).eps_t
            eps_g[i, j] = geometric_measure(state, partition)
        assert scan.eps_t.tobytes() == eps_t.tobytes()
        assert scan.eps_g.tobytes() == eps_g.tobytes()


def qubit_sector_stack(stats, partition, blocks):
    """(P, n) amplitude stack whose (1, 1, 1) sector holds the (P, 8) local
    ``blocks`` (in the sector's signed local basis) and nothing else, with
    the decomposition and that sector's column."""
    basis = enumerate_basis(3, 6, stats)
    dec = _decomposition(basis, partition)
    sector = dec.sectors[(1, 1, 1)]
    assert sector.dims == (2, 2, 2)
    blocks = np.asarray(blocks, dtype=complex)
    states = np.zeros((len(blocks), len(basis)), dtype=complex)
    states[:, sector.index] = blocks / np.linalg.norm(blocks, axis=1, keepdims=True) * sector.sign
    return dec, states, list(dec.sectors).index((1, 1, 1))


class TestQubitClosedForm:
    """Pure (2, 2, 2) blocks: the kernel's closed form 2 sqrt(det rho_X)
    against the eigen path and the Jacobi oracle."""

    @settings(max_examples=20, deadline=None)
    @given(
        stats=st.sampled_from([BOS, FER]),
        modes=st.permutations(range(1, 7)),
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 3),
    )
    def test_matches_eigen_path_and_jacobi_oracle(self, stats, modes, seed, batch):
        rng = np.random.default_rng(seed)
        blocks = rng.normal(size=(batch, 8)) + 1j * rng.normal(size=(batch, 8))
        partition = Partition(modes[:2], modes[2:4], modes[4:])
        dec, states, k = qubit_sector_stack(stats, partition, blocks)
        probs, negs, eps_t = _eps_t_kernel(dec, states)
        assert probs[:, k] == pytest.approx(1.0, abs=1e-14)
        normed = blocks / np.linalg.norm(blocks, axis=1, keepdims=True)
        rho = normed[:, :, None] * normed[:, None, :].conj()
        for cuts in (_negativity(rho, (2, 2, 2)), negativity_by_jacobi(rho, (2, 2, 2), range(3))):
            assert np.abs(negs[:, k, :3] - cuts).max() <= 1e-12
            assert np.abs(negs[:, k, 3] - np.cbrt(cuts.prod(axis=-1))).max() <= 1e-12
        assert np.abs(eps_t - probs[:, k] * negs[:, k, 3]).max() <= 1e-15

    @pytest.mark.parametrize("stats", [BOS, FER])
    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    @pytest.mark.parametrize(
        "block, cuts",
        [
            # (|0> + |1>)^3 / sqrt 8: every minor cancels exactly
            ([1] * 8, [0.0, 0.0, 0.0]),
            # a Bell pair of A and B times |0> on C: C's minors are all zero
            ([1, 0, 0, 0, 0, 0, 1, 0], [1.0, 1.0, 0.0]),
            ([1, 0, 0, 0, 0, 0, 0, 1], [1.0, 1.0, 1.0]),  # GHZ
            ([0, 1, 1, 0, 1, 0, 0, 0], [2 * math.sqrt(2) / 3] * 3),  # W
        ],
        ids=["product", "biseparable", "ghz", "w"],
    )
    def test_known_blocks(self, stats, partition, block, cuts):
        dec, states, k = qubit_sector_stack(stats, partition, [block])
        _, negs, eps_t = _eps_t_kernel(dec, states)
        exact = [i for i, cut in enumerate(cuts) if cut == 0.0]
        assert negs[0, k, exact].tolist() == [0.0] * len(exact)
        assert negs[0, k, :3] == pytest.approx(cuts, abs=1e-15)
        tpn = np.cbrt(np.prod(cuts))
        assert negs[0, k, 3] == pytest.approx(tpn, abs=1e-15)
        assert eps_t[0] == pytest.approx(tpn, abs=1e-15)
        if exact:
            assert negs[0, k, 3] == 0.0 and eps_t[0] == 0.0


class TestDecompositionCache:
    """One decomposition per (basis, partition), shared by every caller."""

    @settings(max_examples=20, deadline=None)
    @given(
        stats=st.sampled_from([BOS, FER]),
        modes=st.permutations(range(1, 7)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_cold_and_warm_cache_give_equal_reports(self, stats, modes, seed):
        partition = Partition(modes[:2], modes[2:4], modes[4:])
        basis = enumerate_basis(3, 6, stats)
        rho = DensityMatrix((len(basis),), random_stack(basis, seed, 1, 2)[0])
        _decomposition.cache_clear()
        cold = entanglement_of_particles(rho, partition, basis=basis)
        warm = entanglement_of_particles(rho, partition, basis=FockBasis(3, 6, stats))
        info = _decomposition.cache_info()
        assert (info.misses, info.hits) == (1, 1)
        assert warm == cold

    def test_equal_keys_share_one_decomposition(self):
        first = _decomposition(enumerate_basis(3, 6, FER), Partition.parse("1,4|2,5|3,6"))
        second = _decomposition(FockBasis(3, 6, FER), Partition((1, 4), (2, 5), (3, 6)))
        assert first is second
        assert _decomposition(enumerate_basis(3, 6, BOS), ALTERNATING_PARTITION) is not first

    def test_production_callers_share_the_cached_decomposition(self):
        _decomposition.cache_clear()
        walk_scan(FER, ADJACENT_PARTITION, tau_max=1.0, steps=2)
        phi_scan(2, 2)
        state = phi_state(0.3, 0.7)
        entanglement_of_particles(state, ADJACENT_PARTITION)
        project_sector(state, ADJACENT_PARTITION, (1, 1, 1))
        info = _decomposition.cache_info()
        assert (info.misses, info.hits) == (1, 3)

    def test_shared_sectors_are_read_only(self):
        for stats in (BOS, FER):
            dec = _decomposition(enumerate_basis(3, 6, stats), ALTERNATING_PARTITION)
            for sector in dec.sectors.values():
                with pytest.raises(ValueError, match="read-only"):
                    sector.index[0] = 0
                with pytest.raises(ValueError, match="read-only"):
                    sector.sign[0] = -1.0
                with pytest.raises(ValueError, match="read-only"):
                    sector.signs[0, 0] = -1.0
                assert np.array_equal(sector.signs, np.outer(sector.sign, sector.sign))
            negative = any((sector.signs < 0).any() for sector in dec.sectors.values())
            assert negative == stats.exclusive


def marginal_purity_tensor_norm(psi: np.ndarray, dim: int) -> float:
    """Independent closed form for the triple generator sum on pure states.

    With generators normalized to Tr(g_a g_b) = d delta_ab the
    completeness relation gives sum_i g_i (x) g_i = d (SWAP - 1/d), so
    the full triple sum collapses to an alternating sum of marginal
    purities:

        sum |T_ijk|^2 = d^3 * sum_{S subset of parties}
                        (-1/d)^(3-|S|) Tr[rho_S^2].
    """
    rho = np.einsum("abc,xyz->abcxyz", psi, psi.conj())
    total = 0.0
    parties = (0, 1, 2)
    for size in range(4):
        for kept in itertools.combinations(parties, size):
            reduced = rho
            # trace out parties not kept, highest axis first
            for party in sorted(set(parties) - set(kept), reverse=True):
                reduced = np.trace(reduced, axis1=party, axis2=party + reduced.ndim // 2)
            if kept:
                d_kept = dim ** len(kept)
                mat = reduced.reshape(d_kept, d_kept)
                purity = float(np.trace(mat @ mat).real)
            else:
                purity = float(np.abs(reduced) ** 2) if reduced.ndim == 0 else 1.0
            total += (-1.0 / dim) ** (3 - size) * purity
    return dim**3 * total


@st.composite
def complex_phi_states(draw):
    """Normalised states on ``phi_basis()`` with amplitudes of any phase."""
    basis = phi_basis()
    elements = st.complex_numbers(max_magnitude=1.0, allow_nan=False, allow_infinity=False)
    amp = draw(arrays(np.complex128, len(basis), elements=elements))
    norm = np.linalg.norm(amp)
    assume(norm > 0.1)
    return ManyBodyState(basis, amp / norm)


class TestGeometricMeasure:
    def test_chi_value(self):
        expected = math.sqrt(33.0) / 3.0 - 1.0
        assert geometric_measure(chi_state(), CHI_PARTITION) == pytest.approx(
            expected, abs=1e-9
        )

    def test_single_mode_product_ket_vanishes(self):
        basis = enumerate_basis(1, 3, BOS)
        ket = basis_ket(basis, (1, 0, 0))
        assert abs(geometric_measure(ket, CHI_PARTITION)) <= 1e-12

    def test_two_mode_product_ket_vanishes(self):
        basis = enumerate_basis(3, 6, FER)
        ket = basis_ket(basis, (0, 1, 0, 1, 0, 1))
        assert abs(geometric_measure(ket, ADJACENT_PARTITION)) <= 1e-12

    def test_ghz_point_value(self):
        # hand-derived via the marginal-purity identity: all six nontrivial
        # marginals of the two-ket point have purity 1/2, giving a triple
        # sum of 45 and a norm sqrt(8 * 45) = 6 sqrt(10)
        value = geometric_measure(phi_state(0.0, math.pi / 4), ADJACENT_PARTITION)
        expected = 6.0 * math.sqrt(10.0) - 6.0 * math.sqrt(6.0)
        assert value == pytest.approx(expected, abs=1e-10)

    @pytest.mark.parametrize("seed", range(4))
    def test_matches_marginal_purity_identity(self, seed):
        basis = enumerate_basis(3, 6, FER)
        state = random_state(basis, 100 + seed)
        psi = mode_qubit_tensor(basis, state.amp, ADJACENT_PARTITION)
        direct = float(tensor_norm_squared(psi, su_generators(4)))
        assert direct == pytest.approx(marginal_purity_tensor_norm(psi, 4), abs=1e-10)

    def test_su_generator_basis(self):
        for dim in (2, 4):
            gens = su_generators(dim)
            assert gens.shape == (dim * dim - 1, dim, dim)
            for g in gens:
                assert abs(np.trace(g)) <= 1e-14
                assert np.abs(g - g.conj().T).max() <= 1e-14
            gram = np.einsum("aij,bji->ab", gens, gens)
            assert np.abs(gram - dim * np.eye(len(gens))).max() <= 1e-12

    def test_pauli_case_is_standard(self):
        gens = su_generators(2)
        pauli_x = np.array([[0, 1], [1, 0]], dtype=complex)
        assert any(np.abs(g - pauli_x).max() <= 1e-15 for g in gens)

    def test_batched_equals_single(self):
        rng = np.random.default_rng(55)
        gens = su_generators(4)
        psis = rng.normal(size=(6, 4, 4, 4)) + 1j * rng.normal(size=(6, 4, 4, 4))
        psis /= np.sqrt(np.sum(np.abs(psis) ** 2, axis=(1, 2, 3)))[:, None, None, None]
        batched = tensor_norm_squared(psis, gens)
        singles = np.array([tensor_norm_squared(p, gens) for p in psis])
        assert np.abs(batched - singles).max() <= 1e-10

    @pytest.mark.parametrize(
        "n_modes, text",
        [(6, "1|2,3|4,5,6"), (6, "1,2,3|4|5,6"), (9, "1,2,3|4,5,6|7,8,9"), (4, "1,2|3|4")],
    )
    def test_rejects_unequal_or_large_parties(self, n_modes, text):
        basis = enumerate_basis(3, n_modes, FER)
        state = basis_ket(basis, (1, 1, 1) + (0,) * (n_modes - 3))
        with pytest.raises(ValueError, match="equal party sizes of 1 or 2 modes"):
            geometric_measure(state, Partition.parse(text))

    def test_rejects_multiple_occupancy(self):
        basis = enumerate_basis(2, 3, BOS)
        state = basis_ket(basis, (2, 0, 0))
        with pytest.raises(ValueError, match="occupations of at most one"):
            geometric_measure(state, CHI_PARTITION)

    @pytest.mark.parametrize(
        "make, partition, scale",
        [
            (chi_state, CHI_PARTITION, 0.0),
            (chi_state, CHI_PARTITION, 2.0),
            (lambda: phi_state(0.3, 0.4), ADJACENT_PARTITION, 0.5),
            (chi_state, CHI_PARTITION, 1.0 + 1e-9),
        ],
        ids=["zero", "chi-times-2", "phi-times-half", "chi-near-one"],
    )
    def test_unnormalised_state_is_rejected(self, make, partition, scale):
        # used to return -1.0, 6.659 and -10.25 for the first three
        state = make()
        bad = ManyBodyState(state.basis, scale * state.amp)
        message = "eps_G expects a normalised state, got squared norm "
        with pytest.raises(ValueError, match=message) as err:
            geometric_measure(bad, partition)
        assert float(str(err.value)[len(message):]) == pytest.approx(scale**2, abs=1e-12)

    def test_rounding_of_the_norm_is_accepted(self):
        state = phi_state(0.3, 0.4)
        near = ManyBodyState(state.basis, math.sqrt(1.0 + 1e-12) * state.amp)
        value = geometric_measure(near, ADJACENT_PARTITION)
        assert value == pytest.approx(geometric_measure(state, ADJACENT_PARTITION), abs=1e-9)

    def test_partition_and_occupancy_are_checked_before_the_norm(self):
        basis = enumerate_basis(3, 6, FER)
        state = ManyBodyState(basis, 3.0 * basis_ket(basis, (1, 1, 1, 0, 0, 0)).amp)
        with pytest.raises(ValueError, match="equal party sizes of 1 or 2 modes"):
            geometric_measure(state, Partition.parse("1|2,3|4,5,6"))
        with pytest.raises(ValueError, match="does not cover"):
            geometric_measure(state, Partition.parse("1,2|3,4|5,7"))
        boson_basis = enumerate_basis(2, 3, BOS)
        boson = ManyBodyState(boson_basis, 3.0 * basis_ket(boson_basis, (2, 0, 0)).amp)
        with pytest.raises(ValueError, match="occupations of at most one"):
            geometric_measure(boson, CHI_PARTITION)

    def test_density_matrix_is_rejected(self):
        # used to raise AttributeError from mode_qubit_tensor
        rho = projector(chi_state())
        with pytest.raises(ValueError, match="pure states"):
            geometric_measure(rho, CHI_PARTITION)

    @settings(max_examples=40, deadline=None)
    @given(complex_phi_states(), st.sampled_from([ADJACENT_PARTITION, ALTERNATING_PARTITION]))
    def test_complex_states_match_generator_contraction(self, state, partition):
        # every production input is real, so only complex amplitudes show a
        # marginal that loses its complex conjugate on the public path
        psi = mode_qubit_tensor(state.basis, state.amp, partition)
        reference = eps_g_from_norm(tensor_norm_squared(psi, su_generators(4)), 4)
        assert abs(geometric_measure(state, partition) - reference) <= 1e-10

    def test_singly_occupied_boson_ket_is_separable(self):
        # kets with a doubly occupied mode carry no amplitude, so the
        # mapping accepts the state
        basis = enumerate_basis(2, 3, BOS)
        state = basis_ket(basis, (1, 1, 0))
        assert geometric_measure(state, CHI_PARTITION) == 0.0


class TestQubitIndex:
    """One cached party layout maps Fock kets onto the occupation-qubit tensor."""

    @settings(max_examples=30, deadline=None)
    @given(
        stats=st.sampled_from([BOS, FER]),
        n_particles=st.integers(0, 4),
        modes=st.permutations(range(1, 7)),
        seed=st.integers(0, 2**32 - 1),
    )
    def test_tensor_matches_ket_by_ket_oracle(self, stats, n_particles, modes, seed):
        partition = Partition(modes[:2], modes[2:4], modes[4:])
        basis = enumerate_basis(n_particles, 6, stats)
        amp = random_state(basis, seed).amp
        # no amplitude on a doubly occupied mode, so bosons map too
        amp[[max(occ) > 1 for occ in basis.states]] = 0.0
        state = ManyBodyState(basis, amp)
        expected = occupation_qubit_tensor(state, partition.parties)
        assert np.array_equal(mode_qubit_tensor(basis, state.amp, partition), expected)

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_stack_matches_single_states(self, stats):
        basis = enumerate_basis(3, 6, stats)
        double = np.array([max(occ) > 1 for occ in basis.states])
        amps = np.stack([random_state(basis, seed).amp for seed in range(5)])
        amps[:, double] = 0.0
        stack = mode_qubit_tensor(basis, amps, ALTERNATING_PARTITION)
        assert stack.shape == (5, 4, 4, 4)
        for amp, psi in zip(amps, stack):
            assert np.array_equal(psi, mode_qubit_tensor(basis, amp, ALTERNATING_PARTITION))

    @pytest.mark.parametrize("row", [0, 3])
    def test_stack_rejects_double_occupancy_in_any_row(self, row):
        basis = enumerate_basis(3, 6, BOS)
        amps = np.zeros((4, len(basis)), dtype=complex)
        amps[:, basis.index((1, 1, 1, 0, 0, 0))] = 1.0
        amps[row, basis.index((2, 0, 1, 0, 0, 0))] = 1e-3
        with pytest.raises(ValueError, match="occupations of at most one"):
            mode_qubit_tensor(basis, amps, ADJACENT_PARTITION)

    def test_layout_is_cached_and_read_only(self):
        first = _party_layout(enumerate_basis(3, 6, FER), Partition.parse("1,2|3,4|5,6"))
        assert _party_layout(FockBasis(3, 6, FER), ADJACENT_PARTITION) is first
        for table in first:
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0

    def test_mode_qubit_tensor_rejects_three_mode_parties(self):
        basis = enumerate_basis(3, 9, FER)
        state = basis_ket(basis, (1, 1, 1) + (0,) * 6)
        with pytest.raises(ValueError, match="equal party sizes of 1 or 2 modes"):
            mode_qubit_tensor(basis, state.amp, Partition.parse("1,2,3|4,5,6|7,8,9"))

    def test_partition_must_cover_the_basis(self):
        state = chi_state()
        with pytest.raises(ValueError, match="does not cover"):
            geometric_measure(state, Partition.parse("1|2|4"))


def haar_unitary(rng, dim: int) -> np.ndarray:
    """A Haar-random unitary: the Q of a complex Gaussian matrix, with the
    phases of R's diagonal moved into it."""
    raw = rng.normal(size=(dim, dim)) + 1j * rng.normal(size=(dim, dim))
    q, r = np.linalg.qr(raw)
    return q * (np.diag(r) / np.abs(np.diag(r)))


@st.composite
def party_local_walks(draw):
    """(stats, initial occupation of 1-4 particles, partition) on six
    modes: three parties of 1-3 modes each, in any mode order."""
    stats = draw(st.sampled_from([BOS, FER]))
    sites = draw(st.lists(st.integers(1, 6), min_size=1, max_size=4, unique=stats.exclusive))
    sizes = draw(st.sampled_from([(2, 2, 2)] + list(itertools.permutations((1, 2, 3)))))
    modes = draw(st.permutations(range(1, 7)))
    a, b = sizes[0], sizes[0] + sizes[1]
    return stats, tuple(map(sites.count, range(1, 7))), Partition(modes[:a], modes[a:b], modes[b:])


class TestPartyLocalInvariance:
    """A unitary on each party's modes is a local unitary of the three
    parties, so it changes no measure: both read the fermionic ket in the
    same party-blocked convention (``_party_layout``)."""

    @settings(max_examples=60, deadline=None)
    @example(case=(FER, WALK_INIT, ALTERNATING_PARTITION), tau=5.0, seed=0)
    @given(case=party_local_walks(), tau=st.floats(0.0, 20.0), seed=st.integers(0, 2**32 - 1))
    def test_party_mode_unitaries_change_no_measure(self, case, tau, seed):
        stats, init, partition = case
        rng = np.random.default_rng(seed)
        local = np.zeros((6, 6), dtype=complex)
        for party in partition.parties:
            modes = np.array(party) - 1
            local[np.ix_(modes, modes)] = haar_unitary(rng, len(party))
        prop = single_particle_propagator(LatticeParams(6), tau)
        basis = enumerate_basis(sum(init), 6, stats)
        # the walk state and the state of the propagator's columns rotated
        # within each party
        amps = _monomial_amplitudes(basis, init, np.stack([prop, prop @ local]))
        probs, negs, _ = _eps_t_kernel(_decomposition(basis, partition), amps)
        assert np.abs(probs[1] - probs[0]).max() <= 1e-10
        assert np.abs(negs[1, :, :3] - negs[0, :, :3]).max() <= 1e-10
        # The TPN is compared through its cube, the product of the cuts: the
        # cube root lifts the ~1e-16 roundoff that sum |lambda| - 1 leaves on
        # a near-zero cut to ~1e-5 at tau near 1e-5 (ROADMAP item 1), on C
        # and on C U alike.  eps_T sums the probabilities times the TPN.
        assert np.abs(negs[1, :, 3] ** 3 - negs[0, :, 3] ** 3).max() <= 1e-10
        if stats.exclusive and {len(p) for p in partition.parties} == {2}:
            eps_g = _geometric_kernel(mode_qubit_tensor(basis, amps, partition))
            assert abs(eps_g[1] - eps_g[0]) <= 1e-12


# (prefactor inside the root, separable norm) of the geometric measure for
# one-mode (d=2) and two-mode (d=4) parties, written out as literals
GEOMETRIC_CONSTANTS = {2: (1.0, 1.0), 4: (8.0, 6.0 * math.sqrt(6.0))}


def eps_g_from_norm(total, dim: int):
    prefactor, sep_norm = GEOMETRIC_CONSTANTS[dim]
    return np.sqrt(prefactor * total) - sep_norm


@st.composite
def qubit_tensors(draw):
    """Unnormalised complex (d, d, d) tensors with batch shape () or (k,)."""
    dim = draw(st.sampled_from([2, 4]))
    batch = draw(st.sampled_from([(), (1,), (3,)]))
    elements = st.complex_numbers(
        max_magnitude=2.0, allow_nan=False, allow_infinity=False
    )
    return dim, draw(arrays(np.complex128, batch + (dim, dim, dim), elements=elements))


class TestGeometricKernel:
    """The marginal-purity kernel against the generator contraction."""

    @settings(max_examples=40, deadline=None)
    @given(qubit_tensors())
    def test_matches_generator_contraction(self, case):
        dim, psis = case
        kernel = _geometric_kernel(psis)
        assert kernel.shape == psis.shape[:-3]
        reference = eps_g_from_norm(tensor_norm_squared(psis, su_generators(dim)), dim)
        assert np.abs(kernel - reference).max() <= 1e-10

    @settings(max_examples=40, deadline=None)
    @given(qubit_tensors())
    def test_matches_marginal_purity_oracle(self, case):
        dim, psis = case
        kernel = _geometric_kernel(psis).reshape(-1)
        singles = psis.reshape(-1, dim, dim, dim)
        for value, psi in zip(kernel, singles):
            reference = eps_g_from_norm(marginal_purity_tensor_norm(psi, dim), dim)
            assert abs(value - reference) <= 1e-10

    @pytest.mark.parametrize("dim", [2, 4])
    def test_constant_formulas(self, dim):
        prefactor, sep_norm = _tensor_norm_constants(dim)
        expected_prefactor, expected_sep = GEOMETRIC_CONSTANTS[dim]
        assert prefactor == pytest.approx(expected_prefactor, abs=1e-14)
        assert sep_norm == pytest.approx(expected_sep, abs=1e-14)
