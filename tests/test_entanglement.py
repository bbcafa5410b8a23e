import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from oracles import (
    bubble_sort_parity,
    jacobi_eigenvalues,
    negativity_by_jacobi,
    sector_maps,
    sector_matrix,
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
    SectorDecomposition,
    Statistics,
    bipartite_negativity,
    chi_state,
    entanglement_of_particles,
    enumerate_basis,
    evolve_state,
    geometric_measure,
    hermitian_eigenvalues,
    mode_qubit_tensor,
    partial_transpose,
    phi_state,
    project_sector,
    su_generators,
    tripartite_negativity,
    walk_scan,
)
from triqw.entanglement import (
    PROBABILITY_FLOOR,
    _eps_t_kernel,
    _geometric_kernel,
    _tensor_norm_constants,
    tensor_norm_squared,
)

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

    def test_counts_must_sum_to_particle_number(self):
        with pytest.raises(ValueError):
            project_sector(chi_state(), CHI_PARTITION, (1, 1, 0))

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
        basis = enumerate_basis(n_particles, partition.n_modes, stats)
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
            DensityMatrix.from_state(state), ADJACENT_PARTITION, (1, 1, 1), basis=basis
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
        assert negativity_by_jacobi(GHZ.mat, (2, 2, 2), 0) == pytest.approx(1.0, abs=1e-9)

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
        with pytest.raises(ValueError):
            bipartite_negativity(bad, 0)

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
            DensityMatrix.from_state(state), ADJACENT_PARTITION, basis=basis
        ).eps_t
        assert dense == pytest.approx(pure, abs=1e-12)

    def test_mixture_of_sector_states(self):
        # classical mixture of the GHZ point and a single-term ket: the
        # totals combine linearly because both live in one sector
        basis = enumerate_basis(3, 6, FER)
        ghz = phi_state(0.0, math.pi / 4, basis)
        term = phi_state(0.0, 0.0, basis)
        mixed = DensityMatrix(
            (len(basis),),
            0.5 * np.outer(ghz.amp, ghz.amp.conj()) + 0.5 * np.outer(term.amp, term.amp.conj()),
        )
        report = entanglement_of_particles(mixed, ADJACENT_PARTITION, basis=basis)
        sector = report.sector((1, 1, 1))
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

    @pytest.mark.parametrize("stats", [BOS, FER])
    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    @settings(max_examples=8, deadline=None)
    @given(case=state_stacks())
    def test_sector_negativities_match_jacobi_oracle(self, stats, partition, case):
        basis = enumerate_basis(3, 6, stats)
        dec = SectorDecomposition(basis, partition)
        states = random_stack(basis, *case)
        probs, negs, eps_t = _eps_t_kernel(dec, states)
        dens = states if states.ndim == 3 else np.einsum("bi,bj->bij", states, states.conj())
        maps = sector_maps(basis, partition)
        assert list(maps) == list(dec.sectors)
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
                for party in range(3):
                    expected = negativity_by_jacobi(block / prob, dims, party)
                    assert abs(negs[b, k, party] - expected) <= 1e-9
            tpn = np.cbrt(np.prod(negs[b, :, :3], axis=-1))
            assert np.abs(negs[b, :, 3] - tpn).max() <= 1e-12
            assert eps_t[b] == pytest.approx(np.sum(probs[b] * tpn), abs=1e-12)
        # a batch of B states equals B batches of one
        for b in range(len(states)):
            single = _eps_t_kernel(dec, states[b : b + 1])
            for batched, alone in zip((probs, negs, eps_t), single):
                assert np.abs(batched[b] - alone[0]).max() <= 1e-12

    @pytest.mark.parametrize("stats", [BOS, FER])
    @pytest.mark.parametrize("partition", [ADJACENT_PARTITION, ALTERNATING_PARTITION])
    def test_walk_scan_rows_match_per_state_reports(self, stats, partition):
        scan = walk_scan(stats, partition, tau_max=6.0, steps=5)
        params = LatticeParams(len(WALK_INIT))
        for k, tau in enumerate(scan.taus):
            state = evolve_state(WALK_INIT, params, tau, stats)
            report = entanglement_of_particles(state, partition)
            rec = report.sector((1, 1, 1))
            expected = (0.0,) * 5 if rec is None else (
                rec.prob, rec.n_a_bc, rec.n_b_ac, rec.n_c_ab, rec.tpn
            )
            row = (scan.p111, scan.n_a_bc, scan.n_b_ac, scan.n_c_ab, scan.tpn)
            assert np.abs(np.array([col[k] for col in row]) - expected).max() <= 1e-12
            assert scan.eps_t[k] == pytest.approx(report.eps_t, abs=1e-12)


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


class TestGeometricMeasure:
    def test_chi_value(self):
        expected = math.sqrt(33.0) / 3.0 - 1.0
        assert geometric_measure(chi_state(), CHI_PARTITION) == pytest.approx(
            expected, abs=1e-9
        )

    def test_single_mode_product_ket_vanishes(self):
        basis = enumerate_basis(1, 3, BOS)
        ket = ManyBodyState.basis_ket(basis, (1, 0, 0))
        assert abs(geometric_measure(ket, CHI_PARTITION)) <= 1e-12

    def test_two_mode_product_ket_vanishes(self):
        basis = enumerate_basis(3, 6, FER)
        ket = ManyBodyState.basis_ket(basis, (0, 1, 0, 1, 0, 1))
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
        psi = mode_qubit_tensor(state, ADJACENT_PARTITION)
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

    def test_rejects_unequal_or_large_parties(self):
        basis = enumerate_basis(3, 6, FER)
        state = ManyBodyState.basis_ket(basis, (1, 1, 1, 0, 0, 0))
        with pytest.raises(ValueError):
            geometric_measure(state, Partition((1,), (2, 3), (4, 5, 6)))
        with pytest.raises(ValueError):
            geometric_measure(state, Partition((1, 2, 3), (4,), (5, 6)))

    def test_rejects_multiple_occupancy(self):
        basis = enumerate_basis(2, 3, BOS)
        state = ManyBodyState.basis_ket(basis, (2, 0, 0))
        with pytest.raises(ValueError):
            geometric_measure(state, CHI_PARTITION)


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
