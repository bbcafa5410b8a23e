import numpy as np
import pytest

from oracles import expectation_oracle
from triqw import (
    LatticeParams,
    Statistics,
    chi_state,
    enumerate_basis,
    evolve_state,
    interparticle_distance,
    single_particle_density,
    single_particle_propagator,
    snapshot,
    two_particle_correlation,
)

BOS = Statistics.BOSONS
FER = Statistics.FERMIONS
INIT = (1, 1, 1, 0, 0, 0)
PARAMS = LatticeParams(6)


def prop(tau):
    return single_particle_propagator(PARAMS, tau)


class TestDensity:
    def test_zero_time_returns_initial_occupations(self):
        rho = single_particle_density(prop(0.0), INIT)
        assert np.abs(rho - np.array(INIT, dtype=float)).max() <= 1e-12

    @pytest.mark.parametrize("tau", [0.9, 4.2, 8.7, 17.3])
    def test_total_density_is_particle_number(self, tau):
        assert single_particle_density(prop(tau), INIT).sum() == pytest.approx(
            3.0, abs=1e-10
        )

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_matches_state_expectation(self, stats):
        state = evolve_state(INIT, PARAMS, 8.7, stats)
        rho = single_particle_density(prop(8.7), INIT)
        for site in range(1, 7):
            direct = expectation_oracle(state, (site,), (site,))
            assert rho[site - 1] == pytest.approx(direct, abs=1e-10)

    def test_shape_mismatch_rejected(self):
        with pytest.raises(ValueError):
            single_particle_density(prop(1.0), (1, 1, 1))


class TestPairCorrelation:
    def test_zero_time_fermions(self):
        gamma = two_particle_correlation(prop(0.0), INIT, FER)
        n = np.array(INIT, dtype=float)
        expected = np.outer(n, n) - np.diag(n * n)
        assert np.abs(gamma - expected).max() <= 1e-12

    def test_zero_time_bosons_match_fermions_for_single_occupancy(self):
        bos = two_particle_correlation(prop(0.0), INIT, BOS)
        fer = two_particle_correlation(prop(0.0), INIT, FER)
        assert np.abs(bos - fer).max() <= 1e-12

    @pytest.mark.parametrize("stats", [BOS, FER])
    @pytest.mark.parametrize("tau", [0.7, 8.7])
    def test_pair_count_sum_rule(self, stats, tau):
        gamma = two_particle_correlation(prop(tau), INIT, stats)
        assert gamma.sum() == pytest.approx(6.0, abs=1e-10)  # N (N - 1)

    @pytest.mark.parametrize("tau", [0.7, 8.7, 15.1])
    def test_fermionic_diagonal_is_exactly_zero(self, tau):
        gamma = two_particle_correlation(prop(tau), INIT, FER)
        assert np.count_nonzero(np.diag(gamma)) == 0

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_symmetry(self, stats):
        gamma = two_particle_correlation(prop(5.3), INIT, stats)
        assert np.abs(gamma - gamma.T).max() <= 1e-12

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_matches_state_expectation(self, stats):
        state = evolve_state(INIT, PARAMS, 8.7, stats)
        gamma = two_particle_correlation(prop(8.7), INIT, stats)
        for r, s in ((2, 3), (1, 1), (1, 4), (5, 6)):
            direct = expectation_oracle(state, (r, s), (s, r))
            assert gamma[r - 1, s - 1] == pytest.approx(direct, abs=1e-10)

    def test_bosonic_bunching_term(self):
        # doubly occupied input site: same-site pairs appear at tau = 0
        init = (2, 1, 0, 0, 0, 0)
        gamma = two_particle_correlation(prop(0.0), init, BOS)
        assert gamma[0, 0] == pytest.approx(2.0, abs=1e-12)  # n (n - 1)
        assert gamma.sum() == pytest.approx(6.0, abs=1e-12)

    def test_bosonic_bunching_term_matches_state_expectation(self):
        # away from tau = 0, where |C| is 0 or 1, the n (n - 1) term is weighted
        init = (2, 1, 0, 0, 0, 0)
        state = evolve_state(init, PARAMS, 3.1, BOS)
        gamma = two_particle_correlation(prop(3.1), init, BOS)
        for r in range(1, 7):
            for s in range(1, 7):
                direct = expectation_oracle(state, (r, s), (s, r))
                assert gamma[r - 1, s - 1] == pytest.approx(direct, abs=1e-10)

    def test_fermions_reject_multiple_occupancy(self):
        with pytest.raises(ValueError):
            two_particle_correlation(prop(1.0), (2, 1, 0, 0, 0, 0), FER)


@pytest.mark.parametrize(
    "call, matrix",
    [
        # a 1-D "propagator" used to give a density of 3.0
        (lambda m: single_particle_density(m, INIT), (1, 1, 1, 0, 0, 0)),
        (lambda m: two_particle_correlation(m, INIT, FER), np.ones(6)),
        (lambda m: single_particle_density(m, INIT), np.ones((6, 5))),
        # these gave an empty array, [2., 2.] and an IndexError
        (interparticle_distance, []),
        (interparticle_distance, np.ones((2, 3))),
        (interparticle_distance, None),
        (interparticle_distance, np.zeros((0, 0))),
    ],
)
def test_observables_take_a_square_matrix_only(call, matrix):
    with pytest.raises(ValueError, match="must be a non-empty square matrix"):
        call(matrix)


@pytest.mark.parametrize(
    "init",
    [
        (-1, 4, 0, 0, 0, 0),
        (0.5, 1, 1.5, 0, 0, 0),
        (1, 1, 1, 0, 0, float("nan")),
        (1.0, 1, 1, 0, 0, 0),
        np.array([1.0, 1, 1, 0, 0, 0]),
    ],
)
class TestOccupationGuard:
    """Both observables reject occupations that are not non-negative integers,
    integer-valued floats included (the last two used to be accepted)."""

    def test_density(self, init):
        with pytest.raises(ValueError, match="non-negative integers"):
            single_particle_density(prop(1.0), init)

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_pair_correlation(self, init, stats):
        with pytest.raises(ValueError, match="non-negative integers"):
            two_particle_correlation(prop(1.0), init, stats)

    def test_snapshot(self, init):
        with pytest.raises(ValueError, match="non-negative integers"):
            snapshot(BOS, 1.0, init=init)


class TestInterparticleDistance:
    def test_zero_time_fermions(self):
        gamma = two_particle_correlation(prop(0.0), INIT, FER)
        assert np.abs(interparticle_distance(gamma) - [0, 2, 1, 0, 0, 0]).max() <= 1e-12

    def test_fermions_never_coincide(self):
        for tau in (0.9, 8.7):
            gamma = two_particle_correlation(prop(tau), INIT, FER)
            assert interparticle_distance(gamma)[0] == 0.0

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_total_weight_counts_ordered_pairs(self, stats):
        # g(0) + 2 sum_{Delta >= 1} g(Delta) accounts for all N (N - 1) pairs
        gamma = two_particle_correlation(prop(8.7), INIT, stats)
        g = interparticle_distance(gamma)
        assert g[0] + 2.0 * g[1:].sum() == pytest.approx(6.0, abs=1e-10)


class TestExpectationOracle:
    def test_number_operator_on_basis_ket(self):
        basis = enumerate_basis(3, 6, FER)
        state = evolve_state(INIT, PARAMS, 0.0, FER, basis=basis)
        total = sum(expectation_oracle(state, (m,), (m,)) for m in range(1, 7))
        assert total == pytest.approx(3.0, abs=1e-12)

    def test_chi_site_occupation(self):
        assert expectation_oracle(chi_state(), (1,), (1,)) == pytest.approx(
            1.0 / 3.0, abs=1e-12
        )

    def test_rejects_non_hermitian_request(self):
        with pytest.raises(ValueError):
            expectation_oracle(chi_state(), (1,), (2,))
