import itertools
import math

import numpy as np
import pytest

from triqw import (
    LatticeParams,
    Statistics,
    enumerate_basis,
    evolve_state,
    evolve_state_oracle,
    many_body_hamiltonian,
    single_particle_propagator,
)

BOS = Statistics.BOSONS
FER = Statistics.FERMIONS


def hopping_matrix(params: LatticeParams) -> np.ndarray:
    """Single-particle Hamiltonian assembled directly, no sine basis."""
    L = params.n_modes
    mat = params.onsite * np.eye(L)
    off = params.tunneling * np.ones(L - 1)
    return mat + np.diag(off, 1) + np.diag(off, -1)


def propagator_by_eigendecomposition(params: LatticeParams, tau: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(hopping_matrix(params))
    return evecs @ np.diag(np.exp(-1j * evals * tau / params.tunneling)) @ evecs.conj().T


class TestPropagator:
    def test_identity_at_zero_time(self):
        prop = single_particle_propagator(LatticeParams(6), 0.0)
        assert np.abs(prop - np.eye(6)).max() <= 1e-12

    @pytest.mark.parametrize("n_modes", [2, 5, 6, 8])
    @pytest.mark.parametrize("tau", [0.3, 1.0, 8.7])
    def test_matches_eigendecomposition_oracle(self, n_modes, tau):
        params = LatticeParams(n_modes)
        prop = single_particle_propagator(params, tau)
        ref = propagator_by_eigendecomposition(params, tau)
        assert np.abs(prop - ref).max() <= 1e-12

    def test_onsite_energy_only_adds_global_phase(self):
        plain = single_particle_propagator(LatticeParams(6), 1.7)
        shifted = single_particle_propagator(LatticeParams(6, onsite=2.5), 1.7)
        phase = np.exp(-1j * 2.5 * 1.7)
        assert np.abs(shifted - phase * plain).max() <= 1e-12

    def test_unitary_and_symmetric(self):
        rng = np.random.default_rng(7)
        for tau in rng.uniform(0.0, 20.0, size=8):
            mat = single_particle_propagator(LatticeParams(6), tau)
            assert np.abs(mat @ mat.conj().T - np.eye(6)).max() <= 1e-12
            assert np.abs(mat - mat.T).max() <= 1e-12

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            single_particle_propagator(LatticeParams(6), float("nan"))
        # finite times whose phases overflow: 2 tau, and G tau / T
        for params, tau in ((LatticeParams(6), 1e308), (LatticeParams(6, onsite=1e308), 10.0)):
            with pytest.raises(ValueError, match="tau"):
                single_particle_propagator(params, tau)


class TestManyBodyHamiltonian:
    def test_single_particle_two_modes(self):
        params = LatticeParams(2, onsite=0.0, tunneling=0.8)
        basis = enumerate_basis(1, 2, BOS)
        ham = many_body_hamiltonian(basis, params)
        # basis order: (0,1), (1,0)
        assert np.abs(ham - np.array([[0.0, 0.8], [0.8, 0.0]])).max() <= 1e-15

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_diagonal_is_onsite_times_particle_number(self, stats):
        params = LatticeParams(4, onsite=1.3)
        basis = enumerate_basis(3, 4, stats)
        ham = many_body_hamiltonian(basis, params)
        assert np.abs(np.diag(ham) - 3 * 1.3).max() <= 1e-12

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_hermitian(self, stats):
        ham = many_body_hamiltonian(enumerate_basis(3, 6, stats), LatticeParams(6))
        assert np.abs(ham - ham.conj().T).max() <= 1e-12

    def test_free_fermion_spectrum(self):
        # brute-force oracle: eigenvalues are all 3-subset sums of the
        # single-particle energies G + 2T cos(k pi / 7)
        params = LatticeParams(6, onsite=0.4, tunneling=1.1)
        ham = many_body_hamiltonian(enumerate_basis(3, 6, FER), params)
        single = np.linalg.eigvalsh(hopping_matrix(params))
        sums = sorted(sum(trip) for trip in itertools.combinations(single, 3))
        assert np.abs(np.linalg.eigvalsh(ham) - np.array(sums)).max() <= 1e-10

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            many_body_hamiltonian(enumerate_basis(2, 3, BOS), LatticeParams(4))


INIT = (1, 1, 1, 0, 0, 0)


class TestEvolution:
    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_zero_time_returns_initial_ket(self, stats):
        state = evolve_state(INIT, LatticeParams(6), 0.0, stats)
        expected = np.zeros(len(state.basis), dtype=complex)
        expected[state.basis.index(INIT)] = 1.0
        assert np.abs(state.amp - expected).max() <= 1e-14

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_norm_preserved(self, stats):
        rng = np.random.default_rng(11)
        for tau in rng.uniform(0.0, 20.0, size=6):
            state = evolve_state(INIT, LatticeParams(6), tau, stats)
            assert abs(state.norm() - 1.0) <= 1e-12

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_matches_exponential_oracle(self, stats):
        params = LatticeParams(6)
        for tau in (1.0, 8.7, 13.4):
            fast = evolve_state(INIT, params, tau, stats)
            slow = evolve_state_oracle(INIT, params, tau, stats)
            assert np.abs(fast.amp - slow.amp).max() <= 1e-10

    def test_oracle_identity_at_zero_time(self):
        state = evolve_state_oracle(INIT, LatticeParams(6), 0.0, FER)
        expected = np.zeros(len(state.basis), dtype=complex)
        expected[state.basis.index(INIT)] = 1.0
        assert np.abs(state.amp - expected).max() <= 1e-12

    def test_oracle_eigendecomposition_self_check(self):
        basis = enumerate_basis(3, 6, FER)
        ham = many_body_hamiltonian(basis, LatticeParams(6))
        evals, evecs = np.linalg.eigh(ham)
        rebuilt = evecs @ np.diag(evals) @ evecs.conj().T
        assert np.abs(rebuilt - ham).max() <= 1e-10

    def test_single_particle_oracle_column_equals_propagator(self):
        # two independent code paths meet on the N=1 sector
        params = LatticeParams(6)
        prop = single_particle_propagator(params, 2.9)
        basis = enumerate_basis(1, 6, FER)
        for site in range(1, 7):
            init = tuple(1 if m == site else 0 for m in range(1, 7))
            state = evolve_state_oracle(init, params, 2.9, FER, basis=basis)
            column = np.array(
                [state.amp[basis.index(tuple(1 if m == r else 0 for m in range(1, 7)))]
                 for r in range(1, 7)]
            )
            assert np.abs(column - prop[:, site - 1]).max() <= 1e-12

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_energy_conservation(self, stats):
        params = LatticeParams(6)
        basis = enumerate_basis(3, 6, stats)
        ham = many_body_hamiltonian(basis, params)
        energies = []
        for tau in (0.0, 1.3, 4.8, 11.6, 19.2):
            amp = evolve_state(INIT, params, tau, stats, basis=basis).amp
            energies.append(float(np.vdot(amp, ham @ amp).real))
        assert max(energies) - min(energies) <= 1e-10

    def test_oracle_dimension_guard(self):
        with pytest.raises(ValueError):
            evolve_state_oracle((1,) * 4 + (0,) * 8, LatticeParams(12), 1.0, BOS)


def test_lattice_params_validation():
    with pytest.raises(ValueError):
        LatticeParams(0)
    with pytest.raises(ValueError):
        LatticeParams(6, tunneling=0.0)


@pytest.mark.parametrize(
    "kwargs",
    [
        {"tunneling": math.nan},
        {"tunneling": math.inf},
        {"onsite": math.nan},
        {"onsite": -math.inf},
    ],
)
def test_lattice_params_rejects_non_finite_energies(kwargs):
    with pytest.raises(ValueError, match="finite"):
        LatticeParams(6, **kwargs)
