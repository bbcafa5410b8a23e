import itertools
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from oracles import evolve_state_oracle, many_body_hamiltonian
from triqw import (
    ADJACENT_PARTITION,
    ALTERNATING_PARTITION,
    LatticeParams,
    ManyBodyState,
    Statistics,
    entanglement_of_particles,
    enumerate_basis,
    evolve_state,
    geometric_measure,
    single_particle_density,
    single_particle_propagator,
    snapshot,
    two_particle_correlation,
    walk_scan,
)
from triqw.dynamics import _sine_basis

BOS = Statistics.BOSONS
FER = Statistics.FERMIONS


def hopping_matrix(params: LatticeParams) -> np.ndarray:
    """Single-particle hopping matrix (units of T, G = 0) assembled directly,
    no sine basis."""
    off = np.ones(params.n_modes - 1)
    return np.diag(off, 1) + np.diag(off, -1)


def propagator_by_eigendecomposition(params: LatticeParams, tau: float) -> np.ndarray:
    evals, evecs = np.linalg.eigh(hopping_matrix(params))
    return evecs @ np.diag(np.exp(-1j * evals * tau)) @ evecs.conj().T


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

    def test_unitary_and_symmetric(self):
        rng = np.random.default_rng(7)
        for tau in rng.uniform(0.0, 20.0, size=8):
            mat = single_particle_propagator(LatticeParams(6), tau)
            assert np.abs(mat @ mat.conj().T - np.eye(6)).max() <= 1e-12
            assert np.abs(mat - mat.T).max() <= 1e-12

    def test_cached_sine_basis_is_read_only_and_shared(self):
        cosines, sines, sines_t = _sine_basis(6)
        again = _sine_basis(6)
        assert again[0] is cosines and again[1] is sines and again[2] is sines_t
        for table in (cosines, sines, sines_t):
            with pytest.raises(ValueError, match="read-only"):
                table[0] = 0.0
        k = np.arange(1, 7)
        assert cosines.tobytes() == np.cos(k * np.pi / 7).tobytes()
        assert sines.tobytes() == np.sin(np.outer(k, k) * np.pi / 7).tobytes()
        assert sines_t.dtype == complex and np.array_equal(sines_t, sines.T)

    def test_an_array_of_times_stacks_the_per_time_matrices(self):
        taus = np.linspace(-5.0, 20.0, 41)
        stack = single_particle_propagator(LatticeParams(6), taus)
        assert stack.shape == (41, 6, 6)
        for tau, mat in zip(taus, stack):
            assert mat.tobytes() == single_particle_propagator(LatticeParams(6), tau).tobytes()
        grid = single_particle_propagator(LatticeParams(6), taus.reshape(1, 41))
        assert grid.tobytes() == stack.tobytes() and grid.shape == (1, 41, 6, 6)

    def test_an_array_error_names_its_first_bad_time(self):
        with pytest.raises(ValueError, match=r"^tau = 1e\+308 gives non-finite"):
            single_particle_propagator(LatticeParams(6), [0.0, 1e308, float("nan")])

    @pytest.mark.parametrize(
        "tau", ["1", True, 1j, None, [0.5, "2"], np.array([True, False]), np.array([1.0 + 0j])]
    )
    def test_rejects_a_time_that_is_not_real(self, tau):
        # '1' and True used to give a propagator, and 1j raised TypeError
        with pytest.raises(ValueError, match=r"^tau must be a real number or an array of them"):
            single_particle_propagator(LatticeParams(6), tau)

    def test_integer_times_match_float_times(self):
        params = LatticeParams(6)
        assert single_particle_propagator(params, 3).tobytes() == (
            single_particle_propagator(params, 3.0).tobytes()
        )
        stack = single_particle_propagator(params, np.arange(4, dtype=np.uint8))
        assert stack.tobytes() == single_particle_propagator(params, np.arange(4.0)).tobytes()

    @pytest.mark.parametrize("sign", [1.0, -1.0])
    def test_the_largest_time_with_finite_phases_is_accepted(self, sign):
        # 2 tau stays finite up to half the largest float, and overflows above
        largest = sign * np.finfo(float).max / 2
        for tau in (largest, np.array([0.0, largest])):
            assert np.isfinite(single_particle_propagator(LatticeParams(6), tau)).all()
        with pytest.raises(ValueError, match="gives non-finite propagator phases"):
            single_particle_propagator(LatticeParams(6), np.nextafter(largest, sign * np.inf))

    def test_rejects_non_finite_time(self):
        with pytest.raises(ValueError):
            single_particle_propagator(LatticeParams(6), float("nan"))
        # a finite time whose phases overflow: 2 tau
        with pytest.raises(ValueError, match="tau"):
            single_particle_propagator(LatticeParams(6), 1e308)


class TestManyBodyHamiltonian:
    def test_single_particle_two_modes(self):
        basis = enumerate_basis(1, 2, BOS)
        ham = many_body_hamiltonian(basis, LatticeParams(2))
        # basis order: (0,1), (1,0)
        assert np.abs(ham - np.array([[0.0, 1.0], [1.0, 0.0]])).max() <= 1e-15

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_hermitian(self, stats):
        ham = many_body_hamiltonian(enumerate_basis(3, 6, stats), LatticeParams(6))
        assert np.abs(ham - ham.conj().T).max() <= 1e-12

    def test_free_fermion_spectrum(self):
        # brute-force oracle: eigenvalues are all 3-subset sums of the
        # single-particle energies 2 cos(k pi / 7)
        params = LatticeParams(6)
        ham = many_body_hamiltonian(enumerate_basis(3, 6, FER), params)
        single = np.linalg.eigvalsh(hopping_matrix(params))
        sums = sorted(sum(trip) for trip in itertools.combinations(single, 3))
        assert np.abs(np.linalg.eigvalsh(ham) - np.array(sums)).max() <= 1e-10

    def test_mode_count_mismatch_rejected(self):
        with pytest.raises(ValueError):
            many_body_hamiltonian(enumerate_basis(2, 3, BOS), LatticeParams(4))


INIT = (1, 1, 1, 0, 0, 0)


@st.composite
def walk_cases(draw):
    """A valid initial occupation of up to 3 particles on 1-6 modes, with
    its statistics (fermionic occupations 0 or 1)."""
    stats = draw(st.sampled_from([BOS, FER]))
    n_modes = draw(st.integers(1, 6))
    n_particles = draw(st.integers(0, min(3, n_modes) if stats.exclusive else 3))
    sites = draw(
        st.lists(
            st.integers(0, n_modes - 1),
            min_size=n_particles,
            max_size=n_particles,
            unique=stats.exclusive,
        )
    )
    return tuple(sites.count(m) for m in range(n_modes)), stats


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
            assert abs(np.linalg.norm(state.amp) - 1.0) <= 1e-12

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

    @settings(max_examples=60, deadline=None)
    @given(case=walk_cases(), tau=st.floats(0.0, 20.0))
    @example(case=((0,), BOS), tau=1.5)  # the empty plan, N = 0
    @example(case=((0, 0, 1, 0), FER), tau=2.5)  # the first creation alone, N = 1
    def test_matches_exponential_oracle_on_random_walks(self, case, tau):
        init, stats = case
        params = LatticeParams(len(init))
        fast = evolve_state(init, params, tau, stats)
        slow = evolve_state_oracle(init, params, tau, stats)
        assert np.abs(fast.amp - slow.amp).max() <= 1e-10

    def test_oracle_dimension_guard(self):
        with pytest.raises(ValueError):
            evolve_state_oracle((1,) * 4 + (0,) * 8, LatticeParams(12), 1.0, BOS)


def test_lattice_params_validation():
    with pytest.raises(ValueError):
        LatticeParams(0)


@pytest.mark.parametrize(
    "init", [(-1, 4, 0, 0, 0, 0), (1.5, 1.5, 0, 0, 0, 0), (1.0, 1, 1, 0, 0, 0)]
)
def test_evolve_state_and_walk_scan_reject_bad_init(init):
    # the float cases used to fail in FockBasis, on the particle count 3.0
    message = "initial occupations must be non-negative integers"
    with pytest.raises(ValueError, match=message):
        evolve_state(init, LatticeParams(6), 1.0, BOS)
    with pytest.raises(ValueError, match=message):
        evolve_state(init, LatticeParams(6), 1.0, BOS, basis=enumerate_basis(3, 6, BOS))
    with pytest.raises(ValueError, match=message):
        walk_scan(BOS, init=init, steps=2)


TIME_ENTRY_POINTS = {
    "evolve_state": ("tau", lambda tau: evolve_state(INIT, LatticeParams(6), tau, FER)),
    "snapshot": ("tau", lambda tau: snapshot(FER, tau)),
    "walk_scan": ("tau_max", lambda tau: walk_scan(FER, tau_max=tau, steps=3)),
}


@pytest.mark.parametrize("entry", TIME_ENTRY_POINTS)
@pytest.mark.parametrize(
    "tau",
    [[1.0, 2.0], (1.0,), np.array(1.0), np.array([1.0, 2.0]), "5", 1j, np.complex128(1.0),
     None, True, np.bool_(True)],
)
def test_a_time_is_one_real_number(entry, tau):
    name, call = TIME_ENTRY_POINTS[entry]
    with pytest.raises(ValueError) as info:
        call(tau)
    assert str(info.value) == f"{name} must be a real number, got {tau!r}"


@pytest.mark.parametrize("tau", [np.float64(2.5), np.float32(2.5), np.int64(2), 2])
def test_a_real_scalar_time_is_its_float(tau):
    evolve, take, walk = (call for _, call in TIME_ENTRY_POINTS.values())
    assert evolve(tau).amp.tobytes() == evolve(float(tau)).amp.tobytes()
    record = take(tau)
    assert type(record["tau"]) is float and record == take(float(tau))
    assert walk(tau).eps_t.tobytes() == walk(float(tau)).eps_t.tobytes()


@pytest.mark.parametrize("n_modes", [2.5, 6.0, "6", None, True])
def test_lattice_params_rejects_non_integer_mode_count(n_modes):
    with pytest.raises(ValueError, match="integer"):
        LatticeParams(n_modes)


def test_the_chain_has_no_energy_parameters():
    # G and T only set a global phase, so no entry point takes them
    with pytest.raises(TypeError):
        LatticeParams(6, onsite=1.0)
    with pytest.raises(TypeError):
        walk_scan(FER, steps=2, onsite=1.0)
    with pytest.raises(TypeError):
        snapshot(FER, 1.0, onsite=1.0)


@settings(max_examples=40, deadline=None)
@given(
    stats=st.sampled_from([BOS, FER]),
    partition=st.sampled_from([ADJACENT_PARTITION, ALTERNATING_PARTITION]),
    tau=st.floats(0.0, 20.0),
    theta=st.floats(-math.pi, math.pi),
)
def test_a_global_phase_changes_no_reported_quantity(stats, partition, tau, theta):
    """An on-site energy G multiplies C by exp(-i G tau) and the state by
    exp(-i N G tau): eps_T, eps_G, rho and Gamma are blind to either phase."""
    phase = np.exp(1j * theta)
    state = evolve_state(INIT, LatticeParams(6), tau, stats)
    shifted = ManyBodyState(state.basis, phase * state.amp)
    plain, moved = (entanglement_of_particles(s, partition) for s in (state, shifted))
    assert abs(plain.eps_t - moved.eps_t) <= 1e-12
    assert [rec.counts for rec in plain.sectors] == [rec.counts for rec in moved.sectors]
    for a, b in zip(plain.sectors, moved.sectors):
        assert np.abs(np.array(a[1:]) - np.array(b[1:])).max() <= 1e-12
    if stats is FER:  # eps_G needs at most one particle per mode
        eps_g = [geometric_measure(s, partition) for s in (state, shifted)]
        assert abs(eps_g[0] - eps_g[1]) <= 1e-12
    prop = single_particle_propagator(LatticeParams(6), tau)
    for observable in (
        lambda c: single_particle_density(c, INIT),
        lambda c: two_particle_correlation(c, INIT, stats),
    ):
        assert np.abs(observable(prop) - observable(phase * prop)).max() <= 1e-12


@pytest.mark.parametrize(
    "basis",
    [
        enumerate_basis(3, 6, FER),
        enumerate_basis(3, 5, BOS),
        enumerate_basis(2, 6, BOS),
    ],
    ids=["stats", "modes", "particles"],
)
def test_evolve_state_rejects_a_mismatched_basis(basis):
    # a fermion basis used to give the fermionic state for bosons, and a
    # five-mode basis failed with "coefficient matrix must be L x L"
    with pytest.raises(ValueError, match="does not match N=3, L=6, bosons"):
        evolve_state((1, 1, 1, 0, 0, 0), LatticeParams(6), 1.0, BOS, basis=basis)

