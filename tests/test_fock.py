import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

import triqw
from oracles import apply_annihilation, monomial_expansion
from triqw import (
    ADJACENT_PARTITION,
    WALK_INIT,
    DensityMatrix,
    LatticeParams,
    ManyBodyState,
    Statistics,
    bipartite_negativity,
    enumerate_basis,
    phi_scan,
    single_particle_propagator,
    walk_scan,
)
from triqw.fock import (
    FockBasis,
    _expansion_plan,
    _monomial_amplitudes,
    apply_creation,
    build_monomial_state,
)

BOS = Statistics.BOSONS
FER = Statistics.FERMIONS


def dense_operator(basis: FockBasis, mode: int, create: bool) -> np.ndarray:
    """Matrix of c_mode^+ (or c_mode) between two bases of adjacent N."""
    apply_op = apply_creation if create else apply_annihilation
    target = enumerate_basis(
        basis.n_particles + (1 if create else -1), basis.n_modes, basis.stats
    )
    op = np.zeros((len(target), len(basis)))
    for col, occ in enumerate(basis.states):
        res = apply_op(occ, mode, basis.stats)
        if res is None:
            continue
        factor, occ2 = res
        op[target.index(occ2), col] = factor
    return op


def number_conserving_matrix(basis: FockBasis, terms) -> np.ndarray:
    """Dense matrix of a sum of c_i^+ c_j terms on one basis."""
    mat = np.zeros((len(basis), len(basis)))
    for col, occ in enumerate(basis.states):
        for i, j in terms:
            res = apply_annihilation(occ, j, basis.stats)
            if res is None:
                continue
            f1, occ1 = res
            res = apply_creation(occ1, i, basis.stats)
            if res is None:
                continue
            f2, occ2 = res
            mat[basis.index(occ2), col] += f1 * f2
    return mat


class TestEnumeration:
    def test_counts(self):
        assert len(enumerate_basis(3, 6, FER)) == 20  # C(6, 3)
        assert len(enumerate_basis(3, 6, BOS)) == 56  # C(8, 3)

    def test_single_particle_order_is_lexicographic(self):
        basis = enumerate_basis(1, 3, BOS)
        assert basis.states == ((0, 0, 1), (0, 1, 0), (1, 0, 0))
        assert basis.states == tuple(sorted(basis.states))

    def test_index_is_inverse_of_listing(self):
        for stats in (BOS, FER):
            basis = enumerate_basis(3, 6, stats)
            for k, occ in enumerate(basis.states):
                assert basis.index(occ) == k

    def test_all_states_legal_and_distinct(self):
        basis = enumerate_basis(3, 6, FER)
        assert len(set(basis.states)) == len(basis)
        assert all(sum(occ) == 3 and max(occ) <= 1 for occ in basis.states)

    def test_fermion_overfilling_rejected(self):
        with pytest.raises(ValueError):
            enumerate_basis(4, 3, FER)

    def test_bad_arguments_rejected(self):
        with pytest.raises(ValueError):
            enumerate_basis(-1, 3, BOS)
        with pytest.raises(ValueError):
            enumerate_basis(2, 0, BOS)

    @pytest.mark.parametrize(
        "counts", [(2.5, 3), (3, 2.0), ("3", 6), (3, None), (True, 3), (1, True)]
    )
    def test_non_integer_counts_rejected(self, counts):
        with pytest.raises(ValueError, match="must be a (non-negative|positive) integer"):
            enumerate_basis(*counts, BOS)

    def test_numpy_integer_counts_stored_as_int(self):
        basis = enumerate_basis(np.int64(3), np.int64(6), FER)
        assert type(basis.n_particles) is int and type(basis.n_modes) is int
        assert basis == enumerate_basis(3, 6, FER)

    @pytest.mark.parametrize(
        "other",
        [enumerate_basis(2, 6, FER), enumerate_basis(3, 7, FER), enumerate_basis(3, 6, BOS)],
        ids=["particles", "modes", "stats"],
    )
    def test_bases_differing_in_one_field_are_unequal(self, other):
        assert enumerate_basis(3, 6, FER) != other

    def test_vacuum_basis(self):
        basis = enumerate_basis(0, 4, FER)
        assert basis.states == ((0, 0, 0, 0),)


class TestLadderOperators:
    def test_creation_on_vacuum(self):
        assert apply_creation((0, 0, 0), 2, BOS) == (1.0, (0, 1, 0))
        assert apply_creation((0, 0, 0), 2, FER) == (1.0, (0, 1, 0))

    def test_fermion_exclusion(self):
        assert apply_creation((1, 0), 1, FER) is None

    def test_fermion_anticommutation_sign(self):
        # one occupied mode left of mode 2
        assert apply_creation((1, 0, 0), 2, FER) == (-1.0, (1, 1, 0))

    def test_boson_ladder_factor(self):
        factor, occ = apply_creation((1, 0), 1, BOS)
        assert occ == (2, 0)
        assert factor == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_annihilation(self):
        assert apply_annihilation((0, 1, 0), 2, BOS) == (1.0, (0, 0, 0))
        assert apply_annihilation((0, 1), 1, BOS) is None
        factor, occ = apply_annihilation((2, 0), 1, BOS)
        assert occ == (1, 0)
        assert factor == pytest.approx(math.sqrt(2.0), abs=1e-15)

    def test_mode_out_of_range(self):
        with pytest.raises(ValueError):
            apply_creation((0, 0), 3, BOS)
        with pytest.raises(ValueError):
            apply_annihilation((1, 1), 0, FER)

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_adjointness(self, stats):
        # <phi| c_i^+ |psi> == conj(<psi| c_i |phi>) on every basis pair
        basis = enumerate_basis(1, 3, stats)
        for mode in (1, 2, 3):
            up = dense_operator(basis, mode, create=True)
            upper = enumerate_basis(2, 3, stats)
            down = dense_operator(upper, mode, create=False)
            assert np.array_equal(up, down.T)


@settings(max_examples=25, deadline=None)
@given(
    stats=st.sampled_from([BOS, FER]),
    n_modes=st.integers(2, 4),
    n_particles=st.integers(0, 3),
)
def test_commutation_contract(stats, n_modes, n_particles):
    """(c_i c_j^+ -+ c_j^+ c_i) |n> = delta_ij |n>, - bosons / + fermions."""
    if stats.exclusive and n_particles > n_modes:
        n_particles = n_modes
    basis = enumerate_basis(n_particles, n_modes, stats)
    sign = 1.0 if stats.exclusive else -1.0
    for i in range(1, n_modes + 1):
        for j in range(1, n_modes + 1):
            first = number_conserving_matrix(basis, [(i, j)]).T  # c_i then c_j^+
            # build c_i c_j^+ directly: annihilate i after creating j
            mat = np.zeros((len(basis), len(basis)))
            for col, occ in enumerate(basis.states):
                res = apply_creation(occ, j, stats)
                if res is None:
                    continue
                f1, occ1 = res
                res = apply_annihilation(occ1, i, stats)
                if res is None:
                    continue
                f2, occ2 = res
                mat[basis.index(occ2), col] += f1 * f2
            other = number_conserving_matrix(basis, [(j, i)])
            combo = mat + sign * other
            expected = np.eye(len(basis)) if i == j else np.zeros((len(basis),) * 2)
            assert np.abs(combo - expected).max() <= 1e-14


@pytest.mark.parametrize("stats", [BOS, FER])
def test_number_operator_counts_particles(stats):
    basis = enumerate_basis(3, 4, stats)
    total = number_conserving_matrix(basis, [(m, m) for m in range(1, 5)])
    assert np.abs(total - 3.0 * np.eye(len(basis))).max() <= 1e-14


class TestMonomialState:
    def test_identity_coefficients_reproduce_ket(self):
        basis = enumerate_basis(3, 6, FER)
        init = (1, 1, 1, 0, 0, 0)
        state = build_monomial_state(basis, np.eye(6), init)
        expected = np.zeros(len(basis))
        expected[basis.index(init)] = 1.0
        assert np.array_equal(state.amp, expected.astype(complex))

    def test_identity_coefficients_bosons_with_double_occupancy(self):
        basis = enumerate_basis(3, 3, BOS)
        init = (2, 1, 0)
        state = build_monomial_state(basis, np.eye(3), init)
        assert state.amp[basis.index(init)] == pytest.approx(1.0, abs=1e-14)
        assert np.linalg.norm(state.amp) == pytest.approx(1.0, abs=1e-14)

    def test_fermion_swap_gives_odd_permutation_sign(self):
        basis = enumerate_basis(2, 3, FER)
        swap = np.eye(3)[[1, 0, 2]]
        state = build_monomial_state(basis, swap, (1, 1, 0))
        assert state.amp[basis.index((1, 1, 0))] == pytest.approx(-1.0, abs=1e-14)

    def test_rejects_mismatched_init(self):
        basis = enumerate_basis(2, 3, FER)
        with pytest.raises(ValueError):
            build_monomial_state(basis, np.eye(3), (1, 1, 1))
        with pytest.raises(ValueError):
            build_monomial_state(basis, np.eye(3), (2, 0, 0))

    @pytest.mark.parametrize(
        "init", [(-1, 4, 0, 0, 0, 0), (1.5, 1.5, 0, 0, 0, 0), (1, 1, 1, 0, 0, None)]
    )
    def test_rejects_non_integer_or_negative_init(self, init):
        # the first sums to N=3, the second to 3.0: both reach the plan
        # unless the entries themselves are checked
        basis = enumerate_basis(3, 6, BOS)
        with pytest.raises(ValueError, match="non-negative integers"):
            build_monomial_state(basis, np.eye(6), init)


@st.composite
def monomial_cases(draw):
    """(basis, L x L complex coefficients with exact zeros, legal init)."""
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
    init = tuple(sites.count(m) for m in range(n_modes))
    entry = st.one_of(
        st.just(0j),
        st.complex_numbers(max_magnitude=2.0, allow_nan=False, allow_infinity=False),
    )
    coeffs = draw(arrays(complex, (n_modes, n_modes), elements=entry))
    return enumerate_basis(n_particles, n_modes, stats), coeffs, init


@settings(max_examples=200, deadline=None)
@given(case=monomial_cases())
def test_monomial_state_is_bit_identical_to_per_call_expansion(case):
    # bytes, not values: equal bits also pin the signs of zeros
    basis, coeffs, init = case
    state = build_monomial_state(basis, coeffs, init)
    assert state.amp.tobytes() == monomial_expansion(basis, coeffs, init).tobytes()


class TestWalkAmplitudePath:
    """One expansion plan per (basis, init), and one check per call."""

    @staticmethod
    def count_calls(monkeypatch, calls, module, name):
        """Count the calls of ``module.name`` through every ``triqw`` binding."""
        original = getattr(module, name)

        def counted(*args, **kwargs):
            calls[name] += 1
            return original(*args, **kwargs)

        for owner in (triqw, triqw.fock, triqw.dynamics, triqw.scans):
            if getattr(owner, name, None) is original:
                monkeypatch.setattr(owner, name, counted)

    def test_default_walk_scan_checks_once_and_builds_once(self, monkeypatch):
        calls = {"_occupations": 0, "single_particle_propagator": 0}
        self.count_calls(monkeypatch, calls, triqw.fock, "_occupations")
        self.count_calls(monkeypatch, calls, triqw.dynamics, "single_particle_propagator")
        _expansion_plan.cache_clear()
        walk_scan(BOS, ADJACENT_PARTITION)
        assert calls == {"_occupations": 1, "single_particle_propagator": 1}
        info = _expansion_plan.cache_info()
        assert (info.misses, info.hits) == (1, 0)

    @pytest.mark.parametrize("stats", [BOS, FER])
    def test_an_exact_zero_shares_the_plan(self, stats):
        basis = enumerate_basis(3, 6, stats)
        coeffs = single_particle_propagator(LatticeParams(6), 2.3)
        _expansion_plan.cache_clear()
        build_monomial_state(basis, coeffs, WALK_INIT)
        for entry in [(1, 4), (4, 1)]:  # rows of an occupied and of an empty site
            zeroed = coeffs.copy()
            zeroed[entry] = 0.0
            state = build_monomial_state(basis, zeroed, WALK_INIT)
            assert state.amp.tobytes() == monomial_expansion(basis, zeroed, WALK_INIT).tobytes()
        assert _expansion_plan.cache_info().misses == 1

    def test_a_coefficient_stack_matches_one_matrix_at_a_time(self):
        basis = enumerate_basis(3, 6, FER)
        stack = single_particle_propagator(LatticeParams(6), np.linspace(0.0, 5.0, 7))
        amps = _monomial_amplitudes(basis, WALK_INIT, stack)
        assert amps.shape == (7, len(basis))
        for mat, amp in zip(stack, amps):
            assert amp.tobytes() == build_monomial_state(basis, mat, WALK_INIT).amp.tobytes()

    def test_plan_arrays_are_read_only(self):
        steps, positions = _expansion_plan(enumerate_basis(3, 6, BOS), WALK_INIT)
        arrays = [arr for step in steps for arr in step if isinstance(arr, np.ndarray)]
        assert len(arrays) == 4 * len(steps) == 12
        for arr in arrays + [positions]:
            with pytest.raises(ValueError, match="read-only"):
                arr[0] = arr[0]


# (call taking the value, its message without the quoted value)
RANGE_CHECKS = {
    "grid steps": (lambda n: phi_scan(n, 2), "need between 2 and 501 grid steps per axis"),
    "time samples": (lambda n: walk_scan(FER, steps=n), "need between 2 and 10000 time samples"),
    "party": (
        lambda n: bipartite_negativity(DensityMatrix((2, 2), np.eye(4) / 4), n),
        "party out of range for dims (2, 2): need an integer 0..1",
    ),
    "particle count": (
        lambda n: enumerate_basis(n, 3, BOS),
        "particle count must be a non-negative integer",
    ),
    "mode count": (lambda n: LatticeParams(n), "mode count must be a positive integer"),
}


@pytest.mark.parametrize(
    "what, value",
    [
        ("grid steps", 1),
        ("grid steps", 502),
        ("grid steps", 2.0),
        ("time samples", 1),
        ("time samples", 10_001),
        ("time samples", "400"),
        ("party", -1),
        ("party", 2),
        ("party", 0.5),
        ("particle count", -1),
        ("particle count", 1.5),
        ("mode count", 0),
        ("mode count", None),
    ],
)
def test_range_errors_quote_the_scalar_itself(what, value):
    call, message = RANGE_CHECKS[what]
    with pytest.raises(ValueError) as info:
        call(value)
    assert str(info.value) == f"{message}, got {value!r}"


def test_many_body_state_validation():
    basis = enumerate_basis(1, 3, BOS)
    with pytest.raises(ValueError):
        ManyBodyState(basis, np.zeros(5, dtype=complex))
    state = ManyBodyState.basis_ket(basis, (0, 1, 0))
    assert np.linalg.norm(state.amp) == pytest.approx(1.0)


@pytest.mark.parametrize("occ", [(2, 1, 0, 0, 0, 0), (1, 1, 1)])
def test_a_ket_outside_the_basis_is_a_value_error(occ):
    # a doubly occupied fermion mode, and too few modes
    basis = enumerate_basis(3, 6, FER)
    with pytest.raises(ValueError) as info:
        ManyBodyState.basis_ket(basis, occ)
    assert str(info.value) == f"occupation {occ!r} is not a state of {basis!r}"


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_many_body_state_rejects_non_finite_amplitudes(bad):
    basis = enumerate_basis(3, 6, FER)
    amp = np.zeros(len(basis), dtype=complex)
    amp[0] = bad
    with pytest.raises(ValueError, match="finite"):
        ManyBodyState(basis, amp)


@pytest.mark.parametrize("bad", [np.nan, np.inf, complex(0.0, np.nan)])
def test_density_matrix_rejects_non_finite_entries(bad):
    # NaN slips through the Hermiticity residual, which compares with ">"
    mat = np.eye(4, dtype=complex) / 4.0
    mat[0, 0] = bad
    with pytest.raises(ValueError, match="finite"):
        DensityMatrix((2, 2), mat)


@pytest.mark.parametrize(
    "entries, message",
    [
        ({(0, 1): np.inf, (1, 0): np.inf}, "finite"),  # inf - inf in the residual
        ({(0, 1): complex(np.nan, 1.0), (1, 0): 0.5}, "finite"),
        ({(0, 1): 0.25, (1, 0): 0.0}, "not Hermitian"),
        ({(0, 1): 1e-12 + 1e-11j, (1, 0): 1e-12 + 1e-11j}, "not Hermitian"),
    ],
)
def test_density_matrix_residual_picks_the_message(entries, message):
    # one residual decides; finiteness is checked only to name the failure
    mat = np.eye(4, dtype=complex) / 4.0
    for pos, value in entries.items():
        mat[pos] = value
    with pytest.raises(ValueError, match=message):
        DensityMatrix((2, 2), mat)


@pytest.mark.parametrize(
    "dims, mat", [((2.5,), np.eye(2) / 2), ((-1, -1), [[1.0]]), ((0,), np.zeros((0, 0)))]
)
def test_density_matrix_rejects_dims_that_are_not_positive_integers(dims, mat):
    # (2.5,) used to be truncated to (2,) and (-1, -1) kept as given, both
    # with a matching matrix; (0,) failed inside numpy's empty max
    with pytest.raises(ValueError, match="dims must be positive integers"):
        DensityMatrix(dims, mat)


def test_density_matrix_accepts_hermitian_within_tolerance():
    mat = np.eye(4, dtype=complex) / 4.0
    mat[0, 1] = 0.1 + 0.5e-12
    mat[1, 0] = 0.1
    assert DensityMatrix((2, 2), mat).trace() == pytest.approx(1.0, abs=1e-15)
