"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -v -s`` to see every verdict.

Three checks (3c, 4a, 4d) encode qualitative claims that the model does
not actually satisfy; they are implemented literally and left failing,
with the quantitative analysis in their docstrings.  Everything else
passes at the stated tolerances.
"""

import itertools
import math

import numpy as np
import pytest

from oracles import (
    bubble_sort_parity,
    evolve_state_oracle,
    expectation_oracle,
    tripartite_negativity_by_jacobi,
)
from triqw import (
    ADJACENT_PARTITION,
    ALTERNATING_PARTITION,
    CHI_PARTITION,
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
    single_particle_density,
    single_particle_propagator,
    tripartite_negativity,
    two_particle_correlation,
    walk_scan,
)
from triqw.entanglement import SectorDecomposition

BOS = Statistics.BOSONS
FER = Statistics.FERMIONS
INIT = (1, 1, 1, 0, 0, 0)
PARAMS = LatticeParams(6)


def report(tag: str, ok: bool, detail: str) -> None:
    print(f"ACCEPTANCE {tag}: {'PASS' if ok else 'FAIL'} - {detail}")
    assert ok, f"{tag}: {detail}"


@pytest.fixture(scope="module")
def phi_grid():
    return phi_scan(101, 101)


@pytest.fixture(scope="module")
def walk_curves():
    return {
        (stats, name): walk_scan(stats, partition, tau_max=20.0, steps=400)
        for stats in (BOS, FER)
        for name, partition in (
            ("adjacent", ADJACENT_PARTITION),
            ("alternating", ALTERNATING_PARTITION),
        )
    }


def test_criterion_1_geometric_measure_of_chi():
    value = geometric_measure(chi_state(), CHI_PARTITION)
    expected = math.sqrt(33.0) / 3.0 - 1.0
    report(
        "1",
        abs(value - expected) <= 1e-9,
        f"eps_G(chi) = {value:.12f}, expected sqrt(33)/3 - 1 = {expected:.12f}",
    )


def test_criterion_2_particle_entanglement_of_chi_vanishes():
    value = entanglement_of_particles(chi_state(), CHI_PARTITION).eps_t
    report("2", value == 0.0, f"eps_T(chi) = {value!r} (every sector loses a party)")


def test_criterion_3a_grid_peaks_are_maximally_entangled(phi_grid):
    corners = [(0, 25), (0, 75), (100, 25), (100, 75)]
    worst = max(abs(phi_grid.eps_t[i, j] - 1.0) for i, j in corners)
    report(
        "3a",
        worst <= 1e-9,
        f"eps_T at the four (alpha, beta) anchor points is 1 within {worst:.2e}",
    )


def test_criterion_3b_grid_vanishes_at_half_pi(phi_grid):
    worst = phi_grid.eps_t[50].max()
    report("3b", worst <= 1e-12, f"max eps_T along alpha = pi/2 is {worst:.2e}")


def test_criterion_3c_geometric_dominates_on_grid(phi_grid):
    """eps_G >= eps_T - 1e-9 at every grid point.

    KNOWN FAILING, by the structure of the two measures.  Near a
    single-term point the state is cos(beta)|k1> + sin(beta)|k2> up to
    relabeling; all six nontrivial marginal purities equal
    1 - 2 (cos(beta) sin(beta))^2, so the tensor norm obeys
    ||tau||^2 = 216 + 576 (cos(beta) sin(beta))^2 and
    eps_G ~ (576 / (2 sqrt(216))) beta^2 (quadratic in the distance from
    the product point), while eps_T = cos(alpha)^2 |sin(2 beta)| ~ 2 beta
    is linear.  The particle measure therefore exceeds the geometric one
    on a thin sliver around each single-term corner: 48 of the 10201
    grid points, worst gap 0.0486 at (alpha, beta) = (0, 0.49 pi).
    """
    gap = phi_grid.eps_t - phi_grid.eps_g
    worst = float(gap.max())
    count = int((gap > 1e-9).sum())
    report(
        "3c",
        count == 0,
        f"{count} of {gap.size} grid points violate eps_G >= eps_T - 1e-9 "
        f"(worst gap {worst:.4f})",
    )


def test_criterion_3d_geometric_maxima_locations(phi_grid):
    targets = [(25, 25), (25, 75), (75, 25), (75, 75)]
    peak = phi_grid.eps_g.max()
    argmax = np.argwhere(phi_grid.eps_g > peak - 1e-9)
    ok = all(
        any(abs(i - ti) <= 1 and abs(j - tj) <= 1 for ti, tj in targets)
        for i, j in argmax
    )
    report(
        "3d",
        ok and len(argmax) > 0,
        f"eps_G maxima at grid indices {argmax.tolist()} "
        "(targets are the four quarter-pi points)",
    )


def test_criterion_4a_fermions_dominate_bosons_pointwise(walk_curves):
    """Fermionic eps_T >= bosonic eps_T - 1e-9 at every sampled time.

    KNOWN FAILING.  The Pauli argument (exclusion raises the
    single-occupancy sector weight) holds on average but not pointwise:
    the bosonic curve crosses above the fermionic one on both
    partitions, first around tau = 0.1-0.3 (by small margins) and most
    strongly near tau = 14.6 and tau = 18.7, where the bosonic value
    exceeds the fermionic one by up to 0.023 (adjacent) and 0.035
    (alternating) - far beyond tolerance.  The states themselves are
    pinned by the exponential-map oracle and by first-quantized
    determinant/permanent amplitudes, so the crossings are a property
    of the model, not of this implementation.
    """
    detail = []
    ok = True
    for name in ("adjacent", "alternating"):
        gap = walk_curves[(BOS, name)].eps_t - walk_curves[(FER, name)].eps_t
        count = int((gap > 1e-9).sum())
        ok = ok and count == 0
        detail.append(f"{name}: {count} violations, worst {gap.max():.4f}")
    report("4a", ok, "; ".join(detail))


def test_criterion_4b_bosonic_range(walk_curves):
    ok = True
    detail = []
    for name in ("adjacent", "alternating"):
        curve = walk_curves[(BOS, name)].eps_t
        ok = ok and curve.min() >= 0.0 and curve.max() <= 0.25
        detail.append(f"{name}: bosonic eps_T in [{curve.min():.3f}, {curve.max():.3f}]")
    report("4b", ok, "; ".join(detail))


def test_criterion_4c_fermionic_peak_near_signature_time(walk_curves):
    scan = walk_curves[(FER, "alternating")]
    curve = scan.eps_t
    peaks = [
        scan.taus[i]
        for i in range(1, len(curve) - 1)
        if curve[i] > curve[i - 1] and curve[i] > curve[i + 1]
    ]
    hits = [tau for tau in peaks if 8.4 <= tau <= 9.0]
    report(
        "4c",
        len(hits) > 0,
        f"fermionic alternating-partition local maxima at {[f'{t:.2f}' for t in hits]} "
        "within 8.7 +- 0.3",
    )


def test_criterion_4d_alternating_partition_larger_on_average(walk_curves):
    """Time-averaged fermionic eps_T strictly larger on the
    non-adjacent partition than on the adjacent one.

    KNOWN FAILING over the stated [0, 20] grid: the means are 0.1275
    (alternating) versus 0.1451 (adjacent).  The ordering does hold on
    shorter windows (e.g. [0, 8]: 0.119 versus 0.090) before the
    adjacent-partition curve builds up its late-time oscillations, so
    the claim is sensitive to the averaging window, which the model
    itself does not fix.
    """
    alt = float(walk_curves[(FER, "alternating")].eps_t.mean())
    adj = float(walk_curves[(FER, "adjacent")].eps_t.mean())
    report("4d", alt > adj, f"mean fermionic eps_T: alternating {alt:.4f}, adjacent {adj:.4f}")


def test_criterion_5_evolution_oracle_equivalence():
    rng = np.random.default_rng(20250810)
    taus = rng.uniform(0.0, 20.0, size=20)
    worst_state = 0.0
    for stats in (BOS, FER):
        basis = enumerate_basis(3, 6, stats)
        for tau in taus:
            fast = evolve_state(INIT, PARAMS, tau, stats, basis=basis)
            slow = evolve_state_oracle(INIT, PARAMS, tau, stats, basis=basis)
            worst_state = max(worst_state, float(np.linalg.norm(fast.amp - slow.amp)))
    worst_prop = 0.0
    single = np.diag(np.ones(5), 1) + np.diag(np.ones(5), -1)
    evals, evecs = np.linalg.eigh(single)
    for tau in taus:
        ref = evecs @ np.diag(np.exp(-1j * evals * tau)) @ evecs.conj().T
        mat = single_particle_propagator(PARAMS, tau)
        worst_prop = max(worst_prop, float(np.abs(mat - ref).max()))
    report(
        "5",
        worst_state <= 1e-10 and worst_prop <= 1e-12,
        f"evolution vs oracle {worst_state:.2e} (tol 1e-10), "
        f"propagator vs eigendecomposition {worst_prop:.2e} (tol 1e-12)",
    )


def test_criterion_6_observable_consistency():
    rng = np.random.default_rng(60)
    taus = rng.uniform(0.0, 20.0, size=10)
    worst_match = 0.0
    worst_sum = 0.0
    worst_blind = 0.0
    diag_ok = True
    for tau in taus:
        prop = single_particle_propagator(PARAMS, tau)
        densities = {}
        for stats in (BOS, FER):
            state = evolve_state(INIT, PARAMS, tau, stats)
            rho = single_particle_density(prop, INIT)
            gamma = two_particle_correlation(prop, INIT, stats)
            densities[stats] = rho
            for site in range(1, 7):
                direct = expectation_oracle(state, (site,), (site,))
                worst_match = max(worst_match, abs(rho[site - 1] - direct))
            for r in range(1, 7):
                for s in range(r, 7):
                    direct = expectation_oracle(state, (r, s), (s, r))
                    worst_match = max(worst_match, abs(gamma[r - 1, s - 1] - direct))
            worst_sum = max(worst_sum, abs(rho.sum() - 3.0), abs(gamma.sum() - 6.0))
            if stats is FER:
                diag_ok = diag_ok and np.count_nonzero(np.diag(gamma)) == 0
        worst_blind = max(worst_blind, float(np.abs(densities[BOS] - densities[FER]).max()))
    report(
        "6",
        worst_match <= 1e-10 and worst_sum <= 1e-10 and diag_ok and worst_blind <= 1e-12,
        f"closed form vs oracle {worst_match:.2e}, sum rules {worst_sum:.2e}, "
        f"fermionic diagonal exactly zero: {diag_ok}, "
        f"density statistics-blindness {worst_blind:.2e}",
    )


def test_criterion_7_measure_sanity_suite():
    rng = np.random.default_rng(70)

    worst_product = 0.0
    for _ in range(200):
        parts = [rng.normal(size=2) + 1j * rng.normal(size=2) for _ in range(3)]
        vec = np.kron(np.kron(parts[0], parts[1]), parts[2])
        vec /= np.linalg.norm(vec)
        rho = DensityMatrix((2, 2, 2), np.outer(vec, vec.conj()))
        for party in range(3):
            worst_product = max(worst_product, bipartite_negativity(rho, party))

    ghz = np.zeros(8, dtype=complex)
    ghz[0] = ghz[7] = 1.0 / math.sqrt(2.0)
    ghz_dm = DensityMatrix((2, 2, 2), np.outer(ghz, ghz.conj()))
    w = np.zeros(8, dtype=complex)
    w[1] = w[2] = w[4] = 1.0 / math.sqrt(3.0)
    w_dm = DensityMatrix((2, 2, 2), np.outer(w, w.conj()))
    ghz_err = max(
        abs(tripartite_negativity(ghz_dm) - 1.0),
        abs(tripartite_negativity_by_jacobi(ghz_dm.mat, (2, 2, 2)) - 1.0),
    )
    w_expected = 2.0 * math.sqrt(2.0) / 3.0
    w_err = max(
        abs(tripartite_negativity(w_dm) - w_expected),
        abs(tripartite_negativity_by_jacobi(w_dm.mat, (2, 2, 2)) - w_expected),
    )

    involution_exact = True
    for _ in range(10):
        raw = rng.normal(size=(8, 8)) + 1j * rng.normal(size=(8, 8))
        dm = DensityMatrix((2, 2, 2), 0.5 * (raw + raw.conj().T))
        for party in range(3):
            twice = partial_transpose(partial_transpose(dm, party), party)
            involution_exact = involution_exact and np.array_equal(twice.mat, dm.mat)

    worst_prob = 0.0
    for stats in (BOS, FER):
        basis = enumerate_basis(3, 6, stats)
        decs = [
            SectorDecomposition(basis, ADJACENT_PARTITION),
            SectorDecomposition(basis, ALTERNATING_PARTITION),
        ]
        for _ in range(50):
            amp = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
            state = ManyBodyState(basis, amp / np.linalg.norm(amp))
            for dec in decs:
                total = sum(sec.prob for sec in dec.project_state(state))
                worst_prob = max(worst_prob, abs(total - 1.0))

    report(
        "7",
        worst_product <= 1e-10
        and ghz_err <= 1e-9
        and w_err <= 1e-9
        and involution_exact
        and worst_prob <= 1e-12,
        f"product negativity {worst_product:.2e}, GHZ err {ghz_err:.2e}, "
        f"W err {w_err:.2e}, involution exact: {involution_exact}, "
        f"sector probability sum error {worst_prob:.2e}",
    )


def test_criterion_8_fermionic_sign_correctness():
    basis = enumerate_basis(3, 6, FER)
    dec = SectorDecomposition(basis, ALTERNATING_PARTITION)
    signs_ok = True
    for gi, occ in enumerate(basis.states):
        blocked = [
            m for party in ALTERNATING_PARTITION.parties for m in party if occ[m - 1]
        ]
        counts = tuple(
            sum(occ[m - 1] for m in party) for party in ALTERNATING_PARTITION.parties
        )
        sector = dec.sectors[counts]
        gathered = sector.sign[sector.index == gi].sum()
        signs_ok = signs_ok and gathered == bubble_sort_parity(blocked)

    rng = np.random.default_rng(80)
    amp = rng.normal(size=len(basis)) + 1j * rng.normal(size=len(basis))
    state = ManyBodyState(basis, amp / np.linalg.norm(amp))
    base = entanglement_of_particles(state, ALTERNATING_PARTITION).eps_t
    worst = 0.0
    for perms in itertools.product([0, 1], repeat=3):
        parties = tuple(
            party if not flip else party[::-1]
            for party, flip in zip(ALTERNATING_PARTITION.parties, perms)
        )
        value = entanglement_of_particles(state, Partition(*parties)).eps_t
        worst = max(worst, abs(value - base))
    report(
        "8",
        signs_ok and worst <= 1e-12,
        f"all 20 projection signs match the parity oracle: {signs_ok}; "
        f"within-party permutation shift {worst:.2e}",
    )
