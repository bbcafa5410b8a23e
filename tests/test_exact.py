"""Checks anchored in exact values rather than in stored output.

* The phi family has closed forms for both measures.  Its four kets map to
  product kets of the occupation-qubit tensor, so every one-party marginal
  is diagonal in the weights; in the adjacent partition only the first two
  kets lie in the (1, 1, 1) sector, where they form a GHZ-type pair.
* The chi state has a closed-form ``eps_G`` and an ``eps_T`` of exactly 0,
  because every sector has a party with a one-dimensional local space.
  Both are bit for bit the same under every relabelling of its parties.
* The walk is symmetric under time reversal (C(-tau) = C(tau)*) and under
  the mirror m -> 7 - m of the chain.
* The batched kernels give the same bits wherever their input sits in
  memory and whatever batch a state shares.
"""

import itertools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from triqw import (
    ADJACENT_PARTITION,
    ALTERNATING_PARTITION,
    CHI_PARTITION,
    WALK_INIT,
    Partition,
    Statistics,
    chi_report,
    chi_state,
    entanglement_of_particles,
    enumerate_basis,
    geometric_measure,
    phi_scan,
    walk_scan,
)
from triqw.dynamics import _propagator
from triqw.entanglement import _decomposition, _eps_t_kernel, _geometric_kernel
from triqw.fock import _monomial_amplitudes

SCENARIOS = [
    (stats, partition)
    for stats in (Statistics.BOSONS, Statistics.FERMIONS)
    for partition in (ADJACENT_PARTITION, ALTERNATING_PARTITION)
]
WALK_COLUMNS = ("p111", "n_a_bc", "n_b_ac", "n_c_ab", "tpn", "eps_t")


@pytest.fixture(scope="module")
def default_phi_scan():
    return phi_scan()


def grid_weights(scan):
    """(4, A, B) weights of the four phi kets on the scan's grid, written out."""
    alpha, beta = scan.alphas[:, None], scan.betas[None, :]
    half = np.sin(alpha) / math.sqrt(2.0)
    return np.stack(
        np.broadcast_arrays(np.cos(alpha) * np.cos(beta), np.cos(alpha) * np.sin(beta), half, half)
    )


class TestPhiClosedForms:
    def test_grid_is_the_default_one(self, default_phi_scan):
        assert np.array_equal(default_phi_scan.alphas, np.linspace(0.0, math.pi, 101))
        assert np.array_equal(default_phi_scan.betas, np.linspace(0.0, math.pi, 101))

    def test_eps_t(self, default_phi_scan):
        scan = default_phi_scan
        alpha, beta = scan.alphas[:, None], scan.betas[None, :]
        expected = np.cos(alpha) ** 2 * np.abs(np.sin(2.0 * beta))
        assert np.abs(scan.eps_t - expected).max() <= 1e-12

    def test_eps_g(self, default_phi_scan):
        # marginal purities of the three two-mode parties: the kets' A and C
        # patterns are pairwise distinct, while B pairs kets 1 with 4 and 2
        # with 3
        p = np.abs(grid_weights(default_phi_scan)) ** 2
        p_a = p_c = (p**2).sum(axis=0)
        p_b = (p[0] + p[3]) ** 2 + (p[1] + p[2]) ** 2
        expected = np.sqrt(8.0 * (63.0 - 12.0 * (p_a + p_b + p_c))) - 6.0 * math.sqrt(6.0)
        assert np.abs(default_phi_scan.eps_g - expected).max() <= 1e-12


def test_chi_closed_forms():
    report = chi_report()
    assert abs(report["eps_G"] - (math.sqrt(11.0 / 3.0) - 1.0)) <= 1e-14
    assert report["eps_T"] == 0.0


@pytest.mark.parametrize("order", list(itertools.permutations((1, 2, 3))))
def test_chi_measures_are_blind_to_party_labels(order):
    # why chi_report takes no partition: every relabelling of the three
    # single-mode parties gives the same bits
    state = chi_state()

    def bits(partition):
        eps_t = entanglement_of_particles(state, partition).eps_t
        return float(geometric_measure(state, partition)).hex(), float(eps_t).hex()

    assert bits(Partition(*[(m,) for m in order])) == bits(CHI_PARTITION)


class TestWalkSymmetries:
    @pytest.mark.parametrize("stats, partition", SCENARIOS)
    def test_time_reversal_is_bit_exact(self, stats, partition):
        forward = walk_scan(stats, partition, tau_max=20.0)
        backward = walk_scan(stats, partition, tau_max=-20.0)
        for name in WALK_COLUMNS:
            assert getattr(backward, name).tobytes() == getattr(forward, name).tobytes(), name

    @pytest.mark.parametrize("stats, partition", SCENARIOS)
    def test_mirror(self, stats, partition):
        # m -> 7 - m maps WALK_INIT onto (0,0,0,1,1,1) and each default
        # partition onto itself with its parties reversed, so the A and C
        # cuts swap
        mirrored = Partition(*[tuple(7 - m for m in p) for p in reversed(partition.parties)])
        init = tuple(reversed(WALK_INIT))
        assert init == (0, 0, 0, 1, 1, 1)
        scan = walk_scan(stats, partition)
        image = walk_scan(stats, mirrored, init=init)
        assert np.abs(image.p111 - scan.p111).max() <= 1e-13
        pairs = [("tpn", "tpn"), ("eps_t", "eps_t")]
        pairs += [("n_a_bc", "n_c_ab"), ("n_b_ac", "n_b_ac"), ("n_c_ab", "n_a_bc")]
        for name, image_name in pairs:
            deviation = np.abs(getattr(image, image_name) - getattr(scan, name)).max()
            assert deviation <= 1e-10, name


def placed(array: np.ndarray, offset: int) -> np.ndarray:
    """A copy of ``array`` whose data starts ``offset`` bytes past a 64-byte boundary."""
    buffer = np.empty(array.nbytes + 64, dtype=np.uint8)
    start = (offset - buffer.ctypes.data) % 64
    copy = buffer[start : start + array.nbytes].view(array.dtype).reshape(array.shape)
    copy[...] = array
    assert copy.ctypes.data % 64 == offset
    return copy


class TestAlignmentRepeatability:
    """The batched sums give the same bits at every 8-byte offset modulo 64."""

    @pytest.mark.parametrize("stats, partition", SCENARIOS)
    @pytest.mark.parametrize("dense", [False, True])
    def test_eps_t_kernel_is_bit_identical_at_every_offset(self, stats, partition, dense):
        basis = enumerate_basis(3, 6, stats)
        dec = _decomposition(basis, partition)
        rng = np.random.default_rng(2011)
        n = len(basis)
        if dense:
            vecs = rng.normal(size=(8, 2, n)) + 1j * rng.normal(size=(8, 2, n))
            vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
            weights = rng.uniform(0.1, 1.0, size=(8, 2))
            weights /= weights.sum(axis=1, keepdims=True)
            states = np.einsum("br,bri,brj->bij", weights, vecs, vecs.conj())
        else:
            states = rng.normal(size=(64, n)) + 1j * rng.normal(size=(64, n))
            states /= np.linalg.norm(states, axis=-1, keepdims=True)
        reference = [out.tobytes() for out in _eps_t_kernel(dec, placed(states, 0))]
        for offset in range(8, 64, 8):
            outputs = _eps_t_kernel(dec, placed(states, offset))
            assert [out.tobytes() for out in outputs] == reference, offset

    @settings(max_examples=60, deadline=None)
    @given(
        seed=st.integers(0, 2**32 - 1),
        batch=st.integers(1, 9),
        dense=st.booleans(),
        stats=st.sampled_from(list(Statistics)),
        sizes=st.tuples(*[st.integers(1, 2)] * 3),
        data=st.data(),
    )
    def test_kernels_are_bit_identical_over_every_split(
        self, seed, batch, dense, stats, sizes, data
    ):
        # a stack gives the bits of the concatenation of its sub-batches
        n_modes = sum(sizes)
        modes = data.draw(st.permutations(range(1, n_modes + 1)))
        partition = Partition(modes[: sizes[0]], modes[sizes[0] : -sizes[2]], modes[-sizes[2] :])
        limit = 4 if stats is Statistics.BOSONS else min(4, n_modes)
        basis = enumerate_basis(data.draw(st.integers(1, limit)), n_modes, stats)
        cuts = sorted(data.draw(st.sets(st.integers(1, batch - 1))) if batch > 1 else set())
        # the drawn split, and every state on its own
        splits = [list(zip([0, *cuts], [*cuts, batch])), [(b, b + 1) for b in range(batch)]]
        rng = np.random.default_rng(seed)
        n = len(basis)
        vecs = rng.normal(size=(batch, 2, n)) + 1j * rng.normal(size=(batch, 2, n))
        vecs /= np.linalg.norm(vecs, axis=-1, keepdims=True)
        if dense:
            weights = rng.uniform(0.1, 1.0, size=(batch, 2))
            weights /= weights.sum(axis=1, keepdims=True)
            states = np.einsum("br,bri,brj->bij", weights, vecs, vecs.conj())
        else:
            states = vecs[:, 0]
        dim = 2 ** rng.integers(1, 3)
        tensors = rng.normal(size=(batch, dim, dim, dim)) + 1j * rng.normal(size=(batch, dim, dim, dim))
        taus = rng.uniform(-30.0, 30.0, size=batch)
        init = basis.states[rng.integers(n)]
        dec = _decomposition(basis, partition)
        kernels = {
            "eps_t": lambda lo, hi: _eps_t_kernel(dec, states[lo:hi]),
            "geometric": lambda lo, hi: (_geometric_kernel(tensors[lo:hi]),),
            "propagator": lambda lo, hi: (_propagator(n_modes, taus[lo:hi]),),
            "amplitudes": lambda lo, hi: (
                _monomial_amplitudes(basis, init, _propagator(n_modes, taus[lo:hi])),
            ),
        }
        for name, kernel in kernels.items():
            whole = [out.tobytes() for out in kernel(0, batch)]
            for bounds in splits:
                parts = zip(*(kernel(lo, hi) for lo, hi in bounds))
                assert [np.concatenate(part).tobytes() for part in parts] == whole, (name, bounds)

