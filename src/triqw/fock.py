"""Occupation-number (Fock) bases and second-quantized operators.

Conventions used throughout the package:

* Modes are labelled 1..L.  An occupation state is a plain tuple of
  non-negative integers ``(n_1, ..., n_L)``.
* The basis ket ``|n_1 ... n_L>`` stands for the canonically ordered
  operator string ``(c_1^+)^{n_1} ... (c_L^+)^{n_L} |0>``, with bosonic
  kets carrying the usual ``1/sqrt(n_i!)`` normalization.  Under this
  convention ket labels are sign-free and every fermionic sign lives in
  the operator application rules below.
* ``_integer`` is the package's one integer check of caller input,
  ``_real`` its one check of a time, and ``_occupations`` its one check
  of a walk's initial occupation.
* ``_monomial_amplitudes`` is the one path to monomial amplitudes: one
  cached plan per basis and initial occupation, for a stack of matrices.
"""

from __future__ import annotations

import functools
import itertools
import math
import numbers
import operator
from dataclasses import dataclass
from enum import Enum

import numpy as np


class Statistics(Enum):
    """Exchange statistics of the identical particles."""

    BOSONS = "bosons"
    FERMIONS = "fermions"

    @property
    def exclusive(self) -> bool:
        """True when at most one particle may occupy a mode."""
        return self is Statistics.FERMIONS

    @classmethod
    def from_name(cls, name: str) -> "Statistics":
        try:
            return cls(name.lower())
        except ValueError:
            raise ValueError(f"unknown statistics {name!r}; use 'bosons' or 'fermions'")


def _integer(value, message: str, low: int = 0, high: int | None = None) -> int:
    """``value`` as a Python int in ``[low, high]``, else ValueError(message,
    got value): numpy integers pass, bools and floats such as ``1.0`` fail,
    none is truncated."""
    try:
        checked = operator.index(None if isinstance(value, bool) else value)
    except TypeError:
        checked = None
    if checked is None or checked < low or (high is not None and checked > high):
        raise ValueError(f"{message}, got {value!r}")
    return checked


def _real(value, name: str) -> float:
    """``value`` as a Python float for a Python or numpy real scalar, else
    ValueError: bools, strings, complex numbers, None and arrays fail."""
    if isinstance(value, bool) or not isinstance(value, numbers.Real):
        raise ValueError(f"{name} must be a real number, got {value!r}")
    return float(value)


def _integers(values, message: str, low: int = 0) -> tuple[int, ...]:
    """Each of ``values`` through ``_integer``; the message quotes them all."""
    try:
        return tuple(_integer(v, message, low) for v in values)
    except (TypeError, ValueError):
        raise ValueError(f"{message}, got {values!r}") from None


def _occupations(init, n_modes=None, stats=None) -> tuple[int, ...]:
    """``init`` as Python ints: one non-negative integer per site, ``n_modes``
    sites when given, at most one per site when ``stats`` is fermionic."""
    init = _integers(init, "initial occupations must be non-negative integers")
    if n_modes is not None and len(init) != n_modes:
        raise ValueError(f"initial occupation has {len(init)} sites, the lattice has {n_modes}")
    if stats is Statistics.FERMIONS and any(n > 1 for n in init):
        raise ValueError("fermionic occupations must be 0 or 1")
    return init


class FockBasis:
    """Complete N-particle basis on L modes for one statistics.

    States are enumerated once, in lexicographic order on the occupation
    tuple, so indices are stable across runs.  Two bases with the same
    (N, L, statistics) compare equal.
    """

    def __init__(self, n_particles: int, n_modes: int, stats: Statistics):
        n_particles = _integer(n_particles, "particle count must be a non-negative integer")
        n_modes = _integer(n_modes, "mode count must be a positive integer", low=1)
        if stats.exclusive and n_particles > n_modes:
            raise ValueError(
                f"no fermionic states with {n_particles} particles on {n_modes} modes"
            )
        self.n_particles = n_particles
        self.n_modes = n_modes
        self.stats = stats
        # One state per multiset of occupied modes (per set, for fermions).
        pick = itertools.combinations if stats.exclusive else itertools.combinations_with_replacement
        occupied = pick(range(n_modes), n_particles)
        self.states: tuple[tuple[int, ...], ...] = tuple(
            sorted(tuple(map(modes.count, range(n_modes))) for modes in occupied)
        )
        self._index = {occ: i for i, occ in enumerate(self.states)}

    def __len__(self) -> int:
        return len(self.states)

    def index(self, occ) -> int:
        """Position of an occupation tuple in the enumeration; ValueError
        for an occupation that is not a state of this basis."""
        try:
            return self._index[tuple(occ)]
        except KeyError:
            raise ValueError(f"occupation {occ!r} is not a state of {self!r}") from None

    def __eq__(self, other) -> bool:
        return (
            isinstance(other, FockBasis)
            and self.n_particles == other.n_particles
            and self.n_modes == other.n_modes
            and self.stats is other.stats
        )

    def __hash__(self) -> int:
        return hash((self.n_particles, self.n_modes, self.stats))

    def __repr__(self) -> str:
        return (
            f"FockBasis(N={self.n_particles}, L={self.n_modes}, "
            f"{self.stats.value}, dim={len(self.states)})"
        )


def enumerate_basis(n_particles: int, n_modes: int, stats: Statistics) -> FockBasis:
    """Enumerate the complete occupation-number basis.

    Dimension is C(L+N-1, N) for bosons and C(L, N) for fermions.
    """
    return FockBasis(n_particles, n_modes, stats)


def _check_mode(occ, mode: int) -> None:
    if not 1 <= mode <= len(occ):
        raise ValueError(f"mode {mode} out of range 1..{len(occ)}")


def apply_creation(occ, mode: int, stats: Statistics):
    """Apply c_mode^+ to a basis ket.

    Returns ``(factor, new_occ)`` or ``None`` when the result vanishes
    (fermionic mode already occupied).  Bosons pick up sqrt(n+1); the
    fermionic factor is (-1)^(number of occupied modes left of `mode`),
    fixed by the canonical operator ordering in the ket convention.
    """
    _check_mode(occ, mode)
    i = mode - 1
    if stats.exclusive:
        if occ[i]:
            return None
        sign = -1.0 if sum(occ[:i]) % 2 else 1.0
        return sign, occ[:i] + (1,) + occ[i + 1 :]
    return math.sqrt(occ[i] + 1.0), occ[:i] + (occ[i] + 1,) + occ[i + 1 :]


@dataclass
class ManyBodyState:
    """Complex amplitude vector over an enumerated Fock basis."""

    basis: FockBasis
    amp: np.ndarray

    def __post_init__(self):
        self.amp = np.asarray(self.amp, dtype=complex)
        if self.amp.shape != (len(self.basis),):
            raise ValueError(
                f"amplitude vector has shape {self.amp.shape}, basis has {len(self.basis)} states"
            )
        if not np.isfinite(self.amp).all():
            raise ValueError("amplitudes must be finite")

    @classmethod
    def basis_ket(cls, basis: FockBasis, occ) -> "ManyBodyState":
        amp = np.full(len(basis), 0j)
        amp[basis.index(occ)] = 1.0
        return cls(basis, amp)


@dataclass
class DensityMatrix:
    """Hermitian density matrix over a labelled tensor-product space.

    ``dims`` lists the subsystem dimensions (length 1 for an unfactored
    space such as a full Fock basis).
    """

    dims: tuple[int, ...]
    mat: np.ndarray

    def __post_init__(self):
        self.dims = _integers(self.dims, "density matrix dims must be positive integers", low=1)
        self.mat = np.asarray(self.mat, dtype=complex)
        d = math.prod(self.dims)
        if self.mat.shape != (d, d):
            raise ValueError(f"matrix shape {self.mat.shape} does not match dims {self.dims}")
        # One pass: a non-finite entry makes the residual nan or inf, so
        # the finiteness check runs only to pick the message.
        with np.errstate(invalid="ignore"):
            residual = np.abs(self.mat - self.mat.conj().T).max()
        if not residual <= 1e-12:
            if not np.isfinite(self.mat).all():
                raise ValueError("density matrix entries must be finite")
            raise ValueError("density matrix is not Hermitian within 1e-12")

    def trace(self) -> float:
        return float(self.mat.trace().real)

    @classmethod
    def from_state(cls, state: ManyBodyState) -> "DensityMatrix":
        """Pure-state projector on the full Fock basis."""
        return cls((len(state.basis),), np.outer(state.amp, state.amp.conj()))


@functools.lru_cache(maxsize=64)
def _expansion_plan(basis: FockBasis, init: tuple[int, ...]):
    """Index arrays that expand ``init``'s monomial on ``basis``.

    Runs the expansion loop on symbols only: factors are applied in
    descending mode order, terms in insertion order, creations in
    ascending mode order, and every coefficient adds a term, zero or not.
    Returns ``(steps, positions)``.  Each step is ``(src, col, factor,
    dst, size)``: term ``j`` of the step adds ``terms[src[j]] *
    coeffs.flat[col[j]] * factor[j]`` to new term ``dst[j]`` of ``size``,
    where ``col`` indexes the flattened L x L matrix.  ``positions`` holds
    the basis index of every final term.  All arrays are read-only,
    because plans are shared between calls.
    """
    L = basis.n_modes
    terms = {(0,) * L: 0}
    steps = []
    for row in range(L - 1, -1, -1):
        for _ in range(init[row]):
            new: dict[tuple[int, ...], int] = {}
            src, col, factors, dst = [], [], [], []
            for occ, j in terms.items():
                for i in range(L):
                    created = apply_creation(occ, i + 1, basis.stats)
                    if created is None:
                        continue
                    src.append(j)
                    col.append(row * L + i)
                    factors.append(created[0])
                    dst.append(new.setdefault(created[1], len(new)))
            arrays = (_read_only(src, np.intp), _read_only(col, np.intp))
            arrays += (_read_only(factors, float), _read_only(dst, np.intp))
            steps.append((*arrays, len(new)))
            terms = new
    return tuple(steps), _read_only([basis.index(occ) for occ in terms], np.intp)


def _read_only(values, dtype=None) -> np.ndarray:
    """A read-only array of ``values``, for tables shared between callers."""
    arr = np.array(values, dtype=dtype)
    arr.setflags(write=False)
    return arr


def _monomial_amplitudes(basis: FockBasis, init: tuple[int, ...], coeffs: np.ndarray) -> np.ndarray:
    """``(..., len(basis))`` amplitudes of ``init``'s monomial (checked by the
    caller) for the ``(..., L, L)`` complex ``coeffs``, one matrix at a time
    through the cached ``_expansion_plan``: only gathers, multiplies and
    sums, bit for bit the per-term loop ``new[occ2] = new.get(occ2, 0j) +
    amp * c * factor``:

    * ``amp * c`` is numpy's scalar complex product, written out on real
      and imaginary parts, because the vectorised complex product can
      differ from it in the last bit;
    * the scalar product by ``factor + 0i`` differs from scaling both
      parts by ``factor`` only in the sign of a zero, and no zero's sign
      reaches an amplitude: every sum starts from +0;
    * ``np.bincount`` adds each amplitude's terms in the loop's order.
    """
    steps, positions = _expansion_plan(basis, init)
    flat = coeffs.reshape(-1, basis.n_modes**2)
    norm = math.sqrt(math.prod(math.factorial(n) for n in init))
    amps = np.full((len(flat), len(basis)), 0j)
    for mat, amp in zip(flat, amps):
        re, im = np.array([1.0]), np.array([0.0])  # the vacuum, 1 + 0i
        for src, col, factor, dst, size in steps:
            ar, ai = re[src], im[src]
            c = mat[col]
            cr, ci = c.real, c.imag
            pr = (ar * cr - ai * ci) * factor
            pi = (ar * ci + ai * cr) * factor
            re = np.bincount(dst, weights=pr, minlength=size)
            im = np.bincount(dst, weights=pi, minlength=size)
        values = np.empty(len(re), dtype=complex)
        values.real, values.imag = re, im
        amp[positions] = values / norm
    return amps.reshape(coeffs.shape[:-2] + (len(basis),))


def build_monomial_state(basis: FockBasis, coeffs, init) -> ManyBodyState:
    """Expand a product of dressed creation operators on the basis.

    Builds ``prod_p (sum_s coeffs[p, s] c_s^+)^{n_p} |0> / sqrt(prod_p n_p!)``
    where ``n_p`` runs over the occupations of ``init`` and the factors
    are applied in descending mode order so that identity coefficients
    reproduce ``|init>`` with amplitude one.  The result is normalized
    whenever the rows of ``coeffs`` for occupied sites are orthonormal
    (in particular for any unitary ``coeffs``).
    """
    init = _occupations(init, basis.n_modes, basis.stats)
    if sum(init) != basis.n_particles:
        raise ValueError("initial occupation does not match the basis")
    coeffs = np.asarray(coeffs, dtype=complex)
    if coeffs.shape != (basis.n_modes, basis.n_modes):
        raise ValueError("coefficient matrix must be L x L")
    return ManyBodyState(basis, _monomial_amplitudes(basis, init, coeffs))
