"""Fixed calibration program: measures how fast the machine runs right now.

The runner times this child before the first pass and after every pass and
rescales the run's wall times by it (see run.py), so that wall times stay
comparable while the speed of a shared machine drifts.  Contention slows
interpreter-bound and memory-bound code by different factors, and a
workload's mix of the two changes as the program is optimised, so one
program does both kinds of work, for every workload and for set-up:

* dict-of-tuples arithmetic and small Hermitian eigensolves, as in the
  monomial expansion and the negativities;
* a generator-triple einsum chain over a batch of 101 three-party states,
  as in the geometric tensor norm.

It also pays interpreter start and the numpy import.  It does not import
triqw, so no change to triqw can change it.

Usage: python3 perfbench/calibrate.py
"""

import numpy as np


def interpreter(rng) -> None:
    terms = {}
    for i in range(240_000):
        key = (i % 7, i % 11, i % 13)
        terms[key] = terms.get(key, 0.0) + 0.5 * i
    a = rng.standard_normal((16, 16)) + 1j * rng.standard_normal((16, 16))
    h = a @ a.conj().T
    for _ in range(1200):
        np.linalg.eigvalsh(h)


def einsum(rng) -> None:
    psis = rng.standard_normal((101, 4, 4, 4)) + 1j * rng.standard_normal((101, 4, 4, 4))
    gens = rng.standard_normal((15, 4, 4)) + 1j * rng.standard_normal((15, 4, 4))
    for _ in range(2):
        t1 = np.einsum("...abc,iax->...ixbc", psis.conj(), gens)
        t2 = np.einsum("...ixbc,jby->...ijxyc", t1, gens)
        t3 = np.einsum("kcz,...xyz->...kxyc", gens, psis)
        corr = np.einsum("...ijxyc,...kxyc->...ijk", t2, t3)
        np.sum(np.abs(corr) ** 2, axis=(-3, -2, -1))


if __name__ == "__main__":
    rng = np.random.default_rng(0)
    interpreter(rng)
    einsum(rng)
