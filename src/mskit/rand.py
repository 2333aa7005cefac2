"""Seeded randomness: counter-based generator and Haar-distributed unitaries."""

from __future__ import annotations

import numpy as np


def rng_from_seed(seed: int) -> np.random.Generator:
    """Philox (counter-based) generator; same seed, same stream, any platform."""
    return np.random.Generator(np.random.Philox(seed))


def haar_unitary(d: int, rng: np.random.Generator) -> np.ndarray:
    """QR of a complex Ginibre matrix with the R diagonal phase fixed."""
    z = (rng.standard_normal((d, d)) + 1j * rng.standard_normal((d, d))) / np.sqrt(2)
    q, r = np.linalg.qr(z)
    ph = np.diag(r).copy()
    ph /= np.abs(ph)
    return q * ph


def random_density(d: int, rng: np.random.Generator, rank: int | None = None) -> np.ndarray:
    """PSD trace-one matrix from a Ginibre factor of the given rank."""
    rank = d if rank is None else rank
    g = rng.standard_normal((d, rank)) + 1j * rng.standard_normal((d, rank))
    rho = g @ g.conj().T
    return rho / np.trace(rho).real
