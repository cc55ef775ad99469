"""Synthetic logistic-regression instances with controlled spectrum.

A = U Sigma with U the orthonormal factor of a Gaussian matrix (row-rescaled
and re-orthonormalized for high coherence) and Sigma a linear ramp of singular
values from 1 to kappa_A.  Labels follow the planted logistic model.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

import numpy as np
import scipy.linalg
from scipy.special import expit

from ._blas import single_thread
from .problem import Dataset

COHERENCE_MODES = ("low", "high")


@dataclass
class DataGenConfig:
    """generate's inputs; reg_nu is only recorded (generate never reads it)."""

    n: int
    d: int
    coherence_mode: str  # "low" or "high"
    kappa_A: float
    reg_nu: float
    seed: int

    def __post_init__(self):
        if self.d < 1 or self.n < self.d:
            raise ValueError("need n >= d >= 1")
        if self.coherence_mode not in COHERENCE_MODES:
            raise ValueError(f"coherence_mode must be one of {COHERENCE_MODES}")
        if not 1 <= self.kappa_A < math.inf:
            raise ValueError("kappa_A must be finite and >= 1")
        if not 0 <= self.reg_nu < math.inf:
            raise ValueError("reg_nu must be finite and nonnegative")


@single_thread()
def coherence(A: np.ndarray) -> float:
    """(n/d) times the max squared row norm of the left singular factor of A."""
    A = np.asarray(A, dtype=float)
    n, d = A.shape
    U, s, _ = np.linalg.svd(A, full_matrices=False)
    if s[-1] <= s[0] * max(n, d) * np.finfo(float).eps:
        raise ValueError("coherence undefined: A is rank deficient")
    return n / d * float(np.max(np.sum(U * U, axis=1)))


@single_thread()
def condition_number(A: np.ndarray) -> float:
    """sigma_max(A) / sigma_min(A)."""
    s = np.linalg.svd(np.asarray(A, dtype=float), compute_uv=False)
    if s[-1] <= s[0] * max(A.shape) * np.finfo(float).eps:
        raise ValueError("condition number undefined: A is rank deficient")
    return float(s[0] / s[-1])


def _orthonormal_factor(G: np.ndarray) -> np.ndarray:
    """Q of the Fortran-ordered G's economic QR, formed in G's own memory.

    scipy's qr runs the same LAPACK geqrf/orgqr pair as numpy's, each sized
    by the same workspace query, so Q has numpy's bits.  numpy's qr copies
    its input, and its gufuncs copy that again into Fortran work arrays.
    """
    Q, _ = scipy.linalg.qr(G, mode="economic", overwrite_a=True,
                           check_finite=False)
    return Q


@single_thread()
def generate(config: DataGenConfig) -> tuple[Dataset, np.ndarray]:
    """Draw a dataset and its planted x_true; identical (config, seed) gives identical output.

    Low coherence keeps the orthonormal factor U as is.  High coherence divides
    each row of U by sqrt(z_i), z_i ~ Gamma(shape 0.5, scale 2), then restores
    orthonormality of the columns, which concentrates row leverage while keeping
    the singular values (and hence the condition number) exactly as configured;
    ``coherence`` and ``condition_number`` measure what was achieved.  It runs
    on one BLAS thread, so its bits do not depend on the caller's thread count.

    At most two n x d arrays are alive at once: the Gaussian draw goes to
    Fortran order for the QR, which then works in place, as does the
    high-coherence rescaling and its QR; A is formed in C order beside U, so
    ``Dataset`` keeps it without a copy.
    """
    rng = np.random.default_rng(config.seed)
    n, d = config.n, config.d
    U = _orthonormal_factor(np.asfortranarray(rng.standard_normal((n, d))))
    if config.coherence_mode == "high":
        z = rng.gamma(shape=0.5, scale=2.0, size=n)
        while np.any(z == 0.0):  # probability-zero guard per the contract
            z[z == 0.0] = rng.gamma(shape=0.5, scale=2.0, size=int(np.sum(z == 0.0)))
        U /= np.sqrt(z)[:, None]
        U = _orthonormal_factor(U)
    sing = np.linspace(1.0, config.kappa_A, d)
    A = np.multiply(U, sing, order="C")  # A = U Sigma with V = I
    x_true = rng.standard_normal(d) / np.sqrt(d)
    p_plus = expit(A @ x_true)
    b = np.where(rng.random(n) < p_plus, 1, -1)
    return Dataset(A=A, b=b), x_true
