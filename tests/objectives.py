"""Objectives that only the tests use."""

import numpy as np

from hessavg.problem import Objective, _as_vector


class QuadraticTest(Objective):
    """f(x) = (1/2) x^T Q x - c^T x with SPD Q; exact Newton solves it in one step."""

    def __init__(self, Q: np.ndarray, c: np.ndarray):
        Q = np.asarray(Q, dtype=float)
        c = np.asarray(c, dtype=float)
        if Q.ndim != 2 or Q.shape[0] != Q.shape[1]:
            raise ValueError("Q must be square")
        if not np.array_equal(Q, Q.T):
            raise ValueError("Q must be exactly symmetric")
        # Positive definiteness check; Cholesky raises on failure.
        np.linalg.cholesky(Q)
        if c.shape != (Q.shape[0],):
            raise ValueError("c must match Q")
        self.Q = Q
        self.c = c

    @property
    def dim(self) -> int:
        return self.Q.shape[0]

    def margins(self, x) -> np.ndarray:
        """x itself: the identity is linear, and no evaluation reads it."""
        return _as_vector(x, self.dim)

    def value(self, x, margins=None) -> float:
        x = _as_vector(x, self.dim)
        return 0.5 * float(x @ self.Q @ x) - float(self.c @ x)

    def gradient(self, x, margins=None) -> np.ndarray:
        x = _as_vector(x, self.dim)
        return self.Q @ x - self.c

    def hessian(self, x, margins=None) -> np.ndarray:
        _as_vector(x, self.dim)
        return self.Q.copy()
