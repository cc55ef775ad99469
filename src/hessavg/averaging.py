"""Online weighted averaging of Hessian estimates.

The running average follows the recursion

    H_tilde_t = (w_{t-1}/w_t) H_tilde_{t-1} + (1 - w_{t-1}/w_t) H_hat_t

with H_tilde_{-1} = 0 and w_{-1} = 0, which reproduces the batch weighted
average sum_i z_{i,t} H_hat_i with z_{i,t} = (w_i - w_{i-1})/w_t.  Weight
sequences grow at different speeds:

* ``Uniform``: w(t) = t+1, plain arithmetic mean.
* ``Power``: w(t) = (t+1)^p, more mass on recent estimates.
* ``LogPower``: w(t) = (t+1)^{scale * ln(t+1)}, eventually faster than any
  power for any positive scale.
* ``LastOnly``: no averaging at all, the state is the latest estimate.

LogPower values overflow float range only past t ~ 1e11; ratios and
normalized weights are computed in log space so the recursion stays finite
long before that point matters.
"""

import math
from dataclasses import dataclass, field

import numpy as np


@dataclass(frozen=True)
class LastOnly:
    """No averaging: the state tracks the most recent estimate."""


@dataclass(frozen=True)
class Power:
    """w(t) = (t + 1)^p with p >= 1."""

    p: float

    def __post_init__(self):
        if not self.p >= 1:
            raise ValueError("power exponent p must be >= 1")

    def log_weight(self, t: float) -> float:
        return self.p * math.log(t + 1)

    def inverse_log_weight(self, log_w: float) -> float:
        """The t with ln w(t) = log_w: exp(log_w / p) - 1."""
        return math.expm1(log_w / self.p)

    def growth_ratio(self, t: float) -> float:
        return self.p / (t + 1.0)


@dataclass(frozen=True)
class Uniform(Power):
    """w(t) = t + 1 (arithmetic mean): a Power with p fixed to 1.

    Every Power formula multiplies or raises by p, and both are exact at
    p = 1, so the values equal the plain closed forms bit for bit.
    """

    p: float = field(default=1.0, init=False, repr=False)


@dataclass(frozen=True)
class LogPower:
    """w(t) = (t + 1)^{scale * ln(t + 1)}.

    The default scale of 1 gives the natural-log sequence (t+1)^{ln(t+1)}.
    A scale of 1/ln(10) gives (t+1)^{log10(t+1)}, which grows more slowly
    and therefore averages over a wider window at any fixed t.
    """

    scale: float = 1.0

    def __post_init__(self):
        if not self.scale > 0.0:
            raise ValueError("scale must be positive")

    def log_weight(self, t: float) -> float:
        lt = math.log(t + 1)
        return self.scale * lt * lt

    def inverse_log_weight(self, log_w: float) -> float:
        """The t >= 0 with ln w(t) = log_w: exp(sqrt(log_w / scale)) - 1.

        ln w rises from 0 at t = 0, so every log_w <= 0 gives t = 0.
        """
        return math.expm1(math.sqrt(max(log_w, 0.0) / self.scale))

    def growth_ratio(self, t: float) -> float:
        return 2.0 * self.scale * math.log(t + 1.0) / (t + 1.0)


@dataclass
class AveragingState:
    """Running average H_tilde_t together with the index t."""

    h_tilde: np.ndarray
    t: int


def initial_state(d: int) -> AveragingState:
    """State before any update: H_tilde = 0, t = -1."""
    return AveragingState(np.zeros((d, d)), -1)


def _sequence(seq):
    """seq itself when it is a weight sequence; TypeError otherwise."""
    if isinstance(seq, LastOnly):
        raise TypeError("LastOnly is not weight-based")
    if not isinstance(seq, (Power, LogPower)):
        raise TypeError("unknown weight sequence: %r" % (seq,))
    return seq


def log_weight(seq, t: int) -> float:
    """ln w(t), with -inf at t = -1.  Safe where w(t) itself overflows."""
    seq = _sequence(seq)
    if t < -1:
        raise ValueError("t must be >= -1")
    return -math.inf if t == -1 else seq.log_weight(t)


def growth_ratio(seq, t: float) -> float:
    """w'(t)/w(t) of the continuous extension, in closed form.

    Stays finite for t far beyond where w(t) itself overflows, which the
    transition-point calculators rely on.
    """
    return _sequence(seq).growth_ratio(t)


def update(state: AveragingState, seq, h_hat: np.ndarray) -> AveragingState:
    """Fold one estimate into the average; returns a new state."""
    d = state.h_tilde.shape[0]
    if h_hat.shape != (d, d):
        raise ValueError("estimate shape %r does not match state dimension %d"
                         % (h_hat.shape, d))
    t = state.t + 1
    if isinstance(seq, LastOnly):
        return AveragingState(np.array(h_hat, dtype=float), t)
    # w(t-1)/w(t) in log space; exactly 0 at t = 0, where ln w(-1) = -inf.
    r = math.exp(log_weight(seq, t - 1) - log_weight(seq, t))
    h = r * state.h_tilde
    h += (1.0 - r) * h_hat
    return AveragingState(h, t)


def normalized_weights(seq, t: int) -> np.ndarray:
    """The batch weights z_{i,t} = (w_i - w_{i-1})/w_t for i = 0..t."""
    seq = _sequence(seq)
    if t < 0:
        raise ValueError("t must be >= 0")
    lw = np.array([log_weight(seq, i) for i in range(t + 1)])
    rel = np.exp(lw - lw[-1])
    z = np.empty(t + 1)
    z[0] = rel[0]
    if t > 0:
        z[1:] = rel[:-1] * np.expm1(lw[1:] - lw[:-1])
    return z


def psi_bound(seq, horizon: int) -> float:
    """Max growth ratio max(w(t+1)/w(t), w'(t+1)/w'(t)) over t in [0, horizon].

    Ratios with a zero denominator are skipped; the only such case among
    the implemented sequences is the LogPower derivative at t = 0.
    """
    seq = _sequence(seq)
    if horizon < 1:
        raise ValueError("horizon must be >= 1")
    best = 0.0
    for t in range(horizon + 1):
        step = math.exp(seq.log_weight(t + 1) - seq.log_weight(t))
        best = max(best, step)
        g = seq.growth_ratio(t)
        if g > 0.0:
            # w'(t+1)/w'(t) with w' = w * growth_ratio.
            best = max(best, step * seq.growth_ratio(t + 1) / g)
    return best
