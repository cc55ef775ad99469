"""Closed-form transition points, rates, and concentration bounds.

The calculators here evaluate the quantities that predict when an averaged
stochastic Newton run changes behavior: the burn-in length t1, the linear
phase length t2, the superlinear onset, and the point where averaging noise
finally dominates.  They operate on a small bundle of problem constants
(condition number, noise level, weight sequence, line-search parameters)
and are used by the CLI's ``diag`` command, which prints the predicted
transition points, their self-checks, and sampled rate curves.

Quantities defined through implicit inequalities are solved numerically on
the integer grid (doubling plus bisection) rather than through asymptotic
shortcuts; u, defined by w alone, inverts ln w in closed form.  Everything
involving the weight sequence is evaluated in log space so fast-growing
sequences do not overflow.

With a noise-free oracle (upsilon = 0) the noise-dominated phase never
arrives; the affected calculators return ``NEVER`` (float infinity,
serialized as the string "inf").
"""

import math
from dataclasses import asdict, dataclass

import numpy as np

from .averaging import LastOnly, growth_ratio, log_weight
from .solver import DEFAULT_BETA, DEFAULT_RHO, check_armijo

NEVER = math.inf

# The doubling searches stop only where t + 1.0 nears the end of the float
# range: v's left side grows without bound for every weight sequence, and
# i1's growth expression can stay above its threshold past 2**62.
_BRACKET_LIMIT = 2 ** 1000


@dataclass
class TheoryInputs:
    """Problem constants consumed by the transition calculators.

    kappa and lambda_min describe the Hessian spectrum at the solution
    (kappa is lambda_max/lambda_min of f, not the data-matrix condition
    number), upsilon is the relative noise level of the Hessian oracle,
    radius_nu is the local-neighborhood parameter in (0, 1], and f0_gap
    is f(x0) - f(x*).
    """

    kappa: float
    lambda_min: float
    upsilon: float
    epsilon: float
    delta: float
    d: int
    radius_nu: float
    lipschitz_L: float
    f0_gap: float
    psi: float
    weights: object
    beta: float = DEFAULT_BETA
    rho: float = DEFAULT_RHO

    def __post_init__(self):
        if not 1 <= self.kappa < math.inf:
            raise ValueError("kappa must be finite and >= 1")
        if not 0 < self.lambda_min < math.inf:
            raise ValueError("lambda_min must be finite and positive")
        if not 0 <= self.upsilon < math.inf:
            raise ValueError("upsilon must be finite and nonnegative")
        if not 0.0 < self.epsilon < 1.0:
            raise ValueError("epsilon must lie in (0, 1)")
        if not 0.0 < self.delta < 1.0:
            raise ValueError("delta must lie in (0, 1)")
        if self.d < 1:
            raise ValueError("d must be >= 1")
        if self.d / self.delta < math.e:
            raise ValueError("d/delta must be at least e")
        if not 0.0 < self.radius_nu <= 1.0:
            raise ValueError("radius_nu must lie in (0, 1]")
        if not 0 <= self.lipschitz_L < math.inf:
            raise ValueError("lipschitz_L must be finite and nonnegative")
        if not 0 <= self.f0_gap < math.inf:
            raise ValueError("f0_gap must be finite and nonnegative")
        if not 1 <= self.psi < math.inf:
            raise ValueError("psi must be finite and >= 1")
        check_armijo(self.beta, self.rho)
        if isinstance(self.weights, LastOnly):
            raise ValueError("transition calculators need a weight sequence")


@dataclass
class TransitionReport:
    """All transition points for one parameter bundle (real-valued)."""

    t1: float
    t2: float
    t_total: float
    j_transition: float
    k_transition: float
    i1: float
    i_total: float
    u_transition: float
    v_transition: float
    t2_clamped: bool = False


def t1(inputs: TheoryInputs) -> float:
    """Burn-in length 4*(1 v 8U/eps)^2 * log(d/delta * (1 v 8U/eps))."""
    m = max(1.0, 8.0 * inputs.upsilon / inputs.epsilon)
    return 4.0 * m * m * math.log(inputs.d / inputs.delta * m)


def phi_rate(inputs: TheoryInputs) -> float:
    """Per-iteration linear rate phi = 4*rho*beta*(1-beta)*(1-eps)/(kappa^2*(1+eps))."""
    return (4.0 * inputs.rho * inputs.beta * (1.0 - inputs.beta)
            * (1.0 - inputs.epsilon)
            / (inputs.kappa ** 2 * (1.0 + inputs.epsilon)))


def _t2_log_argument(inputs: TheoryInputs) -> float:
    return (3.0 * inputs.lipschitz_L ** 2 * inputs.f0_gap
            / (inputs.radius_nu ** 2 * inputs.lambda_min ** 3))


def t2(inputs: TheoryInputs) -> float:
    """Linear phase length log(3 L^2 gap / (nu^2 lambda^3)) / phi, >= 0.

    A log argument at or below 1 means the start point is already inside
    the target neighborhood; the result clamps to 0 (reported as t2_clamped).
    """
    arg = _t2_log_argument(inputs)
    if arg <= 1.0:
        return 0.0
    return math.log(arg) / phi_rate(inputs)


def j_transition(inputs: TheoryInputs, t_total: float) -> float:
    """Moderate-phase length J = 4*T*kappa/nu."""
    return 4.0 * t_total * inputs.kappa / inputs.radius_nu


def rho_t(inputs: TheoryInputs, t_total: float, j: float, t: float) -> float:
    """Two-term superlinear rate for uniform averaging at offset t >= 0.

    First term: structural decay 4*T*kappa/(T+J+t+1).  Second term:
    stochastic noise 8*U*sqrt(log(d*(T+J+t+1)/delta)/(T+J+t+1)).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    first, second = _rho_terms(inputs, t_total, j, t)
    return first + second


def _rho_terms(inputs: TheoryInputs, t_total: float, j: float, t: float):
    """rho_t's (structural, noise) terms at offset t."""
    n = t_total + j + t + 1.0
    first = 4.0 * t_total * inputs.kappa / n
    second = 8.0 * inputs.upsilon * math.sqrt(
        math.log(inputs.d * n / inputs.delta) / n)
    return first, second


def k_transition(inputs: TheoryInputs, t_total: float, j: float) -> float:
    """Index where oracle noise overtakes the structural rate term.

    K = T^2 kappa^2 / (4 U^2 log(d T / delta)) - T - J, clamped at 0;
    NEVER when the oracle is noise-free.
    """
    if inputs.upsilon == 0.0:
        return NEVER
    return max(0.0, _k_lead(inputs, t_total) - t_total - j)


def _k_lead(inputs: TheoryInputs, t_total: float) -> float:
    """K's lead term T^2 kappa^2 / (4 U^2 log(d T / delta))."""
    return (t_total ** 2 * inputs.kappa ** 2
            / (4.0 * inputs.upsilon ** 2
               * math.log(inputs.d * t_total / inputs.delta)))


def _double_until(reached, hi, failure: str):
    """Double hi until reached(hi); RuntimeError(failure) past the limit."""
    while not reached(hi):
        hi *= 2
        if hi > _BRACKET_LIMIT:
            raise RuntimeError(failure)
    return hi


def _first_false(holds, lo: int, hi: int) -> int:
    """Smallest integer t in (lo, hi] with holds(t) false, by bisection.

    Needs holds(lo) true, holds(hi) false, and one flip in between.
    """
    while hi - lo > 1:
        mid = (lo + hi) // 2
        if holds(mid):
            lo = mid
        else:
            hi = mid
    return hi


def _i1_expression(inputs: TheoryInputs, t: float) -> float:
    """log(d(t+1)/delta) * w'(t)/w(t), evaluated at the float of t.

    ``i1`` searches integers and its self-check judges the float it
    returns; both go through float(t), so they see the same value at every
    point, also past 2**53, where float(t) is no longer t.  Past 2**62 the
    log is taken as log(d/delta) + log(t+1), which stays finite where
    d(t+1)/delta would overflow.
    """
    t = float(t)
    if t <= 2.0 ** 62:
        log_term = math.log(inputs.d * (t + 1.0) / inputs.delta)
    else:
        log_term = math.log(inputs.d / inputs.delta) + math.log(t + 1.0)
    return log_term * growth_ratio(inputs.weights, t)


def _i1_threshold(inputs: TheoryInputs) -> float:
    """(eps/(8*Psi*U) ^ 1)^2, the level _i1_expression must drop below."""
    a = (min(inputs.epsilon / (8.0 * inputs.psi * inputs.upsilon), 1.0)
         if inputs.upsilon > 0.0 else 1.0)
    return a * a


def i1(inputs: TheoryInputs) -> float:
    """Burn-in length for general weights.

    One plus the last integer t where log(d(t+1)/delta) * w'(t)/w(t) still
    reaches the threshold (eps/(8*Psi*U) ^ 1)^2.  The expression rises at
    most once, peaking by t = 4, and then decays to zero for every
    implemented sequence, so in exact arithmetic the qualifying set is an
    integer interval; its right endpoint is found by doubling and bisection
    on the decreasing flank.  Past about 2**52 the float expression's last
    digits are not monotone, so the test can flip more than once near the
    end, and the point returned is one of those crossings, not always the
    last; the self-check passes for each of them.
    """
    thr = _i1_threshold(inputs)

    def expr(t):
        return _i1_expression(inputs, t)

    peak = max(range(5), key=expr)
    if expr(peak) < thr:
        return 0.0
    hi = _double_until(lambda t: t > peak and expr(t) < thr, 1,
                       "growth expression stays above the threshold "
                       "past t = 2**1000")
    return float(_first_false(lambda t: expr(t) >= thr, peak, hi))


def u_transition(inputs: TheoryInputs, i_total: float) -> float:
    """Smallest u >= 0 with w(I + u) = 2 w(I-1) kappa / nu.

    Exact: the weight sequence inverts ln w in closed form.  0 when the
    target is already below w(I); RuntimeError when its root lies past the
    float range.
    """
    try:
        root = inputs.weights.inverse_log_weight(
            _u_target_log(inputs, i_total))
    except OverflowError:
        root = math.inf
    if root == math.inf:
        raise RuntimeError("weight sequence never reaches the target "
                           "within the float range")
    return max(0.0, root - i_total)


def _u_target_log(inputs: TheoryInputs, i_total: float) -> float:
    """ln of the u target 2 w(I-1) kappa / nu."""
    return (math.log(2.0 * inputs.kappa / inputs.radius_nu)
            + log_weight(inputs.weights, i_total - 1.0))


def theta_t(inputs: TheoryInputs, i_total: float, u: float, t: float) -> float:
    """Two-term rate for general weights at offset t past I + U.

    6 w(I-1) kappa / w(I+U+t)
    + 8 Psi U sqrt(log(d(I+U+t+1)/delta) * w'(I+U+t)/w(I+U+t)).
    """
    if t < 0:
        raise ValueError("t must be >= 0")
    seq = inputs.weights
    pos = i_total + u + t
    first = (6.0 * inputs.kappa
             * math.exp(log_weight(seq, i_total - 1.0) - log_weight(seq, pos)))
    second = (8.0 * inputs.psi * inputs.upsilon
              * math.sqrt(math.log(inputs.d * (pos + 1.0) / inputs.delta)
                          * growth_ratio(seq, pos)))
    return first + second


def v_transition(inputs: TheoryInputs, i_total: float, u: float) -> float:
    """First integer t >= I+U where averaging noise dominates:

    w(t) w'(t) log(d(t+1)/delta) >= w(I-1)^2 kappa^2 / (Psi^2 U^2),

    compared in log space.  NEVER when the oracle is noise-free.

    Past about 4e15 the log of the left side is flat over many consecutive
    floats, so the first point is not unique: the one returned depends on
    where the search starts (I + U, down to its last digits), and every
    such point passes the self-check.
    """
    if inputs.upsilon == 0.0:
        return NEVER
    rhs_log = _v_rhs_log(inputs, i_total)
    start = max(0, math.ceil(i_total + u))

    def below(t):
        return _v_lhs_log(inputs, t) < rhs_log

    if not below(start):
        return float(start)
    hi = _double_until(lambda t: not below(t), max(start, 1),
                       "averaging noise does not dominate before t = 2**1000")
    return float(_first_false(below, start, hi))


def _v_lhs_log(inputs: TheoryInputs, t: float) -> float:
    """ln of v's left side w(t) w'(t) log(d(t+1)/delta), as 2 ln w + ln g."""
    seq = inputs.weights
    g = growth_ratio(seq, t)
    if g <= 0.0:
        return -math.inf
    return (2.0 * log_weight(seq, t) + math.log(g)
            + math.log(math.log(inputs.d * (t + 1.0) / inputs.delta)))


def _v_rhs_log(inputs: TheoryInputs, i_total: float) -> float:
    """ln of v's right side w(I-1)^2 kappa^2 / (Psi^2 U^2)."""
    return (2.0 * log_weight(inputs.weights, i_total - 1.0)
            + 2.0 * math.log(inputs.kappa / (inputs.psi * inputs.upsilon)))


def freedman_bound(eta: float, upsilon_e: float, z, d: int = 1) -> float:
    """Tail bound P(||averaged noise|| >= eta) for weights z summing to 1.

    2d * exp(-(eta^2/2) / (U_E^2 sum(z^2) + z_max U_E eta)), clamped to
    [0, 1].  d is the matrix dimension (default 1 for scalar use).
    """
    z = np.asarray(z, dtype=float)
    if eta < 0:
        raise ValueError("eta must be nonnegative")
    if abs(float(z.sum()) - 1.0) > 1e-8:
        raise ValueError("weights z must sum to 1")
    denom = upsilon_e ** 2 * float(z @ z) + float(z.max()) * upsilon_e * eta
    if denom == 0.0:
        return 0.0 if eta > 0 else 1.0
    raw = 2.0 * d * math.exp(-(eta * eta / 2.0) / denom)
    return min(1.0, max(0.0, raw))


def freedman_eta(delta: float, upsilon_e: float, z, d: int = 1) -> float:
    """Inverse of freedman_bound: the eta making the tail bound equal delta.

    Closed-form root of the quadratic eta^2/2 = log(2d/delta) *
    (U_E^2 sum(z^2) + z_max U_E eta).
    """
    if not 0.0 < delta < 1.0:
        raise ValueError("delta must lie in (0, 1)")
    z = np.asarray(z, dtype=float)
    c = math.log(2.0 * d / delta)
    zmax = float(z.max())
    zsq = float(z @ z)
    return (c * zmax * upsilon_e
            + math.sqrt((c * zmax * upsilon_e) ** 2
                        + 2.0 * c * upsilon_e ** 2 * zsq))


def transition_report(inputs: TheoryInputs) -> TransitionReport:
    """Evaluate every transition point for one parameter bundle."""
    v_t1 = t1(inputs)
    v_t2 = t2(inputs)
    t_total = v_t1 + v_t2
    j = j_transition(inputs, t_total)
    k = k_transition(inputs, t_total, j)
    v_i1 = i1(inputs)
    i_total = v_i1 + v_t2
    u = u_transition(inputs, i_total)
    v = v_transition(inputs, i_total, u)
    return TransitionReport(
        t1=v_t1, t2=v_t2, t_total=t_total, j_transition=j, k_transition=k,
        i1=v_i1, i_total=i_total, u_transition=u, v_transition=v,
        t2_clamped=_t2_log_argument(inputs) <= 1.0)


def _rate_offsets(base: float) -> np.ndarray:
    """Offsets 0 to 1e6 units past base at which a rate must strictly fall.

    A rate reads its position through ln(base + t).  Past base ~ 1e14 a step
    of 1 cannot move that log by one of its ulps, so the unit is 2**16 ulps
    of base: at least 32 ulps of the log, and 1 below base = 2**36.
    """
    offsets = np.unique(np.round(np.logspace(0.0, 6.0, 60)))
    unit = max(1.0, math.ulp(base) * 2.0 ** 16)
    return unit * np.concatenate(([0.0], offsets))


def substitute_back_checks(inputs: TheoryInputs,
                           report: TransitionReport | None = None) -> dict:
    """Substitute every calculator output back into its defining relation.

    Returns {check name: bool}.  Infinite transition points (noise-free
    oracle) trivially pass their checks.  Used by the diag CLI's
    self-check flag and by the consistency test suite.
    """
    if report is None:
        report = transition_report(inputs)
    checks = {}

    a1 = (min(inputs.epsilon / (8.0 * inputs.upsilon), 1.0)
          if inputs.upsilon > 0.0 else 1.0)
    t = report.t1
    checks["t1_threshold"] = (
        math.log(inputs.d * (t + 1.0) / inputs.delta) / (t + 1.0)
        <= a1 * a1 * (1.0 + 1e-12))

    arg = _t2_log_argument(inputs)
    expected = max(0.0, math.log(arg)) if arg > 0 else 0.0
    checks["t2_identity"] = (
        abs(report.t2 * phi_rate(inputs) - expected)
        <= 1e-9 * max(1.0, expected))

    checks["totals"] = (report.t_total == report.t1 + report.t2
                        and report.i_total == report.i1 + report.t2)

    if math.isinf(report.k_transition):
        checks["k_identity"] = True
        checks["k_noise_dominates"] = True
    else:
        lead = _k_lead(inputs, report.t_total)
        if report.k_transition == 0.0:
            checks["k_identity"] = (
                lead - report.t_total - report.j_transition <= 1e-9 * lead)
        else:
            total = (report.t_total + report.j_transition
                     + report.k_transition + 1.0)
            checks["k_identity"] = abs(total - lead) <= 1.0 + 1e-6 * lead
        first, second = _rho_terms(inputs, report.t_total, report.j_transition,
                                   math.ceil(report.k_transition))
        checks["k_noise_dominates"] = second >= first * (1.0 - 1e-9)

    thr = _i1_threshold(inputs)
    i1_val = report.i1
    # As for v below: past 2**53 the float i1 is not the integer the search
    # ended on, and i1 - 1 rounds back to i1, so the float below i1 is the
    # previous point.  Below 2**53 both points are the exact integers.
    prev = min(i1_val - 1, math.nextafter(i1_val, 0.0))
    below = _i1_expression(inputs, i1_val) < thr
    at_prev = i1_val == 0 or _i1_expression(inputs, prev) >= thr
    checks["i1_boundary"] = below and at_prev

    target_log = _u_target_log(inputs, report.i_total)
    achieved_log = log_weight(inputs.weights,
                              report.i_total + report.u_transition)
    if report.u_transition == 0.0:
        checks["u_equation"] = achieved_log >= target_log - 1e-9
    else:
        checks["u_equation"] = abs(math.expm1(achieved_log - target_log)) <= 1e-6

    if math.isinf(report.v_transition):
        checks["v_boundary"] = True
    else:
        rhs_log = _v_rhs_log(inputs, report.i_total)
        v = report.v_transition
        start = max(0, math.ceil(report.i_total + report.u_transition))
        holds = _v_lhs_log(inputs, v) >= rhs_log - 1e-9
        # Past 2**53, v - 1 rounds back to v; the float below v is the
        # nearest point the left side can be told apart at.
        prev = min(v - 1, math.nextafter(v, 0.0))
        minimal = v == start or _v_lhs_log(inputs, prev) < rhs_log
        checks["v_boundary"] = holds and minimal

    rho_vals = [rho_t(inputs, report.t_total, report.j_transition, t)
                for t in _rate_offsets(report.t_total + report.j_transition)]
    theta_vals = [theta_t(inputs, report.i_total, report.u_transition, t)
                  for t in _rate_offsets(report.i_total + report.u_transition)]
    checks["rho_t_decreasing"] = bool(np.all(np.diff(rho_vals) < 0.0))
    checks["theta_t_decreasing"] = bool(np.all(np.diff(theta_vals) < 0.0))
    return checks


def report_to_json_dict(report: TransitionReport) -> dict:
    """JSON-safe dict; infinite transition points serialize as "inf"."""
    return {name: "inf" if math.isinf(value) else value
            for name, value in asdict(report).items()}
