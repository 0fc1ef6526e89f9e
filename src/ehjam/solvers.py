"""Solvers for the two closed-form operating points of the link game, plus
independent brute-force grid oracles used to cross-check them.

Every one-dimensional profile handled here reduces to the same family
``C(tau) = (1-tau)/2 * log2(1 + (alpha + beta*tau)/(1-tau))`` whose second
derivative is ``-(alpha+beta)^2 / (2 ln2 (1-tau) D^2) <= 0``: the profiles
are concave in tau, and the stationary point has a closed form in the
Lambert W function (Corless et al., "On the Lambert W function", 1996), or
where beta leaves the float range in the Wright omega function (Lawrence,
Corless and Jeffrey, ACM TOMS 38(3), 2012), so no root finding is needed.
The neutralizing optimum rides p = min(P, p_threshold(tau)); capacity along
that path is the pointwise minimum of two such concave profiles, hence
concave itself (Boyd and Vandenberghe, "Convex Optimization", 2004, sec.
3.2.3), so its maximizer follows from the two profile optima and the kink
without comparing values.

ChannelBatch is the one array core, for any transmit budget P; the scalar
solvers are its one-channel case at params.p_max.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from functools import cached_property
from typing import NamedTuple

import numpy as np
from scipy.special import lambertw, wrightomega

from .model import (
    TAU_LIMIT,
    ChannelGains,
    LegitStrategy,
    NeutralizationInfeasible,
    StrategyProfile,
    SystemParams,
    capacity,
    jamming_sign,
    log1p_snr,
    neutralization_feasible,
    p_threshold,
    snr_factors,
)

__all__ = [
    "ChannelBatch",
    "EquilibriumResult",
    "FixedPower",
    "NEArrays",
    "NJArrays",
    "NJ_REGIMES",
    "OnThreshold",
    "SolutionRegime",
    "capacity_tau_derivative",
    "ne_grid_optimum",
    "nj_grid_value",
    "solve_ne",
    "solve_nj",
    "tau_profile_capacity",
    "verify_saddle_point",
]

#: The optimal EH fraction is 0 wherever the profile derivative is <= 0 here.
_TAU_PROBE = 1e-6

#: Below this beta the branch-point series for the optimal SNR term is exact
#: to rounding, while W0((beta-1)/e) has lost about half its digits.
_SERIES_BETA = 1e-6


@dataclass(frozen=True)
class FixedPower:
    """tau-profile with transmit and jamming powers held fixed."""

    p: float
    gamma: float


@dataclass(frozen=True)
class OnThreshold:
    """tau-profile riding the neutralization threshold: p = tau*K, jammer silent."""


def _profile_factors(profile: FixedPower | OnThreshold, gains: ChannelGains,
                     params: SystemParams):
    """(p, lead, den) of a tau-profile: alpha = p*h2/den and beta = lead*h2/den."""
    if isinstance(profile, FixedPower):
        return snr_factors(profile.p, profile.gamma, gains, params)
    return 0.0, params.zeta * gains.ga2, np.asarray(gains.gb2, dtype=float)


def _check_profile(profile: FixedPower | OnThreshold, gains: ChannelGains,
                   params: SystemParams):
    """Raise unless capacity along the tau-profile is defined for these gains."""
    if isinstance(profile, FixedPower):
        return
    if not isinstance(profile, OnThreshold):
        raise TypeError(f"unknown tau-profile: {profile!r}")
    if not neutralization_feasible(gains, params):
        raise NeutralizationInfeasible("threshold profile requires ga2/n_a > gb2/n_b")
    if np.any(np.asarray(gains.gb2) == 0.0):
        raise ValueError("threshold profile is undefined when gb2 == 0")


def _tau_derivative(tau, alpha, beta):
    """d/dtau of the canonical profile capacity, in bits per channel use."""
    x = (alpha + beta * tau) / (1.0 - tau)
    d = (1.0 - tau) + alpha + beta * tau
    return (-np.log1p(x) + (alpha + beta) / d) / math.log(4.0)  # 2 ln 2


def _optimal_snr(beta):
    """SNR term s at the stationary point of the canonical profile, elementwise.

    s solves g(s) = (1+s)*log1p(s) - s = beta, so 1+s = exp(1 + W0((beta-1)/e)).
    W0 is sqrt(eps)-conditioned at its branch point (beta -> 0), so tiny beta
    take the series s = q + q^2/6 - q^3/72 + q^4/270 in q = sqrt(2*beta)
    instead; the W0 start gets one Newton step on the s-equation.
    """
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        s = np.expm1(1.0 + lambertw((beta - 1.0) / math.e).real)
        log1p_s = np.log1p(s)
        s = s - ((1.0 + s) * log1p_s - s - beta) / log1p_s
        q = np.sqrt(2.0 * beta)
        series = q * (1.0 + q * (1.0 / 6.0 + q * (-1.0 / 72.0 + q / 270.0)))
        return np.where(beta < _SERIES_BETA, series, s)


def _optimal_tau(alpha, beta, s):
    """Maximizer over [0, TAU_LIMIT] of the concave canonical profile given
    s = _optimal_snr(beta): 1 - tau = (alpha+beta)/(s+beta), clipped. The
    derivative at tau is (beta - g(x))/(2 ln2 (1+x)), x the SNR term there,
    so its sign at _TAU_PROBE is that of s - x, which does not cancel."""
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        tau = 1.0 - (alpha + beta) / (s + beta)
    rising = s > (alpha + beta * _TAU_PROBE) / (1.0 - _TAU_PROBE)
    return np.where(rising, np.clip(tau, 0.0, TAU_LIMIT), 0.0)


def _profile_tau(profile: FixedPower | OnThreshold, gains: ChannelGains,
                 params: SystemParams):
    """tau(p): the optimal tau of a tau-profile, elementwise, at transmit term p
    (by default the profile's own); beta = lead*h2/den and s(beta) are
    computed once, here (gb2 == 0 on the threshold profile gives tau 0).

    Where lead*h2/den overflows, beta is expm1(L) with L = ln(1 + beta) from
    log1p_snr (h2/den alone may overflow while beta is near 1); beyond the
    float range, L = ln(beta), s >> 1, s/beta = 1/w with w = omega(L - 1) the
    Wright omega function (w + log(w) = L - 1), and
    tau = (1 - w*alpha/beta)/(1 + w).
    """
    p0, lead, den = _profile_factors(profile, gains, params)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        scale = gains.h2 / den
        beta = lead * scale
        over = np.isinf(beta) & (den > 0.0)
        if np.any(over):
            log1p_beta = log1p_snr(lead, gains.h2, den)
            beta = np.where(over, np.expm1(log1p_beta), beta)
            w = wrightomega(log1p_beta - 1.0)
    s = _optimal_snr(beta)

    def tau(p=p0):
        with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
            alpha = p * scale
            if not np.any(over):
                return _optimal_tau(alpha, beta, s)
            ratio = p / lead
            tau = _optimal_tau(np.where(over, ratio * beta, alpha), beta, s)
            tau_huge = np.clip((1.0 - ratio * w) / (1.0 + w), 0.0, TAU_LIMIT)
        return np.where(over & np.isinf(beta), tau_huge, tau)
    return tau


def capacity_tau_derivative(profile: FixedPower | OnThreshold, tau, gains: ChannelGains,
                            params: SystemParams):
    """Analytic derivative of capacity along a tau-profile."""
    t = np.asarray(tau)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("tau must lie in [0, 1)")
    _check_profile(profile, gains, params)
    p, lead, den = _profile_factors(profile, gains, params)
    scale = gains.h2 / den
    out = _tau_derivative(tau, p * scale, lead * scale)
    return float(out) if np.ndim(out) == 0 else out


def tau_profile_capacity(profile: FixedPower | OnThreshold, tau, gains: ChannelGains,
                         params: SystemParams):
    """Capacity along a tau-profile (accepts tau arrays)."""
    _check_profile(profile, gains, params)
    if isinstance(profile, FixedPower):
        return capacity(profile.p, tau, profile.gamma, gains, params)
    return capacity(p_threshold(tau, gains, params), tau, 0.0, gains, params)


class SolutionRegime(Enum):
    NJ_CASE_A = "NJ-case-a"
    NJ_CASE_B_CANDIDATE1 = "NJ-case-b-candidate1"
    NJ_CASE_B_CANDIDATE2 = "NJ-case-b-candidate2"
    NJ_INFEASIBLE = "NJ-infeasible"
    NE_TAU_ZERO = "NE-tau-zero"
    NE_TAU_INTERIOR = "NE-tau-interior"


#: Regimes of the neutralizing optimum, indexed by NJArrays.regime.
NJ_REGIMES = (
    SolutionRegime.NJ_INFEASIBLE,
    SolutionRegime.NJ_CASE_A,
    SolutionRegime.NJ_CASE_B_CANDIDATE1,
    SolutionRegime.NJ_CASE_B_CANDIDATE2,
)


@dataclass(frozen=True)
class EquilibriumResult:
    """A solved operating point.

    feasible means: for neutralization results, the jammer can be silenced at
    all; for full-power results, full-power jamming is actually a best
    response to the returned legitimate strategy (see solve_ne).
    """

    profile: StrategyProfile
    value: float
    regime: SolutionRegime
    feasible: bool


class NEArrays(NamedTuple):
    """Full-power operating points, one element per channel."""

    tau: np.ndarray
    value: np.ndarray
    stable: np.ndarray  # full-power jamming is a best response to (P, tau)


class NJArrays(NamedTuple):
    """Neutralizing optima, one element per channel (the jammer is silent)."""

    p: np.ndarray
    tau: np.ndarray
    value: np.ndarray
    regime: np.ndarray  # index into NJ_REGIMES


class ChannelBatch:
    """Both operating points of an array of channels (0-d for scalar gains) at
    any transmit budget P (params.p_max is not read); feasible marks where the
    jammer can be neutralized. What does not depend on P (each tau-profile's
    beta and s(beta), t_hat and K) is computed on first use and kept."""

    def __init__(self, gains: ChannelGains, params: SystemParams):
        self.gains, self.params = gains, params
        self.feasible = np.asarray(neutralization_feasible(gains, params))
        self._taus = {}  # jamming power -> tau(p) of that fixed-power profile

    def _fixed_power_tau(self, p_max, gamma):
        if not 0.0 < p_max < math.inf:
            raise ValueError("p_max must be positive and finite")
        if gamma not in self._taus:
            self._taus[gamma] = _profile_tau(FixedPower(p_max, gamma), self.gains,
                                             self.params)
        return self._taus[gamma](snr_factors(p_max, gamma, self.gains, self.params)[0])

    @cached_property
    def _threshold(self):
        """K/2 = p_threshold(0.5) and the threshold optimum t_hat."""
        return (p_threshold(0.5, self.gains, self.params),
                _profile_tau(OnThreshold(), self.gains, self.params)())

    def ne(self, p_max: float) -> NEArrays:
        """Full-power operating point: both budgets spent, tau optimal for them."""
        gains, params, gamma = self.gains, self.params, self.params.gamma_max
        tau = self._fixed_power_tau(p_max, gamma)
        value = capacity(p_max, tau, gamma, gains, params)
        stable = jamming_sign(p_max, tau, gains, params) <= 0.0
        return NEArrays(tau, value, stable)

    def nj(self, p_max: float) -> NJArrays:
        """Neutralizing optimum; infeasible links get value 0 and a zero strategy.

        Capacity along p = min(P, p_threshold(tau)) is the pointwise minimum of
        the concave threshold and full-power profiles, so it is concave in tau
        with its kink at P/K (0 where the threshold is unbounded). Its maximizer
        is the threshold optimum t_hat where t_hat < P/K (case a when P/K > 1,
        which makes it independent of P; else case b, candidate 1); otherwise
        full power at the silent-jammer optimum t_tilde raised to at least P/K,
        nudged by ulps until the threshold reaches P (candidate 2, or 1 at the
        kink itself)."""
        gains, params, feasible = self.gains, self.params, self.feasible
        k_half, t_hat = self._threshold
        # P/K, the kink: the threshold is linear in tau, K = p_threshold(0.5)/0.5
        with np.errstate(divide="ignore", over="ignore"):  # an inf kink is exact
            p_inv = np.divide(0.5 * p_max, k_half)
        t_tilde = self._fixed_power_tau(p_max, 0.0)

        on_threshold = t_hat < p_inv
        tau = np.select([~feasible, on_threshold], [0.0, t_hat],
                        np.minimum(np.maximum(t_tilde, p_inv), TAU_LIMIT))
        short = feasible & ~on_threshold
        while np.any(short := short & ((threshold := p_threshold(tau, gains, params))
                                       < p_max) & (tau < TAU_LIMIT)):
            tau = np.where(short, np.nextafter(tau, 1.0), tau)
        p = np.where(feasible, np.minimum(threshold, p_max), 0.0)
        value = capacity(p, tau, 0.0, gains, params)
        regime = np.select([~feasible, p_inv > 1.0, on_threshold | (t_tilde <= p_inv)],
                           [0, 1, 2], 3)
        return NJArrays(p, tau, value, regime)


def solve_nj(gains: ChannelGains, params: SystemParams) -> EquilibriumResult:
    """Best capacity achievable while keeping the jammer's best response
    silent: the one-channel case of ChannelBatch.nj at params.p_max."""
    p, tau, value, code = ChannelBatch(gains, params).nj(params.p_max)
    regime = NJ_REGIMES[int(code)]
    prof = StrategyProfile(LegitStrategy(float(p), float(tau)), 0.0)
    return EquilibriumResult(prof, float(value), regime,
                             regime is not SolutionRegime.NJ_INFEASIBLE)


def solve_ne(gains: ChannelGains, params: SystemParams) -> EquilibriumResult:
    """Full-power operating point: the one-channel case of ChannelBatch.ne at
    params.p_max.

    feasible reports whether full-power jamming is a best response to the
    returned legitimate strategy, i.e. whether the profile is mutually stable.
    At low SIR with a strong harvesting link the jammer would rather stay
    silent than feed the harvester; the profile is still returned, flagged
    infeasible, and verify_saddle_point will show the jammer-side deviation.
    """
    tau, value, stable = ChannelBatch(gains, params).ne(params.p_max)
    tau = float(tau)
    tag = SolutionRegime.NE_TAU_ZERO if tau == 0.0 else SolutionRegime.NE_TAU_INTERIOR
    prof = StrategyProfile(LegitStrategy(params.p_max, tau), params.gamma_max)
    return EquilibriumResult(prof, float(value), tag, bool(stable))


def verify_saddle_point(profile: StrategyProfile, gains: ChannelGains,
                        params: SystemParams,
                        grid_sizes: tuple[int, int, int] = (500, 500, 500),
                        tol: float = 1e-8):
    """Grid check of the two stability inequalities at a profile.

    Sweeps the legitimate grid against the profile's jamming power and the
    jammer grid against the profile's legitimate strategy. Returns
    (ok, worst_violation) where a positive violation is the largest capacity
    improvement any grid deviation achieves.
    """
    n_p, n_tau, n_gamma = grid_sizes
    if min(n_p, n_tau, n_gamma) < 2:
        raise ValueError("grid sizes must be >= 2")
    if not math.isfinite(tol):
        raise ValueError("tol must be finite")
    c_star = capacity(profile.legit.p, profile.legit.tau, profile.gamma, gains, params)
    ps = np.linspace(0.0, params.p_max, n_p)
    taus = np.linspace(0.0, TAU_LIMIT, n_tau)
    gammas = np.linspace(0.0, params.gamma_max, n_gamma)
    legit = capacity(ps[:, None], taus[None, :], profile.gamma, gains, params)
    jam = capacity(profile.legit.p, profile.legit.tau, gammas, gains, params)
    legit_violation = float(np.max(legit)) - c_star
    jammer_violation = c_star - float(np.min(jam))
    worst = max(legit_violation, jammer_violation)
    return worst <= tol, worst


def ne_grid_optimum(gains: ChannelGains, params: SystemParams, n: int = 100_000,
                    workers: int = 1):
    """Dense-grid argmax of capacity at full powers, in one vectorized pass
    (workers has no effect); independent check of solve_ne's tau."""
    taus = np.linspace(0.0, TAU_LIMIT, n)
    vals = capacity(params.p_max, taus, params.gamma_max, gains, params)
    i = int(np.argmax(vals))
    return float(taus[i]), float(vals[i])


def nj_grid_value(gains: ChannelGains, params: SystemParams, n: int = 500,
                  workers: int = 1) -> float:
    """Constrained 2-D grid oracle: best capacity over a silent jammer with
    p <= min(P, p_threshold(tau)), n points per axis, in one vectorized pass
    (workers has no effect). Returns 0 when infeasible."""
    if not neutralization_feasible(gains, params):
        return 0.0
    taus = np.linspace(0.0, TAU_LIMIT, n)
    p_cap = np.minimum(params.p_max, p_threshold(taus, gains, params))
    p_grid = np.linspace(0.0, 1.0, n)[:, None] * p_cap[None, :]
    return float(np.max(capacity(p_grid, taus[None, :], 0.0, gains, params)))
