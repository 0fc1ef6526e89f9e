"""Solvers for the two closed-form operating points of the link game, plus
independent brute-force grid oracles used to cross-check them.

Every one-dimensional profile handled here reduces to the same family
``C(tau) = (1-tau)/2 * log2(1 + (alpha + beta*tau)/(1-tau))`` whose second
derivative is ``-(alpha+beta)^2 / (2 ln2 (1-tau) D^2) <= 0``: the profiles
are concave in tau, and the stationary point has a closed form in the
Lambert W function (Corless et al., "On the Lambert W function", 1996), so
no root finding is needed.

One array core per operating point (solve_ne_arrays, solve_nj_arrays) works
elementwise over gain arrays; the scalar solvers are its 0-d case.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from enum import Enum
from typing import NamedTuple, Union

import numpy as np
from scipy.special import lambertw

from .model import (
    TAU_LIMIT,
    ChannelGains,
    LegitStrategy,
    NeutralizationInfeasible,
    StrategyProfile,
    SystemParams,
    capacity,
    jamming_sign,
    k_constant,
    neutralization_feasible,
    profile_capacity,
)

__all__ = [
    "EquilibriumResult",
    "FixedPower",
    "NEArrays",
    "NJArrays",
    "NJ_REGIMES",
    "OnThreshold",
    "SolutionRegime",
    "TauOptimum",
    "TauProfile",
    "capacity_tau_derivative",
    "ne_grid_optimum",
    "nj_grid_value",
    "solve_ne",
    "solve_ne_arrays",
    "solve_nj",
    "solve_nj_arrays",
    "tau_hat",
    "tau_profile_capacity",
    "tau_star",
    "tau_tilde",
    "verify_saddle_point",
]

_LN2 = math.log(2.0)

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


TauProfile = Union[FixedPower, OnThreshold]


def _threshold_beta(gains: ChannelGains, params: SystemParams):
    """beta of the threshold-riding profile (alpha is 0); inf or nan where gb2 == 0."""
    with np.errstate(divide="ignore", invalid="ignore"):
        return params.zeta * gains.ga2 * gains.h2 / np.asarray(gains.gb2, dtype=float)


def _profile_coefficients(profile: TauProfile, gains: ChannelGains, params: SystemParams):
    """Reduce a tau-profile to the (alpha, beta) pair of the canonical family."""
    if isinstance(profile, FixedPower):
        scale = gains.h2 / (profile.gamma * gains.gb2 + params.n_b)
        alpha = profile.p * scale
        beta = params.zeta * (profile.gamma * gains.ga2 + params.n_a) * scale
        return alpha, beta
    if isinstance(profile, OnThreshold):
        if not neutralization_feasible(gains, params):
            raise NeutralizationInfeasible(
                "threshold profile requires ga2/n_a > gb2/n_b"
            )
        if np.any(np.asarray(gains.gb2) == 0.0):
            raise ValueError("threshold profile is undefined when gb2 == 0")
        return 0.0, _threshold_beta(gains, params)
    raise TypeError(f"unknown tau-profile: {profile!r}")


def _tau_derivative(tau, alpha, beta):
    """d/dtau of the canonical profile capacity, in bits per channel use."""
    x = (alpha + beta * tau) / (1.0 - tau)
    d = (1.0 - tau) + alpha + beta * tau
    return (-np.log1p(x) + (alpha + beta) / d) / (2.0 * _LN2)


def _optimal_tau(alpha, beta):
    """Maximizer over [0, TAU_LIMIT] of the canonical profile, elementwise.

    The SNR term s = (alpha + beta*tau)/(1 - tau) at the stationary point
    solves g(s) = (1+s)*log1p(s) - s = beta, so 1+s = exp(1 + W0((beta-1)/e))
    and 1 - tau = (alpha+beta)/(s+beta). W0 is sqrt(eps)-conditioned at its
    branch point (beta -> 0), so tiny beta take the series s = q + q^2/6 -
    q^3/72 + q^4/270 in q = sqrt(2*beta) instead; the W0 start gets one Newton
    step on the s-equation. The profile is concave, so clipping the stationary
    point to TAU_LIMIT gives the exact maximizer over [0, TAU_LIMIT].

    The derivative at any tau equals (beta - g(x))/(2 ln2 (1+x)), x the SNR
    term there, and g increases, so its sign at _TAU_PROBE is that of s - x:
    comparing the two avoids the cancellation of evaluating the derivative,
    which loses the sign once beta is below ~eps*alpha.
    """
    alpha = np.asarray(alpha, dtype=float)
    beta = np.asarray(beta, dtype=float)
    with np.errstate(divide="ignore", invalid="ignore"):
        s = np.expm1(1.0 + lambertw((beta - 1.0) / math.e).real)
        log1p_s = np.log1p(s)
        s = s - ((1.0 + s) * log1p_s - s - beta) / log1p_s
        q = np.sqrt(2.0 * beta)
        series = q * (1.0 + q * (1.0 / 6.0 + q * (-1.0 / 72.0 + q / 270.0)))
        s = np.where(beta < _SERIES_BETA, series, s)
        tau = 1.0 - (alpha + beta) / (s + beta)
    rising = s > (alpha + beta * _TAU_PROBE) / (1.0 - _TAU_PROBE)
    return np.where(rising, np.clip(tau, 0.0, TAU_LIMIT), 0.0)


def capacity_tau_derivative(profile: TauProfile, tau, gains: ChannelGains,
                            params: SystemParams):
    """Analytic derivative of capacity along a tau-profile."""
    t = np.asarray(tau)
    if np.any(t < 0.0) or np.any(t >= 1.0):
        raise ValueError("tau must lie in [0, 1)")
    alpha, beta = _profile_coefficients(profile, gains, params)
    out = _tau_derivative(tau, alpha, beta)
    return float(out) if np.ndim(out) == 0 else out


def tau_profile_capacity(profile: TauProfile, tau, gains: ChannelGains,
                         params: SystemParams):
    """Capacity along a tau-profile (accepts tau arrays)."""
    if isinstance(profile, FixedPower):
        return capacity(profile.p, tau, profile.gamma, gains, params)
    k = k_constant(gains, params)
    return capacity(np.asarray(tau) * k, tau, 0.0, gains, params)


@dataclass(frozen=True)
class TauOptimum:
    """Maximizer of a concave tau-profile over [0, TAU_LIMIT]; boundary is
    True when it sits on an end of that interval."""

    tau: float
    boundary: bool


def _maximize_profile(profile: TauProfile, gains: ChannelGains,
                      params: SystemParams) -> TauOptimum:
    tau = float(_optimal_tau(*_profile_coefficients(profile, gains, params)))
    return TauOptimum(tau, tau in (0.0, TAU_LIMIT))


def tau_hat(gains: ChannelGains, params: SystemParams) -> TauOptimum:
    """EH fraction maximizing capacity while riding the neutralization threshold."""
    return _maximize_profile(OnThreshold(), gains, params)


def tau_tilde(gains: ChannelGains, params: SystemParams) -> TauOptimum:
    """EH fraction maximizing capacity at full transmit power, jammer silent."""
    if not neutralization_feasible(gains, params):
        raise NeutralizationInfeasible(
            "silent-jammer profile is only used when neutralization is feasible"
        )
    return _maximize_profile(FixedPower(params.p_max, 0.0), gains, params)


def tau_star(gains: ChannelGains, params: SystemParams) -> TauOptimum:
    """EH fraction maximizing capacity with both powers at their budgets."""
    return _maximize_profile(FixedPower(params.p_max, params.gamma_max), gains, params)


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


def solve_ne_arrays(gains: ChannelGains, params: SystemParams) -> NEArrays:
    """Full-power operating point elementwise over gain arrays (0-d for scalar
    gains): both sides spend their budgets and tau maximizes capacity under
    full-power jamming."""
    profile = FixedPower(params.p_max, params.gamma_max)
    tau = _optimal_tau(*_profile_coefficients(profile, gains, params))
    value = capacity(params.p_max, tau, params.gamma_max, gains, params)
    stable = jamming_sign(params.p_max, tau, gains, params) <= 0.0
    return NEArrays(tau, value, stable)


def solve_nj_arrays(gains: ChannelGains, params: SystemParams) -> NJArrays:
    """Neutralizing optimum elementwise over gain arrays (0-d for scalar gains).

    Infeasible harvesting links get value 0 with an all-zero strategy. With a
    finite threshold slope K the optimum either rides the threshold (case a,
    active when P/K > 1; independent of P) or is the better of two corner
    candidates (case b): 1, the threshold optimum clipped at P/K; 2, full
    power at the silent-jammer optimum tau raised to at least P/K, nudged by
    ulps until tau*K >= P. Ties pick candidate 1. With gb2 == 0 every strategy neutralizes, and the candidates
    are full power at tau = 0 and at the silent-jammer optimum.
    """
    p_max = params.p_max
    feasible = np.asarray(neutralization_feasible(gains, params))
    unbounded = np.asarray(gains.gb2) == 0.0
    # threshold slope, finite and >= 0: K < 0 only where infeasible (masked out)
    k = np.where(unbounded, 0.0, np.maximum(k_constant(gains, params), 0.0))
    with np.errstate(divide="ignore"):
        p_inv = np.where(unbounded, 0.0, np.where(k > 0.0, p_max / k, math.inf))
    case_a = p_inv > 1.0
    t_hat = _optimal_tau(0.0, np.where(unbounded, 0.0, _threshold_beta(gains, params)))
    t_tilde = _optimal_tau(*_profile_coefficients(FixedPower(p_max, 0.0), gains, params))

    # in case a candidate 1 is the threshold optimum itself: tau_hat*K < K < P
    tau1 = np.minimum(t_hat, p_inv)
    p1 = np.where(unbounded, p_max, np.minimum(tau1 * k, p_max))
    tau2 = np.minimum(np.maximum(t_tilde, p_inv), TAU_LIMIT)
    short = ~unbounded & (tau2 * k < p_max) & (tau2 < TAU_LIMIT)
    while np.any(short):
        tau2 = np.where(short, np.nextafter(tau2, 1.0), tau2)
        short = short & (tau2 * k < p_max) & (tau2 < TAU_LIMIT)
    v1 = capacity(p1, tau1, 0.0, gains, params)
    v2 = capacity(p_max, tau2, 0.0, gains, params)

    first = case_a | (v1 >= v2)
    regime = np.select([~feasible, case_a, first], [0, 1, 2], 3)
    return NJArrays(
        p=np.where(feasible, np.where(first, p1, p_max), 0.0),
        tau=np.where(feasible, np.where(first, tau1, tau2), 0.0),
        value=np.where(feasible, np.where(first, v1, v2), 0.0),
        regime=regime,
    )


def solve_nj(gains: ChannelGains, params: SystemParams) -> EquilibriumResult:
    """Best capacity achievable while keeping the jammer's best response
    silent: the 0-d case of solve_nj_arrays."""
    p, tau, value, code = solve_nj_arrays(gains, params)
    regime = NJ_REGIMES[int(code)]
    prof = StrategyProfile(LegitStrategy(float(p), float(tau)), 0.0)
    return EquilibriumResult(prof, float(value), regime,
                             regime is not SolutionRegime.NJ_INFEASIBLE)


def solve_ne(gains: ChannelGains, params: SystemParams) -> EquilibriumResult:
    """Full-power operating point: the 0-d case of solve_ne_arrays.

    feasible reports whether full-power jamming is a best response to the
    returned legitimate strategy, i.e. whether the profile is mutually stable.
    At low SIR with a strong harvesting link the jammer would rather stay
    silent than feed the harvester; the profile is still returned, flagged
    infeasible, and verify_saddle_point will show the jammer-side deviation.
    """
    tau, value, stable = solve_ne_arrays(gains, params)
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
    c_star = profile_capacity(profile, gains, params)
    ps = np.linspace(0.0, params.p_max, n_p)
    taus = np.linspace(0.0, TAU_LIMIT, n_tau)
    gammas = np.linspace(0.0, params.gamma_max, n_gamma)
    legit = capacity(ps[:, None], taus[None, :], profile.gamma, gains, params)
    jam = capacity(profile.legit.p, profile.legit.tau, gammas, gains, params)
    legit_violation = float(np.max(legit)) - c_star
    jammer_violation = c_star - float(np.min(jam))
    worst = max(legit_violation, jammer_violation)
    return worst <= tol, worst


def _chunks(n: int, workers: int):
    workers = max(1, min(int(workers), n))
    step = -(-n // workers)
    return [(i, min(i + step, n)) for i in range(0, n, step)]


def ne_grid_optimum(gains: ChannelGains, params: SystemParams, n: int = 100_000,
                    workers: int = 1):
    """Dense-grid argmax of capacity at full powers; independent check of tau_star.

    The workers hint only chunks the evaluation; the reduction is index-ordered,
    so the result is identical for any worker count.
    """
    taus = np.linspace(0.0, TAU_LIMIT, n)
    best_idx, best_val = 0, -math.inf
    for lo, hi in _chunks(n, workers):
        vals = capacity(params.p_max, taus[lo:hi], params.gamma_max, gains, params)
        i = int(np.argmax(vals))
        if vals[i] > best_val:
            best_idx, best_val = lo + i, float(vals[i])
    return float(taus[best_idx]), best_val


def nj_grid_value(gains: ChannelGains, params: SystemParams, n: int = 500,
                  workers: int = 1) -> float:
    """Constrained 2-D grid oracle: best capacity over a silent jammer with
    p <= min(P, tau*K), n points per axis; with gb2 == 0 every strategy
    neutralizes and p ranges up to P. Returns 0 when infeasible."""
    if not neutralization_feasible(gains, params):
        return 0.0
    taus = np.linspace(0.0, TAU_LIMIT, n)
    if gains.gb2 == 0.0:
        p_cap = np.full(n, params.p_max)
    else:
        p_cap = np.minimum(params.p_max, taus * k_constant(gains, params))
    frac = np.linspace(0.0, 1.0, n)
    best = -math.inf
    for lo, hi in _chunks(n, workers):
        p_grid = frac[:, None] * p_cap[None, lo:hi]
        vals = capacity(p_grid, taus[None, lo:hi], 0.0, gains, params)
        best = max(best, float(np.max(vals)))
    return best
