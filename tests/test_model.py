import math

import numpy as np
import pytest

from ehjam import (
    ChannelGains,
    JammerRegime,
    LegitStrategy,
    StrategyProfile,
    SystemParams,
    TAU_LIMIT,
    capacity,
    db_to_linear,
    harvested_power,
    jammer_best_response,
    jamming_sign,
    linear_to_db,
    neutralization_feasible,
    p_threshold,
    profile_capacity,
)
from helpers import NB_MW, random_gains, reference_params


# --- unit conversions -------------------------------------------------------

def test_db_to_linear_identity():
    assert db_to_linear(0.0) == 1.0


def test_db_to_linear_ten_dbm_is_ten_mw():
    assert db_to_linear(10.0) == pytest.approx(10.0, rel=1e-15)


def test_db_to_linear_high_precision_point():
    # 10**(-0.7), evaluated independently at high precision
    assert db_to_linear(-7.0) == pytest.approx(0.19952623149688797, rel=1e-15)


def test_db_roundtrip():
    rng = np.random.default_rng(0)
    for x in rng.uniform(-60.0, 40.0, size=50):
        assert linear_to_db(db_to_linear(x)) == pytest.approx(x, abs=1e-12)


def test_db_to_linear_rejects_non_finite():
    with pytest.raises(ValueError):
        db_to_linear(math.nan)
    with pytest.raises(ValueError):
        db_to_linear(math.inf)


def test_db_to_linear_rejects_overflow():
    assert db_to_linear(3080.0) == 1e308
    with pytest.raises(ValueError, match="decibel value out of range"):
        db_to_linear(4000.0)
    with pytest.raises(ValueError, match="decibel value out of range"):
        db_to_linear(np.array([0.0, 4000.0]))


def test_linear_to_db_rejects_nonpositive():
    with pytest.raises(ValueError):
        linear_to_db(0.0)
    with pytest.raises(ValueError):
        linear_to_db(-1.0)


# --- domain type validation -------------------------------------------------

def test_channel_gains_validation():
    with pytest.raises(ValueError):
        ChannelGains(-1.0, 0.0, 0.0)
    with pytest.raises(ValueError):
        ChannelGains(1.0, math.nan, 0.0)
    ChannelGains(0.0, 0.0, 0.0)  # zeros are allowed


@pytest.mark.parametrize("kwargs", [
    dict(n_a=0.0), dict(n_b=-1.0), dict(p_max=0.0),
    dict(gamma_max=-1.0), dict(zeta=1.5), dict(zeta=-0.1),
])
def test_system_params_validation(kwargs):
    base = dict(n_a=0.1, n_b=0.2, p_max=1.0, gamma_max=10.0, zeta=0.8)
    base.update(kwargs)
    with pytest.raises(ValueError):
        SystemParams(**base)


def test_strategy_validation():
    with pytest.raises(ValueError):
        LegitStrategy(-1.0, 0.0)
    with pytest.raises(ValueError):
        LegitStrategy(1.0, 1.0)  # tau == 1 is excluded from the action set
    with pytest.raises(ValueError):
        StrategyProfile(LegitStrategy(1.0, 0.5), -1.0)


# --- harvested power --------------------------------------------------------

def test_harvested_power_zero_duration():
    gains = ChannelGains(1.0, 2.0, 0.5)
    params = reference_params()
    for gamma in (0.0, 1.0, 10.0):
        assert harvested_power(0.0, gamma, gains, params) == 0.0


def test_harvested_power_noise_only_unit_case():
    gains = ChannelGains(1.0, 3.0, 0.5)
    params = SystemParams(n_a=1.0, n_b=0.2, p_max=1.0, gamma_max=10.0, zeta=1.0)
    # tau/(1-tau) == 1 and only the unit noise power is collected
    assert harvested_power(0.5, 0.0, gains, params) == pytest.approx(1.0, rel=1e-15)


def test_harvested_power_worked_example():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = SystemParams(n_a=0.1, n_b=NB_MW, p_max=10.0, gamma_max=10.0, zeta=0.8)
    assert harvested_power(0.5, 10.0, gains, params) == pytest.approx(8.08, rel=1e-12)


def test_harvested_power_domain_errors():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    for bad_tau in (-0.1, 1.0, 1.5):
        with pytest.raises(ValueError):
            harvested_power(bad_tau, 0.0, gains, params)
    with pytest.raises(ValueError):
        harvested_power(0.5, -1.0, gains, params)


def test_harvested_power_closed_form_and_monotonicity():
    rng = np.random.default_rng(1)
    params = reference_params(zeta=0.8)
    for _ in range(50):
        gains = random_gains(rng)
        tau = float(rng.uniform(0.01, 0.95))
        gamma = float(rng.uniform(0.0, 20.0))
        expected = params.zeta * tau / (1.0 - tau) * (gamma * gains.ga2 + params.n_a)
        assert harvested_power(tau, gamma, gains, params) == pytest.approx(expected, rel=1e-14)
        # strictly increasing in tau; in gamma too whenever ga2 > 0
        assert harvested_power(tau + 0.01, gamma, gains, params) > \
            harvested_power(tau, gamma, gains, params)
        if gains.ga2 > 0:
            assert harvested_power(tau, gamma + 1.0, gains, params) > \
                harvested_power(tau, gamma, gains, params)


def test_harvested_power_zero_cases():
    gains = ChannelGains(1.0, 1.0, 0.2)
    assert harvested_power(0.4, 5.0, gains, reference_params(zeta=0.0)) == 0.0
    assert harvested_power(0.0, 5.0, gains, reference_params()) == 0.0


# --- capacity ---------------------------------------------------------------

def test_capacity_zero_without_power():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(zeta=0.8)
    for gamma in (0.0, 10.0):
        assert capacity(0.0, 0.0, gamma, gains, params) == 0.0


def test_capacity_unit_snr():
    gains = ChannelGains(1.0, 0.0, 0.0)
    params = SystemParams(n_a=0.1, n_b=1.0, p_max=1.0, gamma_max=0.0, zeta=0.0)
    assert capacity(1.0, 0.0, 0.0, gains, params) == pytest.approx(0.5, rel=1e-15)


def test_capacity_regression_constant():
    # frozen from an independent 60-digit evaluation of the same expression
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = SystemParams(n_a=0.1, n_b=db_to_linear(-7.0), p_max=10.0,
                          gamma_max=10.0, zeta=0.8)
    assert capacity(10.0, 0.2, 10.0, gains, params) == pytest.approx(
        1.170507702174352169, rel=1e-12)


def test_capacity_tau_one_limit():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    assert capacity(5.0, 1.0, 3.0, gains, params) == 0.0
    assert capacity(5.0, 1.0 - 1e-9, 3.0, gains, params) < 1e-6


def test_capacity_beyond_float_range_snr():
    # the SNR term, and with it h2/den, exceeds the float range at
    # tau = TAU_LIMIT; 50-digit references, where the log used to read inf
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=10.0, gamma_max=10.0, zeta=1.0)
    c = capacity(10.0, TAU_LIMIT, 0.0, ChannelGains(1e300, 1.0, 0.2), params)
    assert c == pytest.approx(5.1606698182649592e-7, rel=1e-12)
    c = capacity(0.0, TAU_LIMIT, 0.0, ChannelGains(1e300, 0.0, 1e-10), params)
    assert c == pytest.approx(5.1273787617855935e-7, rel=1e-12)
    # nothing to send, while h2/den alone overflows
    silent = SystemParams(n_a=0.1, n_b=0.2, p_max=10.0, gamma_max=10.0, zeta=0.0)
    assert capacity(0.0, TAU_LIMIT, 0.0, ChannelGains(1e300, 1.0, 0.2), silent) == 0.0


def test_capacity_jamming_budget_times_gain_beyond_float_range():
    # gamma*ga2 = 1e310; 50-digit references, where capacity used to read
    # nan at tau = 0 and inf at tau = 0.5
    gains = ChannelGains(1.0, 1e10, 1.0)
    params = SystemParams(n_a=0.1, n_b=db_to_linear(-7.0), p_max=1.0,
                          gamma_max=1e300, zeta=0.8)
    c = capacity(1.0, 0.0, 1e300, gains, params)
    assert c == pytest.approx(7.2134752044448166581e-301, rel=1e-12)
    c = capacity(1.0, 0.5, 1e300, gains, params)
    assert c == pytest.approx(8.2243382135416495228, rel=1e-12)


def test_capacity_domain_errors():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    with pytest.raises(ValueError):
        capacity(-1.0, 0.5, 0.0, gains, params)
    with pytest.raises(ValueError):
        capacity(1.0, -0.1, 0.0, gains, params)
    with pytest.raises(ValueError):
        capacity(1.0, 1.1, 0.0, gains, params)
    with pytest.raises(ValueError):
        capacity(1.0, 0.5, -2.0, gains, params)


def test_capacity_increasing_in_transmit_power():
    rng = np.random.default_rng(2)
    params = reference_params()
    for _ in range(50):
        gains = random_gains(rng)
        if gains.h2 == 0:
            continue
        tau = float(rng.uniform(0.0, 0.9))
        gamma = float(rng.uniform(0.0, 10.0))
        p = np.sort(rng.uniform(0.0, 20.0, size=8))
        c = capacity(p, tau, gamma, gains, params)
        assert np.all(np.diff(c) > 0.0)


def test_capacity_broadcasts_over_grids():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    p = np.linspace(0.0, 10.0, 7)[:, None]
    tau = np.linspace(0.0, 0.9, 5)[None, :]
    c = capacity(p, tau, 10.0, gains, params)
    assert c.shape == (7, 5)
    assert c[0, 0] == 0.0
    # spot check one cell against the scalar path
    assert c[3, 2] == pytest.approx(
        capacity(float(p[3, 0]), float(tau[0, 2]), 10.0, gains, params), rel=1e-15)


def test_profile_capacity_matches_capacity():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    prof = StrategyProfile(LegitStrategy(2.0, 0.3), 4.0)
    assert profile_capacity(prof, gains, params) == \
        capacity(2.0, 0.3, 4.0, gains, params)


# --- threshold machinery ----------------------------------------------------

def test_k_constant_values():
    # the threshold at tau = 1/2 is K/2 with K = (ga2*n_b/gb2 - n_a)*zeta
    params = reference_params()
    assert p_threshold(0.5, ChannelGains(1.0, 1.0, 0.2), params) == pytest.approx(
        0.35905246299377597, rel=1e-14)
    assert p_threshold(0.5, ChannelGains(0.2, 0.2, 1.0), params) == pytest.approx(
        -0.024037901480248966, rel=1e-14)


def test_k_constant_zero_efficiency():
    params = reference_params(zeta=0.0)
    assert p_threshold(0.5, ChannelGains(1.0, 5.0, 0.1), params) == 0.0
    # ga2*n_b/gb2 overflows; zeta == 0 still gives K = 0, not inf*0 = nan
    assert p_threshold(0.5, ChannelGains(1.0, 5.0, 1e-320), params) == 0.0


def test_k_constant_unbounded_when_receiver_unreachable():
    # K = +inf, so the kink P/K that solve_nj_arrays reads is 0
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params()
    assert 0.5 * params.p_max / p_threshold(0.5, gains, params) == 0.0


def test_neutralization_feasible_examples():
    params = reference_params()
    # 0.2/0.1 = 2.0 < 1.0/0.1995... ~ 5.01
    assert not neutralization_feasible(ChannelGains(0.2, 0.2, 1.0), params)
    assert neutralization_feasible(ChannelGains(1.0, 1.0, 0.2), params)
    # equality is not strict feasibility
    equal = SystemParams(n_a=0.3, n_b=0.3, p_max=1.0, gamma_max=1.0, zeta=0.8)
    assert not neutralization_feasible(ChannelGains(1.0, 0.7, 0.7), equal)


def test_p_threshold_examples():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    assert p_threshold(0.0, gains, params) == 0.0
    assert p_threshold(0.5, gains, params) == 0.35905246299377597
    with pytest.raises(ValueError):
        p_threshold(1.0, gains, params)


def test_threshold_unbounded_interference_free_jammer():
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params()
    assert math.isinf(p_threshold(0.5, gains, params))
    assert math.isinf(p_threshold(0.0, gains, params))


def test_p_threshold_array_matches_scalar_calls():
    params = reference_params()
    # ordinary, gb2 == 0, K overflowing, infeasible (negative slope)
    h2 = np.array([1.0, 1.0, 1.0, 0.2])
    ga2 = np.array([1.0, 1.0, 1.0, 0.2])
    gb2 = np.array([0.2, 0.0, 5e-324, 1.0])
    taus = np.array([0.0, 1e-300, 0.5, TAU_LIMIT])
    out = p_threshold(taus[:, None], ChannelGains(h2, ga2, gb2), params)
    assert out.shape == (4, 4)
    for i, tau in enumerate(taus):
        for j in range(4):
            gains = ChannelGains(h2[j], ga2[j], gb2[j])
            assert out[i, j] == p_threshold(float(tau), gains, params)
    assert np.all(np.isinf(out[:, 1]))  # unbounded at every tau, tau == 0 too
    assert out[0, 2] == 0.0 and np.all(np.isinf(out[1:, 2]))
    assert np.all(out[1:, 3] < 0.0)
    with pytest.raises(ValueError):
        p_threshold(np.array([0.5, 1.0]), ChannelGains(1.0, 1.0, 0.2), params)


def test_p_threshold_unbounded_at_zero_efficiency_without_interference():
    # zeta == 0 with gb2 == 0: jamming cannot change capacity at all, so every
    # power neutralizes; the threshold is +inf like jamming_sign's flat answer
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params(zeta=0.0)
    assert p_threshold(0.5, ChannelGains(1.0, 1.0, 0.2), params) == 0.0  # K == 0
    assert math.isinf(p_threshold(0.5, gains, params))
    assert math.isinf(p_threshold(0.0, gains, params))
    assert jamming_sign(5.0, 0.5, gains, params) == 0.0


# --- jammer best response ---------------------------------------------------

def test_jammer_best_response_silent_below_threshold():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    gamma, regime = jammer_best_response(0.0, 0.5, gains, params)
    assert gamma == 0.0
    assert regime is JammerRegime.SILENT_OPTIMAL


def test_jammer_best_response_full_power_above_threshold():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(p_max=10.0)
    assert p_threshold(0.5, gains, params) < 10.0
    gamma, regime = jammer_best_response(10.0, 0.5, gains, params)
    assert gamma == params.gamma_max
    assert regime is JammerRegime.FULL_POWER_OPTIMAL


def test_jammer_best_response_tie_on_threshold():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    tau = 0.5
    p = p_threshold(tau, gains, params)
    gamma, regime = jammer_best_response(p, tau, gains, params)
    assert gamma == 0.0
    assert regime is JammerRegime.CONSTANT_CAPACITY
    c0 = capacity(p, tau, 0.0, gains, params)
    cg = capacity(p, tau, params.gamma_max, gains, params)
    assert cg == pytest.approx(c0, rel=1e-12)


def test_jammer_best_response_infeasible_always_full_power():
    gains = ChannelGains(0.2, 0.2, 1.0)
    params = reference_params()
    for p, tau in ((0.0, 0.0), (0.0, 0.5), (5.0, 0.2)):
        gamma, regime = jammer_best_response(p, tau, gains, params)
        assert gamma == params.gamma_max
        assert regime is JammerRegime.FULL_POWER_OPTIMAL


def test_jammer_best_response_interference_free_jammer():
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params()
    # nothing harvested at tau == 0: capacity is flat in gamma
    _, regime0 = jammer_best_response(5.0, 0.0, gains, params)
    assert regime0 is JammerRegime.CONSTANT_CAPACITY
    gamma, regime = jammer_best_response(5.0, 0.5, gains, params)
    assert gamma == 0.0
    assert regime is JammerRegime.SILENT_OPTIMAL


def test_jammer_best_response_validates_strategy():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(p_max=10.0)
    with pytest.raises(ValueError):
        jammer_best_response(11.0, 0.5, gains, params)
    with pytest.raises(ValueError):
        jammer_best_response(1.0, 1.0, gains, params)


# --- monotonicity in the jamming power --------------------------------------

def _gamma_grid_capacity(p, tau, gains, params, n=100):
    gammas = np.linspace(0.0, params.gamma_max, n)
    return capacity(p, tau, gammas, gains, params)


def test_capacity_monotone_in_gamma_three_branches():
    rng = np.random.default_rng(3)
    params = reference_params()
    done = 0
    while done < 40:
        gains = random_gains(rng)
        if not neutralization_feasible(gains, params) or gains.h2 == 0:
            continue
        tau = float(rng.uniform(0.05, 0.9))
        pth = p_threshold(tau, gains, params)
        if not 0 < pth < math.inf:
            continue
        below = _gamma_grid_capacity(0.5 * pth, tau, gains, params)
        above = _gamma_grid_capacity(2.0 * pth, tau, gains, params)
        assert np.all(np.diff(below) >= -1e-12)
        assert np.all(np.diff(above) <= 1e-12)
        done += 1


def test_capacity_monotone_decreasing_when_infeasible():
    rng = np.random.default_rng(4)
    params = reference_params()
    done = 0
    while done < 40:
        gains = random_gains(rng)
        if neutralization_feasible(gains, params):
            continue
        tau = float(rng.uniform(0.0, 0.9))
        p = float(rng.uniform(0.0, 20.0))
        c = _gamma_grid_capacity(p, tau, gains, params)
        assert np.all(np.diff(c) <= 1e-12)
        done += 1


def test_capacity_constant_on_threshold_dense_grid():
    rng = np.random.default_rng(5)
    params = reference_params()
    done = 0
    while done < 20:
        gains = random_gains(rng)
        if not neutralization_feasible(gains, params) or gains.h2 == 0:
            continue
        tau = float(rng.uniform(0.05, 0.9))
        pth = p_threshold(tau, gains, params)
        if not 0 < pth < math.inf:
            continue
        c = _gamma_grid_capacity(pth, tau, gains, params, n=1000)
        ref = c[0]
        assert np.max(np.abs(c - ref)) <= 1e-10 * max(ref, 1e-300)
        done += 1


# --- log-base invariance ----------------------------------------------------

def test_strategy_ranking_invariant_under_log_base():
    gains = ChannelGains(1.2, 0.8, 0.3)
    params = reference_params()
    p = np.linspace(0.0, 10.0, 20)[:, None]
    tau = np.linspace(0.0, 0.95, 21)[None, :]
    bits = capacity(p, tau, params.gamma_max, gains, params).ravel()
    nats = bits * math.log(2.0)  # capacity with a natural log is a fixed rescale
    assert int(np.argmax(bits)) == int(np.argmax(nats))
    assert np.array_equal(np.argsort(bits, kind="stable"),
                          np.argsort(nats, kind="stable"))
