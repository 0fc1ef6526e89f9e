import warnings
from fractions import Fraction

import numpy as np
import pytest

from ehjam import (
    ChannelBatch,
    ChannelGains,
    FixedPower,
    NeutralizationInfeasible,
    OnThreshold,
    SolutionRegime,
    SystemParams,
    capacity,
    capacity_tau_derivative,
    db_to_linear,
    jamming_sign,
    ne_grid_optimum,
    neutralization_feasible,
    nj_grid_value,
    p_threshold,
    sample_channels,
    solve_ne,
    solve_nj,
    tau_profile_capacity,
    verify_saddle_point,
)
from ehjam import model, solvers
from ehjam.model import TAU_LIMIT
from ehjam.solvers import _tau_profile
from helpers import (
    consistent_instances,
    counted_batches,
    feasible_instances,
    params_at_sir,
    random_gains,
    reference_params,
)


# --- derivative -------------------------------------------------------------

def test_derivative_negative_without_harvesting():
    # nothing can be harvested: splitting time only wastes airtime
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(zeta=0.0)
    prof = FixedPower(5.0, 0.0)
    for tau in (0.05, 0.3, 0.6, 0.9):
        assert capacity_tau_derivative(prof, tau, gains, params) < 0.0


def test_derivative_matches_finite_differences():
    rng = np.random.default_rng(10)
    params = reference_params()
    h = 1e-6
    for _ in range(30):
        gains = random_gains(rng)
        prof = FixedPower(float(rng.uniform(0.1, 30.0)), float(rng.uniform(0.0, 15.0)))
        tau = float(rng.uniform(0.05, 0.9))
        ana = capacity_tau_derivative(prof, tau, gains, params)
        num = (tau_profile_capacity(prof, tau + h, gains, params)
               - tau_profile_capacity(prof, tau - h, gains, params)) / (2 * h)
        assert ana == pytest.approx(num, rel=1e-6, abs=1e-9)


def test_derivative_domain_and_profile_errors():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    with pytest.raises(ValueError):
        capacity_tau_derivative(FixedPower(1.0, 0.0), 1.0, gains, params)
    with pytest.raises(NeutralizationInfeasible):
        capacity_tau_derivative(OnThreshold(), 0.5, ChannelGains(0.2, 0.2, 1.0), params)
    with pytest.raises(ValueError):
        capacity_tau_derivative(OnThreshold(), 0.5, ChannelGains(1.0, 1.0, 0.0), params)
    with pytest.raises(TypeError, match="unknown tau-profile"):
        capacity_tau_derivative(object(), 0.5, gains, params)


def test_tau_profile_capacity_validates_profile():
    params = reference_params()
    with pytest.raises(TypeError, match="unknown tau-profile"):
        tau_profile_capacity(object(), 0.5, ChannelGains(1.0, 1.0, 0.2), params)
    with pytest.raises(ValueError, match="undefined when gb2 == 0"):
        tau_profile_capacity(OnThreshold(), 0.5, ChannelGains(1.0, 1.0, 0.0), params)
    with pytest.raises(NeutralizationInfeasible):
        tau_profile_capacity(OnThreshold(), 0.5, ChannelGains(0.2, 0.2, 1.0), params)


def test_tau_profile_capacity_is_zero_at_tau_one():
    # the transmit slice vanishes on either profile; the threshold reads K there
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    assert tau_profile_capacity(FixedPower(5.0, 10.0), 1.0, gains, params) == 0.0
    assert tau_profile_capacity(OnThreshold(), 1.0, gains, params) == 0.0


def _tau_profiles(params):
    """The tau-profiles behind the paper's three optima, by symbol: the
    threshold optimum, the silent-jammer optimum and the full-power one."""
    return {"tau_hat": OnThreshold(),
            "tau_tilde": FixedPower(params.p_max, 0.0),
            "tau_star": FixedPower(params.p_max, params.gamma_max)}


def test_derivative_vanishes_at_returned_roots():
    rng = np.random.default_rng(11)
    count = 0
    while count < 50:
        gains = random_gains(rng)
        params = params_at_sir(float(rng.uniform(-30.0, 10.0)))
        if not neutralization_feasible(gains, params) or gains.h2 == 0:
            continue
        count += 1
        for prof in _tau_profiles(params).values():
            tau = float(_tau_profile(prof, gains, params).tau())
            if 0.0 < tau < TAU_LIMIT:
                resid = capacity_tau_derivative(prof, tau, gains, params)
                assert abs(resid) <= 1e-10


# --- tau_star ---------------------------------------------------------------

def test_tau_star_matches_dense_grid_argmax():
    gains = ChannelGains(0.7, 1.3, 0.15)
    params = params_at_sir(-12.0)
    tau = float(_tau_profile(_tau_profiles(params)["tau_star"], gains, params).tau())
    tau_grid, value_grid = ne_grid_optimum(gains, params, n=1_000_000)
    assert abs(tau - tau_grid) <= 1e-5
    value = capacity(params.p_max, tau, params.gamma_max, gains, params)
    assert value == pytest.approx(value_grid, rel=1e-6)


def test_tau_star_exact_for_tiny_harvesting_coefficient():
    # beta ~ 2e-12: the optimum sits between 1 - 1e-6 and TAU_LIMIT, and the
    # value at TAU_LIMIT falls short of it by ~2.5e-5 relative
    gains = ChannelGains(1e-14, 1.0, 0.2)
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=1.0, gamma_max=10.0, zeta=1.0)
    tau = float(_tau_profile(_tau_profiles(params)["tau_star"], gains, params).tau())
    gaps = np.logspace(-12.0, -3.0, 200_001)  # 1 - tau, ratio step 1.0001
    vals = capacity(params.p_max, 1.0 - gaps, params.gamma_max, gains, params)
    best = int(np.argmax(vals))
    assert 0.0 < tau < TAU_LIMIT
    assert abs((1.0 - tau) / gaps[best] - 1.0) <= 2e-4
    value = capacity(params.p_max, tau, params.gamma_max, gains, params)
    assert value >= vals[best] * (1.0 - 1e-12)
    # the array core returns the same tau for the same draw inside a batch
    batch = ChannelGains(np.array([1.0, 1e-14]), np.array([1.0, 1.0]), np.array([0.2, 0.2]))
    assert ChannelBatch(batch, params).ne(params.p_max).tau[1] == tau
    assert solve_ne(gains, params).profile.legit.tau == tau


@pytest.mark.parametrize("optimum, gains, expected", [
    # 50-digit stationary points; beta is 1e578, 1e305 (but h2/gb2 overflows)
    # and 5e619, and the first and last optima used to read 0
    ("tau_hat", ChannelGains(1e287, 1e284, 1e-7), 0.00075545433405753236),
    ("tau_hat", ChannelGains(1e300, 1e-310, 1e-315), 0.0014373083979544618),
    ("tau_star", ChannelGains(1e300, 1e300, 1e-320), 0.00072556553990371293),
    # beta == 1 while h2/gb2 overflows: 1 - 1/e (taking beta as 1 + beta gave 0.564)
    ("tau_hat", ChannelGains(1.0, 1e-310, 1e-310), 0.63212055882855768),
])
def test_tau_optimum_where_beta_overflows(optimum, gains, expected):
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=10.0, gamma_max=10.0, zeta=1.0)
    tau = _tau_profile(_tau_profiles(params)[optimum], gains, params).tau()
    assert float(tau) == pytest.approx(expected, rel=1e-12)


# --- tau_hat / tau_tilde ----------------------------------------------------

def test_tau_hat_and_tilde_beat_profile_grids():
    rng = np.random.default_rng(12)
    taus = np.linspace(0.0, TAU_LIMIT, 100_000)
    step = taus[1] - taus[0]
    count = 0
    while count < 20:
        gains = random_gains(rng)
        params = params_at_sir(float(rng.uniform(-20.0, 10.0)))
        if not neutralization_feasible(gains, params) or gains.h2 == 0 or gains.gb2 == 0:
            continue
        count += 1
        profiles = _tau_profiles(params)
        for prof in (profiles["tau_hat"], profiles["tau_tilde"]):
            tau = float(_tau_profile(prof, gains, params).tau())
            vals = tau_profile_capacity(prof, taus, gains, params)
            best = int(np.argmax(vals))
            v_opt = tau_profile_capacity(prof, tau, gains, params)
            assert v_opt >= vals[best] - 1e-9
            assert abs(tau - taus[best]) <= step + 1e-12


def test_tau_tilde_boundary_flag_when_nothing_harvested():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(zeta=1e-12, p_max=10.0)
    tau = _tau_profile(_tau_profiles(params)["tau_tilde"], gains, params).tau()
    assert tau == 0.0


# --- solve_nj ---------------------------------------------------------------

def test_solve_nj_infeasible_is_zero():
    # ga2 == gb2 == 0 is out of the jammer's reach too: the infeasible rule wins
    for gains in (ChannelGains(0.2, 0.2, 1.0), ChannelGains(1.0, 0.0, 0.0)):
        res = solve_nj(gains, params_at_sir(0.0))
        assert res.regime is SolutionRegime.NJ_INFEASIBLE
        assert not res.feasible
        assert res.value == 0.0
        assert res.profile.legit.p == res.profile.legit.tau == 0.0
        assert res.profile.gamma == 0.0


def test_solve_nj_case_a_independent_of_power_budget():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = params_at_sir(10.0)  # P = 100 mW >> K
    assert 0.5 * params.p_max / p_threshold(0.5, gains, params) > 1.0
    res1 = solve_nj(gains, params)
    res2 = solve_nj(gains, reference_params(p_max=2 * params.p_max))
    assert res1.regime is SolutionRegime.NJ_CASE_A
    assert abs(res1.profile.legit.p - res2.profile.legit.p) <= 1e-9
    assert abs(res1.profile.legit.tau - res2.profile.legit.tau) <= 1e-9


def test_solve_nj_feasible_link_whose_slope_rounds_to_zero():
    # ga2*n_b > gb2*n_a, yet K = (ga2*n_b/gb2 - n_a)*zeta rounds to 0:
    # feasibility is decided by the gain test, so the link rides a zero
    # threshold (case a, p = 0) and the jammer still has no reason to jam
    gains = ChannelGains(1.0, 9.818525784207961e87, 1.1197350579226512e88)
    params = SystemParams(n_a=2.623505221150671, n_b=2.9919265227070917,
                          p_max=1.0, gamma_max=1.0, zeta=1.0)
    assert neutralization_feasible(gains, params)
    assert p_threshold(1.0, gains, params) == 0.0
    res = solve_nj(gains, params)
    assert res.regime is SolutionRegime.NJ_CASE_A and res.feasible
    assert res.profile.legit.p == 0.0
    assert jamming_sign(res.profile.legit.p, res.profile.legit.tau, gains, params) >= 0.0


def test_solve_nj_infeasible_link_whose_slope_rounds_positive():
    # the converse: equal links are infeasible though K rounds to 1.1e-17
    gains = ChannelGains(1.0, 1.2693673963645416e-93, 1.2693673963645416e-93)
    params = SystemParams(n_a=0.2, n_b=0.2, p_max=1.0, gamma_max=1.0, zeta=0.8)
    assert not neutralization_feasible(gains, params)
    assert p_threshold(1.0, gains, params) > 0.0
    assert solve_nj(gains, params).regime is SolutionRegime.NJ_INFEASIBLE


def test_solve_nj_case_b_at_low_sir():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = params_at_sir(-30.0)  # P tiny: threshold reachable inside [0, 1)
    assert 0.5 * params.p_max / p_threshold(0.5, gains, params) <= 1.0
    res = solve_nj(gains, params)
    assert res.regime in (SolutionRegime.NJ_CASE_B_CANDIDATE1,
                          SolutionRegime.NJ_CASE_B_CANDIDATE2)
    assert res.feasible


def test_solve_nj_profile_is_neutralizing_and_within_budget():
    rng = np.random.default_rng(13)
    for gains, params in feasible_instances(13, 60):
        res = solve_nj(gains, params)
        legit = res.profile.legit
        assert res.profile.gamma == 0.0
        assert legit.p <= params.p_max * (1 + 1e-12)
        assert legit.p <= p_threshold(legit.tau, gains, params) + 1e-12
        assert jamming_sign(legit.p, legit.tau, gains, params) >= 0.0


def test_solve_nj_matches_constrained_grid():
    worst = 0.0
    for gains, params in feasible_instances(14, 25):
        res = solve_nj(gains, params)
        grid = nj_grid_value(gains, params, n=500)
        assert res.value >= grid - 1e-9  # the grid cannot beat the optimum
        worst = max(worst, res.value - grid)
    assert worst <= 1e-3  # 500x500 resolution puts the grid this close


def test_solve_nj_value_reevaluates_through_capacity():
    for gains, params in feasible_instances(15, 20):
        res = solve_nj(gains, params)
        legit = res.profile.legit
        assert res.value == pytest.approx(
            capacity(legit.p, legit.tau, res.profile.gamma, gains, params), rel=1e-12)


def test_solve_nj_interference_free_jammer():
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = params_at_sir(0.0)
    res = solve_nj(gains, params)
    assert res.feasible
    assert res.profile.legit.p == params.p_max
    legit = res.profile.legit
    assert jamming_sign(legit.p, legit.tau, gains, params) >= 0.0


def test_solve_nj_zero_efficiency_degenerates_to_zero_value():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(zeta=0.0)
    res = solve_nj(gains, params)
    assert res.feasible  # the gain condition alone still holds
    assert res.value == 0.0
    assert res.profile.legit.p == 0.0


def test_solve_nj_zero_efficiency_interference_free_jammer():
    # zeta == 0 and gb2 == 0: every strategy neutralizes and nothing is
    # harvested, so the optimum is full power without time sharing
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = reference_params(zeta=0.0, p_max=1.0)
    res = solve_nj(gains, params)
    assert res.feasible
    assert res.regime is SolutionRegime.NJ_CASE_B_CANDIDATE1
    assert res.profile.legit.p == params.p_max
    assert res.profile.legit.tau == 0.0
    assert res.value == capacity(params.p_max, 0.0, 0.0, gains, params)
    batch = ChannelGains(np.array([1.0, 0.5]), np.array([1.0, 1.0]), np.array([0.0, 0.2]))
    assert ChannelBatch(batch, params).nj(params.p_max).value[0] == res.value


@pytest.mark.parametrize("ga2, gb2", [(1.0, 5e-324), (1.0, 1e-310), (1e300, 1e-300)])
def test_solve_nj_threshold_slope_overflow(ga2, gb2):
    # K = ga2*n_b/gb2 overflows: the jammer barely reaches the receiver, so
    # the answer is that of gb2 == 0, on a threshold that is unbounded for
    # every tau > 0 (tau*K at tau == 0 used to read 0*inf = nan)
    params = reference_params(p_max=1.0)
    gains = ChannelGains(1.0, ga2, gb2)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_nj(gains, params)
        legit = res.profile.legit
        sign = jamming_sign(legit.p, legit.tau, gains, params)
    assert res.regime is SolutionRegime.NJ_CASE_B_CANDIDATE1
    assert res.value == solve_nj(ChannelGains(1.0, 1.0, 0.0), params).value
    assert res.value == pytest.approx(1.29390718678, rel=1e-11)
    assert legit.p == params.p_max
    assert legit.tau > 0.0
    assert sign >= 0.0


def test_solve_nj_threshold_slope_back_in_range_at_tiny_efficiency():
    # ga2*n_b/gb2 = 2e309 overflows, but K = zeta*(ga2*n_b/gb2 - n_a) = 2e4,
    # so P/K = 5: case a. K used to read inf, which picked full power at a
    # subnormal tau: a profile that does not neutralize and beats solve_ne.
    # 50-digit references: tau_hat = 0.10652915515792392, C = 6.0495075453732029
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=1e5, gamma_max=10.0, zeta=1e-305)
    gains = ChannelGains(1.0, 1e300, 1e-10)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        res = solve_nj(gains, params)
        ne = solve_ne(gains, params)
    legit = res.profile.legit
    assert res.regime is SolutionRegime.NJ_CASE_A
    assert res.value == pytest.approx(6.0495075453732029, rel=1e-12)
    assert legit.tau == pytest.approx(0.10652915515792392, rel=1e-9)
    assert res.value <= ne.value
    # the jammer stays silent: p <= tau*K in exact rational arithmetic
    k_true = Fraction(params.zeta) * (Fraction(gains.ga2) * Fraction(params.n_b)
                                      / Fraction(gains.gb2) - Fraction(params.n_a))
    assert Fraction(legit.p) <= Fraction(legit.tau) * k_true


# --- solve_ne ---------------------------------------------------------------

def test_solve_ne_profile_uses_both_budgets():
    for gains, params, res in consistent_instances(16, 20):
        assert res.profile.legit.p == params.p_max
        assert res.profile.gamma == params.gamma_max
        legit = res.profile.legit
        assert res.value == pytest.approx(
            capacity(legit.p, legit.tau, res.profile.gamma, gains, params), rel=1e-12)
        tag = SolutionRegime.NE_TAU_ZERO if res.profile.legit.tau == 0.0 \
            else SolutionRegime.NE_TAU_INTERIOR
        assert res.regime is tag


def test_solve_ne_tau_zero_when_nothing_worth_harvesting():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(zeta=0.0, gamma_max=0.0)
    res = solve_ne(gains, params)
    assert res.profile.legit.tau == 0.0
    assert res.regime is SolutionRegime.NE_TAU_ZERO
    assert res.feasible


def test_solve_ne_beats_tau_grid():
    rng = np.random.default_rng(17)
    taus = np.linspace(0.0, TAU_LIMIT, 100_000)
    for _ in range(15):
        gains = random_gains(rng)
        params = params_at_sir(float(rng.uniform(-30.0, 10.0)))
        res = solve_ne(gains, params)
        vals = capacity(params.p_max, taus, params.gamma_max, gains, params)
        assert res.value >= float(np.max(vals)) - 1e-9


def test_solve_ne_dominates_solve_nj():
    rng = np.random.default_rng(18)
    for _ in range(200):
        gains = random_gains(rng)
        params = params_at_sir(float(rng.uniform(-30.0, 10.0)),
                               zeta=float(rng.uniform(0.1, 1.0)))
        ne = solve_ne(gains, params)
        nj = solve_nj(gains, params)
        assert ne.value - nj.value >= -1e-9


def test_solve_ne_flags_silent_jammer_regime():
    # strong harvesting link and tiny transmit budget: the jammer would rather
    # stay silent than feed the harvester, so the full-power profile is not
    # mutually stable and must be flagged
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = params_at_sir(-30.0)
    res = solve_ne(gains, params)
    assert p_threshold(res.profile.legit.tau, gains, params) > params.p_max
    assert not res.feasible
    ok, violation = verify_saddle_point(res.profile, gains, params,
                                        grid_sizes=(80, 80, 80))
    assert not ok and violation > 1e-6


# --- one batch at many transmit budgets ------------------------------------

def test_channel_batch_reused_across_budgets_matches_fresh_solves():
    # beta overflows on the full-power profile for the last draw, so the
    # cached Wright-omega lanes are reused too
    gains = ChannelGains(np.array([1.0, 0.3, 2.0, 1e300]), np.array([1.0, 2.0, 0.1, 1e300]),
                         np.array([0.2, 0.0, 1.5, 1e-320]))
    batch = ChannelBatch(gains, params_at_sir(0.0))
    for sir_db in (10.0, -30.0, 0.0, -12.5):
        params = params_at_sir(sir_db)
        fresh_batch = ChannelBatch(gains, params)
        for got, fresh in ((batch.ne(params.p_max), fresh_batch.ne(params.p_max)),
                           (batch.nj(params.p_max), fresh_batch.nj(params.p_max))):
            for a, b in zip(got, fresh):
                assert np.array_equal(a, b)


@pytest.mark.parametrize("p_max", [0.0, -1.0, np.inf, np.nan])
def test_channel_batch_rejects_a_budget_outside_the_float_range(p_max):
    batch = ChannelBatch(ChannelGains(1.0, 1.0, 0.2), reference_params())
    for solve in (batch.ne, batch.nj, batch.no_eh):
        with pytest.raises(ValueError, match="p_max must be positive and finite"):
            solve(p_max)


def test_channel_batch_forms_each_fixed_power_profile_once(monkeypatch):
    # snr_factors runs once per jamming power (gamma_max for NE, 0 for NJ);
    # a later budget only rescales P by snr_scale
    calls = []
    real = solvers.snr_factors
    monkeypatch.setattr(solvers, "snr_factors", lambda *a: calls.append(a[1]) or real(*a))
    batch = ChannelBatch(ChannelGains(np.array([1.0, 0.3]), np.array([1.0, 2.0]),
                                      np.array([0.2, 1.5])), reference_params())
    for sir_db in (-30.0, 0.0, 10.0):
        p_max = params_at_sir(sir_db).p_max
        batch.ne(p_max)
        batch.nj(p_max)
        batch.no_eh(p_max)
    assert sorted(calls) == [0.0, reference_params().gamma_max]


def test_feasibility_is_formed_only_where_it_is_read(monkeypatch):
    # p_threshold reads only the line; ne reads feasibility only where the
    # jammer's sign is not already -1 (the infeasible rule lowers 0 and +1 to
    # -1); nj forms it once per batch, at its first budget
    calls = []
    real = solvers.neutralization_feasible
    monkeypatch.setattr(solvers, "neutralization_feasible",
                        lambda *a: calls.append(1) or real(*a))
    gains = ChannelGains(np.array([1.0, 0.3, 1.0, 0.2]), np.array([1.0, 2.0, 1.0, 0.2]),
                         np.array([0.2, 1.5, 0.5, 1.0]))  # the last link is infeasible
    params = params_at_sir(10.0)
    p_threshold(np.array([0.0, 0.5, 1.0, 0.25]), gains, params)
    solve_ne(ChannelGains(1.0, 1.0, 0.2), params)
    batch = ChannelBatch(gains, params)
    ne = batch.ne(params.p_max)
    assert ne.stable.all() and calls == []
    for sir_db in (-30.0, 0.0, 10.0):
        batch.nj(params_at_sir(sir_db).p_max)
    assert len(calls) == 1


_EDGE_GAINS = (0.0, 5e-324, 1e-310, 0.2, 1.0, 1e12, 1e160, 1e300)


@pytest.mark.parametrize("scale_rule", [model.snr_scale, lambda gamma: np.maximum(gamma, 2.0)],
                         ids=["shipped", "max_gamma_2"])
@pytest.mark.parametrize("zeta", [0.0, 0.5, 1.0])
def test_channel_batch_values_are_the_checked_capacity_bit_for_bit(zeta, scale_rule,
                                                                   monkeypatch):
    # ne, nj and no_eh evaluate capacity_from_factors on the batch's own
    # factors; the checked capacity forms them afresh from the same inputs,
    # over every combination of zero, subnormal, ordinary, >= 1e12 and
    # overflow-rescue gains, also under a scale rule with snr_scale(0) != 1:
    # the batch reads the scale from model's rule, never assumes it
    monkeypatch.setattr(model, "snr_scale", scale_rule)
    monkeypatch.setattr(solvers, "snr_scale", scale_rule)
    h2, ga2, gb2 = (g.ravel() for g in np.meshgrid(_EDGE_GAINS, _EDGE_GAINS, _EDGE_GAINS))
    gains = ChannelGains(h2, ga2, gb2)
    params = reference_params(zeta=zeta)
    batch = ChannelBatch(gains, params)
    for sir_db in (-30.0, -10.0, 0.0, 10.0):
        p_max = params_at_sir(sir_db).p_max
        ne, nj = batch.ne(p_max), batch.nj(p_max)
        pairs = ((ne.value, capacity(p_max, ne.tau, params.gamma_max, gains, params)),
                 (nj.value, capacity(nj.p, nj.tau, 0.0, gains, params)),
                 (batch.no_eh(p_max), capacity(p_max, 0.0, params.gamma_max, gains, params)))
        for got, checked in pairs:
            assert got.tobytes() == checked.tobytes()


def test_channel_batch_builds_one_threshold_line_per_chunk():
    # the line is built with the batch; every budget, NE's jammer sign and
    # NJ's kink included, reads it without building another batch, also for a
    # chunk with a K = inf lane (gb2 == 0)
    batch = ChannelBatch(ChannelGains(np.array([1.0, 0.3, 1.0]), np.array([1.0, 2.0, 1.0]),
                                      np.array([0.2, 1.5, 0.0])), reference_params())
    with counted_batches() as batches:
        for sir_db in (-30.0, 0.0, 10.0):
            p_max = params_at_sir(sir_db).p_max
            batch.ne(p_max)
            batch.nj(p_max)
    assert batches == []


def test_channel_batch_ne_never_solves_the_threshold_profile(monkeypatch):
    # t_hat is nj's alone: a full-power solve, scalar or batched, leaves it unsolved
    profiles = []
    real = solvers._tau_profile
    monkeypatch.setattr(solvers, "_tau_profile",
                        lambda profile, *a: profiles.append(profile) or real(profile, *a))
    batch = ChannelBatch(ChannelGains(np.array([1.0, 0.3, 1.0]), np.array([1.0, 2.0, 1.0]),
                                      np.array([0.2, 1.5, 0.0])), reference_params())
    for sir_db in (-30.0, 0.0, 10.0):
        batch.ne(params_at_sir(sir_db).p_max)
    solve_ne(ChannelGains(1.0, 1.0, 0.2), reference_params())
    assert profiles and not any(isinstance(p, OnThreshold) for p in profiles)
    batch.nj(reference_params().p_max)
    assert isinstance(profiles[-1], OnThreshold)


@pytest.mark.parametrize("gb2", [0.2, 0.0, 1e-310], ids=["finite-k", "unreached", "k-overflows"])
def test_solve_nj_builds_one_threshold_line(monkeypatch, gb2):
    # one line, whose K gives the kink and whose value at tau = 0 covers the
    # K = inf links (gb2 == 0, or K overflows); no p_threshold call
    monkeypatch.setattr(solvers, "p_threshold", None)
    with counted_batches() as batches:
        solve_nj(ChannelGains(1.0, 1.0, gb2), params_at_sir(10.0))
    assert len(batches) == 1


def test_solve_nj_settles_a_kink_below_p_in_one_ulp_step():
    # draw 78 of seed 0 at -10 dB (P = 1 mW): fl(P/K)*K rounds below P, so
    # tau steps one ulp past the kink, and that step alone reaches P
    gains = ChannelGains(1.1676177856993808, 2.450164956445085, 0.07503071158396635)
    assert sample_channels(0, 78) == gains
    params = params_at_sir(-10.0)
    p_max = params.p_max
    k = p_threshold(1.0, gains, params)
    assert p_threshold(p_max / k, gains, params) < p_max
    with counted_batches() as batches:
        res = solve_nj(gains, params)
    assert len(batches) == 1  # fl(P/K)*K and the stepped tau are read from its K
    legit = res.profile.legit
    assert res.regime is SolutionRegime.NJ_CASE_B_CANDIDATE1
    assert legit.p == p_max
    assert (p_threshold(np.nextafter(legit.tau, 0.0), gains, params) < p_max
            <= p_threshold(legit.tau, gains, params))


# --- saddle point verification ----------------------------------------------

def test_verify_saddle_point_passes_on_consistent_solutions():
    for gains, params, res in consistent_instances(19, 15):
        ok, violation = verify_saddle_point(res.profile, gains, params,
                                            grid_sizes=(200, 200, 200))
        assert ok, violation
        assert violation <= 1e-8


def test_neutralizing_profile_is_not_stable():
    # a generic consistent draw with a feasible jammer: deviating to full power
    # with no time sharing beats the neutralizing strategy
    for gains, params, _ in consistent_instances(20, 40):
        nj = solve_nj(gains, params)
        if not nj.feasible:
            continue
        dev = capacity(params.p_max, 0.0, 0.0, gains, params)
        if dev <= nj.value + 1e-6:
            continue  # boundary coincidences exist at low SIR; skip those
        ok, violation = verify_saddle_point(nj.profile, gains, params,
                                            grid_sizes=(200, 200, 50))
        assert not ok
        assert violation > 1e-6
        return
    pytest.fail("no generic feasible draw found")


def test_verify_saddle_point_vacuous_jammer_side_without_budget():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params(gamma_max=0.0)
    res = solve_ne(gains, params)
    ok, violation = verify_saddle_point(res.profile, gains, params,
                                        grid_sizes=(150, 150, 10))
    assert ok, violation


def test_verify_saddle_point_grid_validation():
    gains = ChannelGains(1.0, 1.0, 0.2)
    params = reference_params()
    res = solve_ne(gains, params)
    with pytest.raises(ValueError):
        verify_saddle_point(res.profile, gains, params, grid_sizes=(1, 10, 10))
    for tol in (np.nan, np.inf, -np.inf):
        with pytest.raises(ValueError, match="tol must be finite"):
            verify_saddle_point(res.profile, gains, params, grid_sizes=(10, 10, 10),
                                tol=tol)


# --- structure of the full-power objective ----------------------------------

def test_full_power_capacity_concave_in_tau():
    rng = np.random.default_rng(21)
    taus = np.linspace(0.001, 0.999, 1000)
    for _ in range(25):
        gains = random_gains(rng)
        params = params_at_sir(float(rng.uniform(-30.0, 10.0)))
        c = capacity(params.p_max, taus, params.gamma_max, gains, params)
        second = c[2:] - 2 * c[1:-1] + c[:-2]
        assert np.max(second) <= 1e-9


def test_full_power_derivative_changes_sign_at_most_once():
    rng = np.random.default_rng(22)
    taus = np.linspace(1e-6, 1 - 1e-6, 10_000)
    for _ in range(25):
        gains = random_gains(rng)
        params = params_at_sir(float(rng.uniform(-30.0, 10.0)))
        prof = FixedPower(params.p_max, params.gamma_max)
        g = capacity_tau_derivative(prof, taus, gains, params)
        signs = g > 0
        assert int(np.sum(signs[:-1] != signs[1:])) <= 1


# --- grid oracles -----------------------------------------------------------

def test_grid_oracles_worker_hint_is_result_invariant():
    gains = ChannelGains(0.9, 1.1, 0.3)
    params = params_at_sir(-5.0)
    assert ne_grid_optimum(gains, params, n=10_001, workers=1) == \
        ne_grid_optimum(gains, params, n=10_001, workers=4)
    assert nj_grid_value(gains, params, n=200, workers=1) == \
        nj_grid_value(gains, params, n=200, workers=3)


def test_ne_grid_optimum_finite_where_jamming_budget_times_gain_overflows():
    # gamma*ga2 = 1e310; the grid used to read (0.0, -inf)
    gains = ChannelGains(1.0, 1e10, 1.0)
    params = SystemParams(n_a=0.1, n_b=db_to_linear(-7.0), p_max=1.0,
                          gamma_max=1e300, zeta=0.8)
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        tau, value = ne_grid_optimum(gains, params, n=1001)
    assert np.isfinite(value) and tau > 0.0
    assert value <= solve_ne(gains, params).value


def test_nj_grid_value_zero_when_infeasible():
    assert nj_grid_value(ChannelGains(0.2, 0.2, 1.0), reference_params()) == 0.0


def test_nj_grid_value_interference_free_jammer_at_zero_efficiency():
    # gb2 == 0: every strategy neutralizes, so the grid reaches p = P even
    # though zeta == 0 makes the threshold slope K zero
    gains = ChannelGains(1.0, 1.0, 0.0)
    params = SystemParams(n_a=0.1, n_b=0.2, p_max=1.0, gamma_max=10.0, zeta=0.0)
    assert nj_grid_value(gains, params) == solve_nj(gains, params).value
