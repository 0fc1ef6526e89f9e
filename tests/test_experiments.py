import math
import re
import struct
import sys
import tracemalloc
import warnings

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from ehjam import (
    ChannelBatch,
    ChannelGains,
    SweepConfig,
    SystemParams,
    capacity,
    db_to_linear,
    metric_f,
    metric_fnj,
    sample_channels,
    sir_points,
    sir_sweep,
    solve_ne,
    solve_nj,
    transmit_budget,
    write_csv,
)
from ehjam import experiments, solvers
from ehjam.experiments import _CSV_COLUMNS, _exact_parts, _gain_block, _philox_block
from helpers import params_at_sir, reference_params


# --- channel sampling -------------------------------------------------------

def test_sample_channels_deterministic():
    a = sample_channels(7, 123)
    b = sample_channels(7, 123)
    assert a == b


def test_sample_channels_varies_with_seed_and_index():
    base = sample_channels(7, 0)
    assert sample_channels(7, 1) != base
    assert sample_channels(8, 0) != base


def test_sample_channels_nonnegative():
    for i in range(200):
        g = sample_channels(3, i)
        assert g.h2 >= 0 and g.ga2 >= 0 and g.gb2 >= 0


def test_sample_channels_validates_inputs():
    with pytest.raises(ValueError):
        sample_channels(-1, 0)
    with pytest.raises(ValueError):
        sample_channels(0, -1)
    with pytest.raises(ValueError, match=r"seed must lie in \[0, 2\*\*128\)"):
        sample_channels(2**128, 0)
    g = sample_channels(2**128 - 1, 0)
    assert all(math.isfinite(x) and x >= 0.0 for x in (g.h2, g.ga2, g.gb2))


def test_sample_channels_rejects_an_index_beyond_the_counter():
    # the 256-bit counter would wrap: index 2**256 would alias index 0
    for index in (2**256, 2**256 + 1, 2**300):
        with pytest.raises(ValueError, match=r"index must lie in \[0, 2\*\*256\)"):
            sample_channels(0, index)
    with pytest.raises(ValueError, match=r"index must lie in \[0, 2\*\*256\)"):
        sample_channels(0, -1)
    g = sample_channels(0, 2**256 - 1)
    assert all(math.isfinite(x) and x >= 0.0 for x in (g.h2, g.ga2, g.gb2))


@pytest.mark.parametrize("integer", [np.int64, np.uint64, np.int32])
def test_sample_channels_takes_any_integer_type(integer):
    assert sample_channels(integer(3), 5) == sample_channels(3, 5)
    assert sample_channels(3, integer(5)) == sample_channels(3, 5)
    assert sample_channels(integer(3), integer(5)) == sample_channels(3, 5)


@pytest.mark.parametrize("seed, index", [(3.0, 5), (3, 5.0), (1.9, 0), (0, np.float64(2.0))])
def test_sample_channels_rejects_non_integral_inputs(seed, index):
    with pytest.raises(TypeError):
        sample_channels(seed, index)


# deterministic examples, no example database: the suite reruns identically
_DRAW_SETTINGS = settings(max_examples=200, deadline=None, derandomize=True, database=None)
_SEEDS = st.integers(0, 2**128 - 1)
# small indices, indices around 2**64 (a carry into the counter's second
# word) and the whole counter range up to 2**256 - 1 (counter wraps to 0)
_INDICES = st.one_of(st.integers(0, 2**20), st.integers(2**64 - 2**10, 2**64 + 2**10),
                     st.integers(0, 2**256 - 1))


@_DRAW_SETTINGS
@given(seed=_SEEDS, start=_INDICES, count=st.integers(1, 8))
@example(seed=11, start=0, count=64)
@example(seed=11, start=60, count=4)
@example(seed=2**128 - 1, start=2**64 - 1, count=4)
@example(seed=0, start=2**256 - 1, count=1)
def test_gain_block_matches_per_index_draws(seed, start, count):
    # the one-draw Python path gives the sweep's rows, bit for bit
    start = min(start, 2**256 - count)
    block = _gain_block(seed, start, count)
    for i in range(count):
        g = sample_channels(seed, start + i)
        assert struct.pack("<3d", g.h2, g.ga2, g.gb2) == block[i].tobytes()
        assert all(type(x) is float for x in (g.h2, g.ga2, g.gb2))


@_DRAW_SETTINGS
@given(key=_SEEDS, counter=_INDICES)
@example(key=2**128 - 1, counter=2**64 + 3)
@example(key=0, counter=2**256 - 1)
def test_philox_block_matches_numpy_philox(key, counter):
    # numpy's Philox steps its counter before each block
    from numpy.random import Philox

    words = Philox(key=key, counter=counter).random_raw(4)
    assert _philox_block(key, (counter + 1) % 2**256) == tuple(map(int, words))


def test_gain_moments_match_squared_standard_normal():
    block = _gain_block(1, 0, 1_000_000)
    means = block.mean(axis=0)
    assert np.all(means > 0.99) and np.all(means < 1.01)


# --- efficiency metrics -----------------------------------------------------

def test_metric_fnj_examples():
    assert metric_fnj(0.7, 0.0) == 1.0
    assert metric_fnj(0.7, 0.7) == 0.0
    assert metric_fnj(0.8, 0.2) == pytest.approx(0.75, rel=1e-15)


def test_metric_f_examples():
    assert metric_f(1.0, 0.05) == pytest.approx(0.95, rel=1e-15)
    assert metric_f(0.3, 0.3) == 0.0
    assert metric_f(0.0, 0.0) == 0.0  # degenerate zero reference


def test_metrics_contract_violations():
    with pytest.raises(ValueError):
        metric_fnj(0.0, 0.1)
    with pytest.raises(ValueError):
        metric_f(0.5, 0.6)
    with pytest.raises(ValueError):
        metric_f(-0.1, 0.0)


def test_metrics_clamp_float_noise():
    # a hair below the reference is numerical noise, not a violation
    assert metric_f(1.0, 1.0 + 1e-12) == 0.0
    assert metric_fnj(1.0, 1.0 + 1e-12) == 0.0


def test_metrics_vectorized():
    c_ne = np.array([1.0, 0.8, 0.5])
    c_nj = np.array([0.0, 0.2, 0.5])
    out = metric_fnj(c_ne, c_nj)
    assert np.allclose(out, [1.0, 0.75, 0.0], rtol=0, atol=1e-15)


# --- sweep configuration ----------------------------------------------------

def test_sweep_config_validation():
    params = reference_params()
    good = dict(sir_start_db=-30.0, sir_stop_db=10.0, sir_step_db=1.0, params=params)
    SweepConfig(**good)
    for bad in (
        dict(good, sir_step_db=0.0),
        dict(good, sir_stop_db=-40.0),
        dict(good, mc_draws=0),
        dict(good, rng_seed=-1),
        dict(good, rng_seed=2**128),
        dict(good, params=reference_params(gamma_max=0.0)),
    ):
        with pytest.raises(ValueError):
            SweepConfig(**bad)


def test_sweep_config_bounds_the_sir_grid_before_building_it():
    params = reference_params()
    # 4e301 points: rejected from the step alone, before any list is built
    with pytest.raises(ValueError, match="more than 100000 points"):
        SweepConfig(-30.0, 10.0, 1e-300, params)
    with pytest.raises(ValueError, match="more than 100000 points"):
        SweepConfig(-30.0, 10.0, 5e-324, params)  # the step count overflows
    with pytest.raises(ValueError, match="more than 100000 points"):
        SweepConfig(0.0, 10.0, 1e-4, params)  # 100,001 points
    assert len(sir_points(SweepConfig(0.0, 9.9999, 1e-4, params))) == 100_000


def test_sweep_config_rejects_a_budget_leaving_the_float_range_at_one_point():
    # P = gamma_max*10^(SIR/10) is finite up to 80 dB and inf at 90 dB only
    params = reference_params(gamma_max=1e300)
    SweepConfig(-30.0, 80.0, 10.0, params)
    with pytest.raises(ValueError, match=r"= inf mW at SIR 90 dB"):
        SweepConfig(-30.0, 90.0, 10.0, params)
    # and 0 at -30 dB only
    params = reference_params(gamma_max=1e-321)
    SweepConfig(-20.0, 10.0, 10.0, params)
    with pytest.raises(ValueError, match=r"= 0 mW at SIR -30 dB"):
        SweepConfig(-30.0, 10.0, 10.0, params)


def test_sweep_config_checks_each_budget_as_the_sweep_forms_it():
    # numpy's array pow gives P = 1.7976931348623155e308 here, libm's gives inf
    params = SystemParams(0.1, 0.2, 1.0, 5.6848048402131625e+305, 0.8)
    with pytest.raises(ValueError, match=r"= inf mW at SIR 25 dB; P must be positive"):
        SweepConfig(25.0, 25.0, 1.0, params)


def _ulp_neighbourhood(x, ulps=4):
    """x and the ulps floats on either side of it."""
    out, below, above = [x], x, x
    for _ in range(ulps):
        below, above = math.nextafter(below, -math.inf), math.nextafter(above, math.inf)
        out += [below, above]
    return out


@pytest.mark.parametrize("sir_db", [-30.0 + i for i in range(41)] + [25.0])
def test_sweep_config_raises_iff_transmit_budget_raises(sir_db):
    # jamming budgets within 4 ulps of where P = gamma_max*10^(SIR/10)
    # overflows to inf and of where it underflows to 0
    scale = db_to_linear(sir_db)
    edges = (sys.float_info.max / scale, math.ulp(0.0) / (2.0 * scale))
    outcomes = set()
    for gamma in {g for edge in edges for g in _ulp_neighbourhood(edge)
                  if 0.0 < g < math.inf}:
        params = reference_params(gamma_max=gamma)
        try:
            transmit_budget(gamma, sir_db)
        except ValueError as exc:
            outcomes.add("raises")
            with pytest.raises(ValueError, match=re.escape(str(exc))):
                SweepConfig(sir_db, sir_db, 1.0, params)
        else:
            outcomes.add("accepts")
            SweepConfig(sir_db, sir_db, 1.0, params)
    # for 10^(SIR/10) in (1/2, 1], no finite positive budget leaves the range
    assert outcomes == ({"accepts"} if -3.0 <= sir_db <= 0.0 else {"accepts", "raises"})


@pytest.mark.parametrize("integer", [np.int64, np.uint64])
def test_sweep_config_takes_any_integer_type(integer):
    params = reference_params()
    plain = SweepConfig(-10.0, 0.0, 5.0, params, mc_draws=300, rng_seed=9)
    numpy = SweepConfig(-10.0, 0.0, 5.0, params, mc_draws=integer(300), rng_seed=integer(9))
    assert type(numpy.mc_draws) is int and type(numpy.rng_seed) is int
    assert numpy == plain
    assert sir_sweep(numpy) == sir_sweep(plain)


@pytest.mark.parametrize("field, value", [("rng_seed", 1.9), ("rng_seed", 1.0),
                                          ("mc_draws", 2.5), ("mc_draws", np.float64(10.0))])
def test_sweep_config_rejects_non_integral_counts(field, value):
    with pytest.raises(TypeError):
        SweepConfig(-10.0, 0.0, 5.0, reference_params(), **{field: value})


def test_sir_points_inclusive_grid():
    params = reference_params()
    cfg = SweepConfig(-30.0, 10.0, 1.0, params)
    pts = sir_points(cfg)
    assert len(pts) == 41
    assert pts[0] == -30.0 and pts[-1] == 10.0
    cfg2 = SweepConfig(0.0, 1.0, 0.25, params)
    assert sir_points(cfg2) == [0.0, 0.25, 0.5, 0.75, 1.0]


# --- sweeps -----------------------------------------------------------------

def test_fixed_gain_sweep_records():
    params = reference_params()
    gains = ChannelGains(1.0, 1.0, 0.2)
    cfg = SweepConfig(-10.0, 0.0, 2.0, params, fixed_gains=gains)
    records = sir_sweep(cfg)
    assert [r.sir_db for r in records] == [-10.0, -8.0, -6.0, -4.0, -2.0, 0.0]
    for rec in records:
        assert rec.c_ne >= rec.c_nj - 1e-9
        assert rec.c_ne >= rec.c_no_eh - 1e-9
        assert 0.0 <= rec.f <= 1.0
        assert 0.0 <= rec.f_nj <= 1.0
        assert rec.nj_feasible_fraction == 1.0
        assert 0.0 <= rec.tau_ne_mean < 1.0
        # single-channel sweeps: ratio means equal the ratio of the means
        assert rec.f_ratio_mean == pytest.approx(rec.f, abs=1e-15)
        assert rec.f_nj_ratio_mean == pytest.approx(rec.f_nj, abs=1e-15)


def test_fixed_gain_sweep_matches_scalar_solvers():
    params = reference_params()
    gains = ChannelGains(0.6, 1.4, 0.3)
    cfg = SweepConfig(-5.0, -5.0, 1.0, params, fixed_gains=gains)
    (rec,) = sir_sweep(cfg)
    p = params_at_sir(-5.0)
    assert rec.c_ne == pytest.approx(solve_ne(gains, p).value, rel=1e-14)
    assert rec.c_nj == pytest.approx(solve_nj(gains, p).value, rel=1e-14)
    assert rec.c_no_eh == pytest.approx(
        capacity(p.p_max, 0.0, p.gamma_max, gains, p), rel=1e-14)


def test_sweep_rejects_budget_that_underflows():
    # the library path: the config itself is rejected, before any solve, for
    # P = 1e-322 * 10**-3 (underflows) and P = 1e308 * 10**0.3 (overflows)
    for gamma_max, message in ((1e-322, "= 0 mW at SIR -30 dB"),
                               (1e308, "= inf mW at SIR 3 dB")):
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(ValueError, match=message):
                SweepConfig(-30.0, 10.0, 1.0, reference_params(gamma_max=gamma_max),
                            mc_draws=10)


def test_mc_sweep_record_invariants_and_determinism():
    params = reference_params()
    cfg = SweepConfig(-20.0, 0.0, 5.0, params, mc_draws=400, rng_seed=9)
    records = sir_sweep(cfg)
    again = sir_sweep(cfg)
    assert records == again
    for rec in records:
        assert rec.c_ne >= rec.c_nj - 1e-9
        assert rec.c_ne >= rec.c_no_eh - 1e-9
        assert 0.0 <= rec.f <= 1.0 and 0.0 <= rec.f_nj <= 1.0
        assert 0.0 <= rec.f_ratio_mean <= 1.0 and 0.0 <= rec.f_nj_ratio_mean <= 1.0
        assert 0.0 <= rec.nj_feasible_fraction <= 1.0
        assert 0.0 <= rec.tau_ne_mean < 1.0


def test_batch_solvers_match_scalar_solvers():
    draws = 100
    block = _gain_block(23, 0, draws)
    gains_vec = ChannelGains(block[:, 0], block[:, 1], block[:, 2])
    for sir_db in (-30.0, -10.0, 0.0, 10.0):
        params = params_at_sir(sir_db)
        tau_ne, c_ne, _ = ChannelBatch(gains_vec, params).ne(params.p_max)
        _, _, c_nj, regime = ChannelBatch(gains_vec, params).nj(params.p_max)
        for i in range(draws):
            g = ChannelGains(*block[i])
            ne = solve_ne(g, params)
            nj = solve_nj(g, params)
            assert abs(tau_ne[i] - ne.profile.legit.tau) <= 1e-10
            assert abs(c_ne[i] - ne.value) <= 1e-10
            assert abs(c_nj[i] - nj.value) <= 1e-9
            assert bool(regime[i]) == nj.feasible  # code 0 is NJ-infeasible


@pytest.mark.parametrize("chunk, draws", [(1, 1_001), (7, 10_001), (4096, 10_001)])
def test_sweep_bytes_do_not_depend_on_the_chunk_size(tmp_path, monkeypatch, chunk, draws):
    # the default chunk holds all the draws; a chunk of 1 is run on fewer
    # draws because each chunk costs about 2 ms of per-call overhead
    cfg = SweepConfig(-30.0, 10.0, 40.0, reference_params(), mc_draws=draws, rng_seed=5)
    whole, chunked = tmp_path / "whole.csv", tmp_path / "chunked.csv"
    write_csv(sir_sweep(cfg), whole, cfg)
    monkeypatch.setattr(experiments, "_CHUNK_DRAWS", chunk)
    write_csv(sir_sweep(cfg), chunked, cfg)
    assert chunked.read_bytes() == whole.read_bytes()


def test_tau_profiles_are_solved_once_per_chunk(monkeypatch):
    calls = []
    real = solvers._lambert_w0
    monkeypatch.setattr(solvers, "_lambert_w0", lambda *a: calls.append(1) or real(*a))
    gains, params = ChannelGains(1.0, 1.0, 0.2), params_at_sir(-10.0)
    for solve, expected in ((solve_ne, 1), (solve_nj, 2)):
        calls.clear()
        solve(gains, params)
        assert len(calls) == expected
    for chunk, draws in ((experiments._CHUNK_DRAWS, 10_000), (4096, 10_001)):
        monkeypatch.setattr(experiments, "_CHUNK_DRAWS", chunk)
        calls.clear()
        sir_sweep(SweepConfig(-30.0, 10.0, 1.0, reference_params(), mc_draws=draws))
        assert len(calls) == 3 * math.ceil(draws / chunk)


def test_sweep_memory_is_flat_in_draws():
    def peak(draws):
        cfg = SweepConfig(0.0, 0.0, 1.0, reference_params(), mc_draws=draws, rng_seed=1)
        tracemalloc.start()
        try:
            sir_sweep(cfg)
            return tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()

    assert peak(400_000) <= 1.2 * peak(100_000)


# --- exact sums -------------------------------------------------------------

def _fsum_bits(values):
    """math.fsum's result as bits (the sign of zero and NaNs included), or
    the type of the error it raises."""
    try:
        return struct.pack("<d", math.fsum(values))
    except (OverflowError, ValueError) as exc:
        return type(exc)


@settings(max_examples=300, deadline=None, derandomize=True, database=None)
@given(seed=st.integers(0, 2**32 - 1), n=st.integers(0, 20_000),
       hi=st.floats(-320.0, 308.23), span=st.floats(0.0, 630.0),
       zeros=st.sampled_from([0.0, 0.3, 1.0]),
       special=st.sampled_from([None, np.inf, -np.inf, np.nan]),
       edge=st.sampled_from([None, 1020, 1021, 1022, 1023, 1024]),
       splits=st.integers(0, 6))
def test_exact_parts_sum_to_the_bits_of_fsum(seed, n, hi, span, zeros, special, edge,
                                             splits):
    # magnitudes log-uniform in [10^max(hi-span, -320), 10^hi], mixed signs,
    # zeros of either sign; edge puts in a value whose binary exponent is at
    # or near the one where sigma overflows
    rng = np.random.default_rng(seed)
    a = rng.choice([-1.0, 1.0], n) * 10.0 ** rng.uniform(max(hi - span, -320.0), hi, n)
    a = np.where(rng.random(n) < zeros, np.copysign(0.0, a), a)
    if n and special is not None:
        a[rng.integers(0, n, 3)] = special
    if n and edge is not None:
        a[rng.integers(0, n)] = math.ldexp(rng.choice([-0.75, 0.75]), edge)
    whole = _fsum_bits(a.tolist())
    assert _fsum_bits(_exact_parts(a)) == whole
    chunks = np.split(a, np.sort(rng.integers(0, n + 1, splits)))
    if not isinstance(whole, type):  # fsum's overflow depends on the order
        assert _fsum_bits([x for c in chunks for x in _exact_parts(c)]) == whole


# --- CSV output -------------------------------------------------------------

def _parse_csv(path):
    lines = [l for l in path.read_text().splitlines() if not l.startswith("#")]
    header = lines[0].split(",")
    rows = [dict(zip(header, line.split(","))) for line in lines[1:]]
    return header, rows


def test_write_csv_minimal_two_lines(tmp_path):
    params = reference_params()
    cfg = SweepConfig(0.0, 0.0, 1.0, params, fixed_gains=ChannelGains(1.0, 1.0, 0.2))
    records = sir_sweep(cfg)
    out = tmp_path / "one.csv"
    write_csv(records, out, cfg)
    lines = [l for l in out.read_text().splitlines() if not l.startswith("#")]
    assert len(lines) == 2
    assert lines[0] == ",".join(_CSV_COLUMNS)


def test_write_csv_round_trips_exactly(tmp_path):
    params = reference_params()
    cfg = SweepConfig(-10.0, 0.0, 5.0, params, mc_draws=50, rng_seed=4)
    records = sir_sweep(cfg)
    out = tmp_path / "sweep.csv"
    write_csv(records, out, cfg)
    header, rows = _parse_csv(out)
    assert header == list(_CSV_COLUMNS)
    assert len(rows) == len(records)
    for rec, row in zip(records, rows):
        for col in _CSV_COLUMNS:
            parsed = float(row[col])
            assert parsed == getattr(rec, col)  # bit-exact round trip
            assert format(parsed, ".12g") == format(getattr(rec, col), ".12g")


def test_write_csv_sorts_by_sir(tmp_path):
    params = reference_params()
    cfg = SweepConfig(-4.0, 0.0, 2.0, params, fixed_gains=ChannelGains(1.0, 1.0, 0.2))
    records = list(reversed(sir_sweep(cfg)))
    out = tmp_path / "sorted.csv"
    write_csv(records, out, cfg)
    _, rows = _parse_csv(out)
    sirs = [float(r["sir_db"]) for r in rows]
    assert sirs == sorted(sirs)


def test_write_csv_identical_bytes_across_runs(tmp_path):
    params = reference_params()
    cfg = SweepConfig(-10.0, -5.0, 5.0, params, mc_draws=80, rng_seed=5)
    out1, out2 = tmp_path / "a.csv", tmp_path / "b.csv"
    write_csv(sir_sweep(cfg), out1, cfg)
    write_csv(sir_sweep(cfg), out2, cfg)
    assert out1.read_bytes() == out2.read_bytes()


def test_write_csv_rejects_empty():
    cfg = SweepConfig(0.0, 0.0, 1.0, reference_params(),
                      fixed_gains=ChannelGains(1.0, 1.0, 0.2))
    with pytest.raises(ValueError):
        write_csv([], "unused.csv", cfg)


def test_write_csv_config_echo_comments(tmp_path):
    params = reference_params()
    cfg = SweepConfig(-10.0, -10.0, 1.0, params, mc_draws=10, rng_seed=2)
    out = tmp_path / "echo.csv"
    write_csv(sir_sweep(cfg), out, cfg)
    text = out.read_text().splitlines()
    comments = [l for l in text if l.startswith("#")]
    assert any("seed=2" in c for c in comments)
    assert any("draws=10" in c for c in comments)
    assert any("gamma_dbm=10" in c for c in comments)
    assert any("aggregation=ratio-of-averaged-capacities" in c for c in comments)
    assert text[len(comments)] == ",".join(_CSV_COLUMNS)


def test_write_csv_surfaces_destination_on_failure(tmp_path):
    params = reference_params()
    cfg = SweepConfig(0.0, 0.0, 1.0, params, fixed_gains=ChannelGains(1.0, 1.0, 0.2))
    records = sir_sweep(cfg)
    bad = tmp_path / "missing-dir" / "out.csv"
    with pytest.raises(OSError, match="missing-dir"):
        write_csv(records, bad, cfg)
