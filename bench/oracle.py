"""Frozen reference implementation of the outputs the benchmark checks.

A self-contained NumPy transcription of the sweep and scalar-solve math as
the package computed it when the benchmark was defined: the same Philox
channel draws, the same capacity formula, the same 44-step bisection of the
tau-derivative and the same case logic for the neutralizing optimum. It
imports nothing from ``ehjam``, so a later change to the package cannot move
the reference along with it. For the seeds in ``reference/`` it reproduces
the committed files (``selftest.py`` checks that); for every other seed it is
the reference the run is compared against.

Draws are solved in chunks, which bounds the temporaries; each per-draw
column is then reduced whole with ``math.fsum``, as the package does.
"""

from __future__ import annotations

import math

import numpy as np
from numpy.random import Generator, Philox
from scipy.special import ndtri

LN2 = math.log(2.0)
TAU_LIMIT = 1.0 - 1e-9
BRACKET_LO = 1e-6
BRACKET_HI = 1.0 - 1e-6
BISECT_ITERS = 44
DOMINANCE_TOL = 1e-9
CHUNK = 100_000

# CLI defaults: noise -10 dBm (harvesting side) and -7 dBm (receiver),
# jamming budget 10 dBm, harvesting efficiency 0.8.
NA_DBM, NB_DBM, GAMMA_DBM, ZETA = -10.0, -7.0, 10.0, 0.8
N_A = 10.0 ** (NA_DBM / 10.0)
N_B = 10.0 ** (NB_DBM / 10.0)
GAMMA = 10.0 ** (GAMMA_DBM / 10.0)

CSV_COLUMNS = ("sir_db", "c_ne", "c_nj", "c_no_eh", "f", "f_nj",
               "nj_feasible_fraction", "tau_ne_mean", "f_ratio_mean",
               "f_nj_ratio_mean")


def gain_block(seed: int, start: int, count: int) -> np.ndarray:
    """(count, 3) squared standard-normal gains of draws start..start+count-1."""
    bit_gen = Philox(key=seed)
    if start:
        bit_gen.advance(start)
    raw = Generator(bit_gen).integers(0, 2**64, size=(count, 4), dtype=np.uint64)
    u = ((raw[:, :3] >> np.uint64(11)).astype(np.float64) + 0.5) * 2.0**-53
    return ndtri(u) ** 2


def sir_grid(start_db: float, stop_db: float, step_db: float) -> list[float]:
    n = int(math.floor((stop_db - start_db) / step_db + 1e-9)) + 1
    return [start_db + i * step_db for i in range(n)]


def capacity(p, tau, gamma, h2, ga2, gb2):
    remain = 1.0 - np.asarray(tau, dtype=float)
    num = (p + tau * ZETA * (gamma * ga2 + N_A)) * h2
    den = remain * (gamma * gb2 + N_B)
    with np.errstate(divide="ignore", invalid="ignore", over="ignore"):
        c = remain / 2.0 * np.log1p(num / den) / LN2
    return np.where(remain == 0.0, 0.0, c)


def tau_derivative(tau, alpha, beta):
    x = (alpha + beta * tau) / (1.0 - tau)
    d = (1.0 - tau) + alpha + beta * tau
    return (-np.log1p(x) + (alpha + beta) / d) / (2.0 * LN2)


def fixed_power_coefficients(p, gamma, h2, ga2, gb2):
    scale = h2 / (gamma * gb2 + N_B)
    return p * scale, ZETA * (gamma * ga2 + N_A) * scale


def optimal_tau(alpha, beta, endpoint_rule=False):
    """Maximizer of the concave tau-profile per element: 0 when the
    derivative starts nonpositive, else the bisected derivative root.

    endpoint_rule reproduces the scalar solvers, which compare the values at
    0 and TAU_LIMIT instead of bisecting when the derivative stays positive
    up to BRACKET_HI; the batch path always bisects.
    """
    alpha = np.broadcast_to(np.asarray(alpha, float), np.shape(beta)).copy()
    beta = np.asarray(beta, float)
    tau = np.zeros_like(beta)
    rising = tau_derivative(BRACKET_LO, alpha, beta) > 0.0
    if endpoint_rule:
        flat = rising & (tau_derivative(BRACKET_HI, alpha, beta) > 0.0)
        rising &= ~flat
        v_lo = (1.0 / 2.0) * np.log1p(alpha[flat]) / LN2
        v_hi = capacity_of_profile(TAU_LIMIT, alpha[flat], beta[flat])
        tau[flat] = np.where(v_lo >= v_hi, 0.0, TAU_LIMIT)
    a, b = alpha[rising], beta[rising]
    lo = np.full(a.shape, BRACKET_LO)
    hi = np.full(a.shape, BRACKET_HI)
    for _ in range(BISECT_ITERS):
        mid = 0.5 * (lo + hi)
        pos = tau_derivative(mid, a, b) > 0.0
        lo = np.where(pos, mid, lo)
        hi = np.where(pos, hi, mid)
    tau[rising] = 0.5 * (lo + hi)
    return tau


def capacity_of_profile(tau, alpha, beta):
    """C(tau) = (1-tau)/2 log2(1 + (alpha + beta tau)/(1-tau))."""
    remain = 1.0 - tau
    return remain / 2.0 * np.log1p((alpha + beta * tau) / remain) / LN2


def ne_batch(p_max, h2, ga2, gb2):
    alpha, beta = fixed_power_coefficients(p_max, GAMMA, h2, ga2, gb2)
    tau = optimal_tau(alpha, beta)
    return tau, capacity(p_max, tau, GAMMA, h2, ga2, gb2)


def nj_batch(p_max, h2, ga2, gb2):
    feasible = ga2 * N_B > gb2 * N_A
    gb2_safe = np.where(gb2 > 0.0, gb2, 1.0)
    k = np.where(gb2 > 0.0, (ga2 * N_B / gb2_safe - N_A) * ZETA, np.inf)
    k_pos = np.where(k > 0.0, k, 1.0)
    with np.errstate(divide="ignore"):
        p_inv = np.where(k > 0.0, p_max / k_pos, np.inf)
    tau_hat = optimal_tau(np.zeros_like(h2), ZETA * ga2 * h2 / gb2_safe)
    alpha0, beta0 = fixed_power_coefficients(p_max, 0.0, h2, ga2, gb2)
    tau_tilde = optimal_tau(alpha0, beta0)
    case_a = p_inv > 1.0
    k_finite = np.isfinite(k)
    k_safe = np.where(k_finite & (k > 0.0), k, 0.0)
    p_a = np.where(case_a, tau_hat * k_safe, 0.0)
    v_a = capacity(p_a, np.where(case_a, tau_hat, 0.0), 0.0, h2, ga2, gb2)
    tau1 = np.minimum(tau_hat, p_inv)
    p1 = np.minimum(np.where(k_finite, tau1 * k_safe, p_max), p_max)
    tau2 = np.minimum(np.maximum(tau_tilde, p_inv), TAU_LIMIT)
    v1 = capacity(p1, tau1, 0.0, h2, ga2, gb2)
    v2 = capacity(p_max, tau2, 0.0, h2, ga2, gb2)
    value = np.where(feasible, np.where(case_a, v_a, np.maximum(v1, v2)), 0.0)
    return value, feasible


def relative_gain(ref, other):
    with np.errstate(invalid="ignore", divide="ignore"):
        r = (ref - other) / ref
    r = np.where(ref == 0.0, 0.0, r)
    if np.any(r < -DOMINANCE_TOL):
        raise ArithmeticError("reference capacity below the compared one")
    return np.maximum(r, 0.0)


def sweep_rows(seed: int, draws: int, sirs: list[float]) -> list[dict]:
    """One record per SIR point, as the Monte Carlo sweep reports it."""
    block = gain_block(seed, 0, draws)
    feasible = int(np.count_nonzero(block[:, 1] * N_B > block[:, 2] * N_A))

    def mean(arr):
        return math.fsum(arr.tolist()) / draws

    rows = []
    for sir in sirs:
        p_max = GAMMA * 10.0 ** (sir / 10.0)
        per_draw = np.empty((6, draws))  # c_ne, c_nj, c_no_eh, tau, f, f_nj
        for start in range(0, draws, CHUNK):
            h2, ga2, gb2 = block[start:start + CHUNK].T
            tau, c_ne = ne_batch(p_max, h2, ga2, gb2)
            c_nj, _ = nj_batch(p_max, h2, ga2, gb2)
            c_0 = capacity(p_max, 0.0, GAMMA, h2, ga2, gb2)
            per_draw[:, start:start + CHUNK] = (
                c_ne, c_nj, c_0, tau,
                relative_gain(c_ne, c_0), relative_gain(c_ne, c_nj))
        m_ne, m_nj, m_0, m_tau, m_f, m_fnj = (mean(a) for a in per_draw)
        rows.append({
            "sir_db": sir, "c_ne": m_ne, "c_nj": m_nj, "c_no_eh": m_0,
            "f": float(relative_gain(np.float64(m_ne), np.float64(m_0))),
            "f_nj": float(relative_gain(np.float64(m_ne), np.float64(m_nj))),
            "nj_feasible_fraction": float(feasible) / draws,
            "tau_ne_mean": m_tau,
            "f_ratio_mean": m_f,
            "f_nj_ratio_mean": m_fnj,
        })
    return rows


def sweep_csv(seed: int, draws: int, start_db: float, stop_db: float,
              step_db: float) -> str:
    """The CSV text the CLI writes for a Monte Carlo sweep at default powers."""
    fmt = lambda x: format(x, ".12g")
    lines = [
        "# ehjam sir sweep",
        f"# na_dbm={fmt(10.0 * math.log10(N_A))} nb_dbm={fmt(10.0 * math.log10(N_B))}"
        f" gamma_dbm={fmt(10.0 * math.log10(GAMMA))} zeta={fmt(ZETA)}",
        f"# sir_db={fmt(start_db)}..{fmt(stop_db)} step {fmt(step_db)}",
        f"# mode=monte-carlo draws={draws} seed={seed} gains=squared-standard-normal",
        "# aggregation=ratio-of-averaged-capacities"
        " (per-draw ratio means in f_ratio_mean,f_nj_ratio_mean)",
        ",".join(CSV_COLUMNS),
    ]
    for row in sweep_rows(seed, draws, sir_grid(start_db, stop_db, step_db)):
        lines.append(",".join(format(row[c], ".17g") for c in CSV_COLUMNS))
    return "\n".join(lines) + "\n"


def point_results(seed: int, pairs: int, sirs: tuple[float, ...]) -> list[tuple]:
    """(index, solver, sir_db, value, tau, regime, feasible) of the scalar
    solve_ne then solve_nj call for draw i at SIR sirs[i % len(sirs)]."""
    block = gain_block(seed, 0, pairs)
    h2, ga2, gb2 = block[:, 0], block[:, 1], block[:, 2]
    sir = np.array([sirs[i % len(sirs)] for i in range(pairs)])
    p_max = GAMMA * 10.0 ** (sir / 10.0)

    # full-power point
    alpha, beta = fixed_power_coefficients(p_max, GAMMA, h2, ga2, gb2)
    tau_ne = optimal_tau(alpha, beta, endpoint_rule=True)
    v_ne = capacity(p_max, tau_ne, GAMMA, h2, ga2, gb2)
    nj_ok = ga2 * N_B > gb2 * N_A
    k = (ga2 * N_B / gb2 - N_A) * ZETA
    # full-power jamming is a best response unless the threshold tau*K
    # exceeds the transmit power (the jammer would rather stay silent)
    ne_feasible = ~nj_ok | ~(tau_ne * k - p_max > 0.0)

    # neutralizing optimum
    tau_hat = optimal_tau(np.zeros_like(h2), ZETA * ga2 * h2 / gb2,
                          endpoint_rule=True)
    alpha0, beta0 = fixed_power_coefficients(p_max, 0.0, h2, ga2, gb2)
    tau_tilde = optimal_tau(alpha0, beta0, endpoint_rule=True)
    p_inv = np.where(k > 0.0, p_max / np.where(k > 0.0, k, 1.0), np.inf)
    tau1 = np.minimum(tau_hat, p_inv)
    p1 = np.minimum(tau1 * k, p_max)
    tau2 = np.minimum(np.maximum(tau_tilde, p_inv), TAU_LIMIT)
    # the scalar solver nudges tau2 up by ulps until tau2*K reaches P
    short = nj_ok & (tau2 * k < p_max) & (tau2 < TAU_LIMIT)
    while np.any(short):
        tau2[short] = np.nextafter(tau2[short], 1.0)
        short &= (tau2 * k < p_max) & (tau2 < TAU_LIMIT)
    tau2 = np.minimum(tau2, TAU_LIMIT)
    v1 = capacity(np.where(nj_ok, p1, 0.0), np.where(nj_ok, tau1, 0.0), 0.0, h2, ga2, gb2)
    v2 = capacity(p_max, np.where(nj_ok, tau2, 0.0), 0.0, h2, ga2, gb2)
    v_a = capacity(np.where(nj_ok, tau_hat * k, 0.0), tau_hat, 0.0, h2, ga2, gb2)

    out = []
    for i in range(pairs):
        tau = float(tau_ne[i])
        out.append((i, "ne", float(sir[i]), float(v_ne[i]), tau,
                    "NE-tau-zero" if tau == 0.0 else "NE-tau-interior",
                    bool(ne_feasible[i])))
        if not nj_ok[i]:
            out.append((i, "nj", float(sir[i]), 0.0, 0.0, "NJ-infeasible", False))
        elif p_inv[i] > 1.0:
            out.append((i, "nj", float(sir[i]), float(v_a[i]), float(tau_hat[i]),
                        "NJ-case-a", True))
        elif v1[i] >= v2[i]:
            out.append((i, "nj", float(sir[i]), float(v1[i]), float(tau1[i]),
                        "NJ-case-b-candidate1", True))
        else:
            out.append((i, "nj", float(sir[i]), float(v2[i]), float(tau2[i]),
                        "NJ-case-b-candidate2", True))
    return out
