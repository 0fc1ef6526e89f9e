"""Timed runs of one workload.

``run_untraced`` gives the end-to-end metrics, ``run_traced`` the per-layer
metrics. Both check every output they produce, so both report
``attempted`` and ``failed``.

An operation is one ``ehjam sweep`` call through ``ehjam.cli.run``, CSV write
included. In the traced run, after the sweeps, the point_solves calls run in
untraced windows, each one pass over all the pairs; they give the
``solve_*`` latencies. Other per-layer numbers are
totals per sweep, and for the scalar layers per pass over the pairs, so
counts repeat exactly for a seed.
"""

from __future__ import annotations

import io
import resource
import statistics
import subprocess
import sys
from contextlib import redirect_stdout
from pathlib import Path
from time import perf_counter

import numpy as np

import checks
from inputs import Workload, build_inputs
from tracing import Tracer

BENCH_DIR = Path(__file__).resolve().parent
SETUP_PROBES = 8
MIN_WINDOWS = 4  # point_solves windows a traced run makes at least
WARMUP_DRAWS = 1000
WARMUP_PAIRS = 20

E2E_UNITS = {
    "setup_s": "s",
    "sweep_s": "s",
    "draw_points_per_s": "1/s",
    "peak_rss_mb": "MB",
}

# Latencies of the point_solves calls, from PairCalls.latency_metrics.
SCALAR_UNITS = {
    "solve_ne_us_p50": "us",
    "solve_ne_us_p99": "us",
    "solve_nj_us_p50": "us",
    "solve_nj_us_p99": "us",
    "solves_per_s": "1/s",
}

# Per-layer metric -> unit. A name "<layer>.<key>" is the layer's entry in
# Tracer.layer_totals; the names in DERIVED and SCALAR_UNITS are computed.
LAYER_UNITS = {
    "experiments.ne_batch.calls": "count",
    "experiments.ne_batch.busy_s": "s",
    "experiments.ne_batch.self_s": "s",
    "experiments.nj_batch.calls": "count",
    "experiments.nj_batch.busy_s": "s",
    "experiments.nj_batch.self_s": "s",
    "solvers.tau_derivative.calls": "count",
    "solvers.tau_derivative.elements": "count",
    "solvers.tau_derivative.busy_s": "s",
    "solvers.tau_derivative.elements_per_root": "ratio",
    "solvers.find_root.calls": "count",
    "solvers.find_root.iterations": "count",
    "solvers.solve_ne.busy_s": "s",
    "solvers.solve_nj.busy_s": "s",
    "experiments.sample.calls": "count",
    "experiments.sample.draws": "count",
    "experiments.sample.busy_s": "s",
    "experiments.aggregate.busy_s": "s",
    "model.capacity.calls": "count",
    "model.capacity.elements": "count",
    "model.capacity.busy_s": "s",
    "experiments.write_csv.busy_s": "s",
    "experiments.write_csv.bytes": "B",
    "cli.run.self_s": "s",
    "tau_solve_share": "ratio",
    "aggregate_share": "ratio",
    "trace_overhead_frac": "ratio",
    **SCALAR_UNITS,
}
DERIVED = ("solvers.tau_derivative.elements_per_root", "tau_solve_share",
           "aggregate_share", "trace_overhead_frac")
# Layers read from the traced pass over the point_solves pairs (per pass);
# every other layer is read from the traced sweeps (per sweep).
PAIR_LAYERS = ("solvers.find_root", "solvers.solve_ne", "solvers.solve_nj")

# Profile claims of ROADMAP.md that the runs settle.
ROADMAP_CLAIMS = {"tau_solve_share": 0.75, "aggregate_share": 0.15}


class Outcome:
    """Operations attempted and failed in one run, with what went wrong."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems: list[str] = []

    def add(self, ok: bool, what: str = "") -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            if len(self.problems) < 20:
                self.problems.append(what)


# ---------------------------------------------------------------- set-up

def measure_setup(workload: Workload, seed: int, out_dir: Path, n: int) -> list[float]:
    """Seconds from spawning a fresh interpreter to package imported and
    inputs built, n times in a row."""
    cmd = [sys.executable, str(BENCH_DIR / "setup_probe.py"), str(workload.draws),
           repr(workload.sir_step_db), str(workload.pairs), str(seed),
           str(out_dir / "setup.csv")]
    times = []
    for _ in range(n):
        start = perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True) as proc:
            line = proc.stdout.readline()
            times.append(perf_counter() - start)
            proc.stdout.read()
            rc = proc.wait(timeout=120)
        if line.strip() != "ready" or rc != 0:
            raise RuntimeError(f"setup probe exited with {rc}")
    return times


# ---------------------------------------------------------------- sweeps

def _another(times, deadline) -> bool:
    """Start another operation if none ran yet or one more of median length
    still ends by the deadline, so a run measures about `seconds`."""
    return not times or perf_counter() + statistics.median(times) <= deadline


def _sweep(argv, csv_path: Path):
    """One sweep: (wall time, (rc, stdout, csv bytes) or an error string)."""
    import ehjam.cli as cli

    buf = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(buf):
            rc = cli.run(argv)
        elapsed = perf_counter() - start
        return elapsed, (rc, buf.getvalue(), csv_path.read_bytes())
    except Exception as exc:  # a failed operation is counted, not fatal
        return perf_counter() - start, f"{type(exc).__name__}: {exc}"


def _sweep_phase(argv, csv_path: Path, seconds: float):
    """Sweeps back to back for about `seconds` (at least one). Returns (sweep
    wall times, [(rc, stdout, csv bytes) or an error string])."""
    times, outputs = [], []
    deadline = perf_counter() + seconds
    while _another(times, deadline):
        elapsed, out = _sweep(argv, csv_path)
        times.append(elapsed)
        outputs.append(out)
    return times, outputs


def _first_csv(outputs):
    return next((o[2] for o in outputs if not isinstance(o, str)), None)


def _sweep_reference_problems(workload, seed, first):
    """(problems, reference source) of the first CSV against the reference."""
    if first is None:
        return ["no sweep completed"], None
    ref, source = checks.sweep_reference(workload, seed)
    return checks.compare_csv(first.decode("ascii", "replace"), ref), source


def _check_sweeps(workload, csv_path, outputs, outcome, first, problems):
    """Count each sweep: exit 0, the expected stdout line, CSV bytes equal to
    the run's first sweep, and that first CSV free of reference problems."""
    expected_stdout = f"wrote {csv_path} ({workload.sir_points} SIR points)\n"
    for out in outputs:
        if isinstance(out, str):
            outcome.add(False, out)
            continue
        rc, text, data = out
        ok = rc == 0 and text == expected_stdout and data == first and not problems
        outcome.add(ok, f"rc={rc} stdout={text!r} same_bytes={data == first} "
                        f"reference={problems[:3]}")


# ---------------------------------------------------------------- scalar pairs

class PairCalls:
    """solve_ne then solve_nj on a list of (gains, params, sir) pairs.

    Wall time and latencies are kept per call() group (a window over all the
    pairs, in the traced run); result summaries are kept per pair index so
    that every call can be checked after the timed loop.
    """

    def __init__(self, pairs):
        self.pairs = pairs
        self.groups: list[tuple[float, np.ndarray, np.ndarray]] = []  # (wall, ne, nj)
        self.seen: list[tuple[int, object]] = []  # (index, (ne, nj) summaries or None)
        self.busy = 0.0

    def call(self, start: int, stop: int) -> float:
        """Solve pairs start..stop-1 once; returns the wall time."""
        import ehjam.solvers as solvers

        lat_ne = np.full(stop - start, np.nan)
        lat_nj = np.full(stop - start, np.nan)
        begin = perf_counter()
        for k, i in enumerate(range(start, stop)):
            gains, params, _ = self.pairs[i]
            try:
                t0 = perf_counter()
                ne = solvers.solve_ne(gains, params)
                t1 = perf_counter()
                nj = solvers.solve_nj(gains, params)
                t2 = perf_counter()
            except Exception:  # a failed call is counted, not fatal
                self.seen.append((i, None))
                continue
            lat_ne[k], lat_nj[k] = t1 - t0, t2 - t1
            self.seen.append((i, (_summary(ne), _summary(nj))))
        elapsed = perf_counter() - begin
        self.busy += elapsed
        self.groups.append((elapsed, lat_ne, lat_nj))
        return elapsed

    def window(self) -> float:
        """One pass over all the pairs; returns its wall time."""
        return self.call(0, len(self.pairs))

    def window_stats(self) -> list[dict]:
        """Per group: median and p99 latency of each solver in microseconds,
        and solver calls completed per second of the group's wall time."""
        stats = []
        for wall, *lats in self.groups:
            row = {"solves_per_s": sum(np.count_nonzero(~np.isnan(x)) for x in lats) / wall}
            for solver, lat in zip(("ne", "nj"), lats):
                us = lat[~np.isnan(lat)] * 1e6
                row[f"solve_{solver}_us_p50"] = float(np.median(us))
                row[f"solve_{solver}_us_p99"] = float(np.percentile(us, 99))
            stats.append(row)
        return stats

    def latency_metrics(self) -> dict:
        """Call latency of each solver in microseconds, p50 and p99 over the
        pairs of each pair's fastest call in the run, and the solver calls
        per second those fastest calls add up to.

        Other tenants of the host slow Python-bound calls by up to 2x, in
        bursts from under a second to over a minute, and never speed them
        up; they set the tail of the raw call times. Each pair is solved
        once per window, so a pair's fastest call is its cost on the
        quietest host the windows saw, and a change that slows the solvers
        on some input slows every call on it.
        """
        out = {}
        count, total = 0, 0.0
        for k, solver in enumerate(("ne", "nj"), start=1):
            best = np.nanmin(np.stack([g[k] for g in self.groups]), axis=0)
            best = best[~np.isnan(best)]
            out[f"solve_{solver}_us_p50"] = float(np.median(best)) * 1e6
            out[f"solve_{solver}_us_p99"] = float(np.percentile(best, 99)) * 1e6
            count += len(best)
            total += float(np.sum(best))
        out["solves_per_s"] = count / total
        return out

    def check(self, seed: int, outcome: Outcome, first=None):
        """Count each call: within tolerance of the reference and exactly
        equal to the first call on the same pair (in `first`, if given).
        Returns the first result seen per pair index, and the reference used."""
        ref, source = checks.point_reference(seed, len(self.pairs))
        first = {} if first is None else first
        for i, got in self.seen:
            base = first.setdefault(i, got)
            for k in range(2):
                mine = None if got is None else got[k]
                row = ref[2 * i + k]
                outcome.add(mine is not None and base is not None
                            and mine == base[k] and checks.point_ok(mine, row),
                            f"pair {i} {row[1]}: {mine} vs reference {row[3:]}")
        return first, source


def _summary(res):
    return (float(res.value), float(res.profile.legit.tau), res.regime.value,
            bool(res.feasible))


# ---------------------------------------------------------------- runs

def run_untraced(workload: Workload, seed: int, seconds: float, out_dir: Path,
                 setup_probes: int = SETUP_PROBES):
    """End-to-end metrics of one run, plus its outcome and details."""
    # set-up is timed half before and half after the sweeps, so that its
    # median does not rest on one moment of a noisy host
    setup = measure_setup(workload, seed, out_dir, setup_probes // 2)
    csv_path = out_dir / "sweep.csv"
    argv, pairs = build_inputs(workload, seed, csv_path)
    outcome = Outcome()
    _warm_up(seed, out_dir, pairs)
    times, outputs = _sweep_phase(argv, csv_path, seconds)
    peak_rss = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    setup += measure_setup(workload, seed, out_dir, setup_probes - setup_probes // 2)

    first = _first_csv(outputs)
    problems, source = _sweep_reference_problems(workload, seed, first)
    _check_sweeps(workload, csv_path, outputs, outcome, first, problems)
    sweep_s = statistics.median(times)
    values = {
        "setup_s": statistics.median(setup),
        "sweep_s": sweep_s,
        "draw_points_per_s": workload.draws * workload.sir_points / sweep_s,
        "peak_rss_mb": peak_rss,
    }
    details = {"setup_s_samples": setup, "sweep_s_samples": times,
               "reference": source, "reference_problems": problems[:20]}
    return values, outcome, details


def _windows(calls: PairCalls, seconds: float) -> None:
    """point_solves windows back to back for about `seconds` (at least
    MIN_WINDOWS)."""
    deadline = perf_counter() + seconds
    while (len(calls.groups) < MIN_WINDOWS
           or perf_counter() + calls.busy / len(calls.groups) <= deadline):
        calls.window()


def _warm_up(seed, out_dir, pairs):
    """Run the sweep and scalar code paths once on small inputs."""
    warm = Workload("warmup", WARMUP_DRAWS, 10.0)
    _sweep_phase(warm.sweep_argv(seed, out_dir / "warmup.csv"), out_dir / "warmup.csv", 0)
    PairCalls(pairs).call(0, min(WARMUP_PAIRS, len(pairs)))


def run_traced(workload: Workload, seed: int, seconds: float, out_dir: Path):
    """Per-layer metrics: untraced and traced sweeps in turn for two thirds
    of the time, so that both see the same host, point_solves windows
    untraced for the last third, then one traced pass of the point_solves
    calls."""
    csv_path = out_dir / "sweep.csv"
    argv, pairs = build_inputs(workload, seed, csv_path)
    outcome = Outcome()
    details = {}
    tracer, pair_tracer = Tracer(), Tracer()
    plain_calls, traced_calls = PairCalls(pairs), PairCalls(pairs)
    _warm_up(seed, out_dir, pairs)
    plain, plain_out, traced, traced_out = [], [], [], []
    deadline = perf_counter() + 2 * seconds / 3
    while not traced or (perf_counter() + statistics.median(plain)
                         + statistics.median(traced) <= deadline):
        elapsed, out = _sweep(argv, csv_path)
        plain.append(elapsed)
        plain_out.append(out)
        tracer.run_id = len(traced)
        with tracer:
            elapsed, out = _sweep(argv, csv_path)
        traced.append(elapsed)
        traced_out.append(out)
    _windows(plain_calls, seconds / 3)
    with pair_tracer:
        traced_calls.call(0, len(pairs))

    first = _first_csv(plain_out)
    problems, details["reference"] = _sweep_reference_problems(workload, seed, first)
    _check_sweeps(workload, csv_path, plain_out, outcome, first, problems)
    _check_sweeps(workload, csv_path, traced_out, outcome, first, problems)
    first_pairs, details["pair_reference"] = plain_calls.check(seed, outcome)
    failed_before = outcome.failed
    traced_calls.check(seed, outcome, first_pairs)
    details["reference_problems"] = problems[:20]
    details["traced_outputs_identical"] = outcome.failed == failed_before and all(
        not isinstance(o, str) and o[2] == first for o in traced_out)

    totals = tracer.layer_totals()
    pair_totals = pair_tracer.layer_totals()
    n_ops, wall = len(traced), sum(traced)
    values = plain_calls.latency_metrics()
    for name in LAYER_UNITS:
        if name not in DERIVED and name not in SCALAR_UNITS:
            layer, key = name.rsplit(".", 1)
            if layer in PAIR_LAYERS:
                values[name] = pair_totals[layer][key]
            else:
                values[name] = totals[layer][key] / n_ops
    roots = totals["solvers.optimize_tau"]["roots"]
    values["solvers.tau_derivative.elements_per_root"] = (
        totals["solvers.tau_derivative"]["elements"] / roots if roots else 0.0)
    values["tau_solve_share"] = totals["solvers.optimize_tau"]["busy_s"] / wall
    values["aggregate_share"] = totals["experiments.aggregate"]["busy_s"] / wall
    values["trace_overhead_frac"] = statistics.median(traced) / statistics.median(plain) - 1.0
    tracer.save(out_dir / "spans.json")
    pair_tracer.save(out_dir / "spans-point_solves.json")
    details.update(
        untraced_op_s=plain, traced_op_s=traced,
        scalar_windows=plain_calls.window_stats(),
        spans=len(tracer.spans) + len(pair_tracer.spans),
        absent_layers=tracer.absent, missing_attributes=tracer.missing,
        roadmap_claims={k: {"measured": values[k], "claimed": ROADMAP_CLAIMS[k]}
                        for k in ("tau_solve_share", "aggregate_share")})
    return values, outcome, details
