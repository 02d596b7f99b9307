"""Run one fpkit benchmark workload and print its metrics.

    python3 bench/run.py --workload corpus-small --seed 1 --seconds 30 --trace 0

Run from the root of a checkout; fpkit is imported from ``src/``.  The
client is one closed loop on one thread: each request starts when the
previous one has returned.  Inputs are generated from the seed and
written before the clock starts.  The workload's fixed batch is repeated
a number of times fixed by ``--seconds`` and the batch's nominal time, so
request counts repeat exactly.  Outputs are checked after each batch.

With ``--trace 0`` the result carries the end-to-end metrics declared in
BENCHMARK.json; with ``--trace 1`` it runs the batch once untraced and
once traced and carries the per-layer metrics.  The last line of stdout
is the result object; the line before it records the run (seed, counts,
tail percentile, Python version, core count, commit).
"""

from __future__ import annotations

import argparse
import gc
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import tempfile
import time
import traceback
from pathlib import Path

import calibration

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SRC = ROOT / "src"

# Reserved for re-checking a claimed gain; never used while tuning a change.
HELD_OUT_SEED = 914_2026

# Fresh interpreters started per run, spread over the run so that their
# median reflects the machine's state across the run and not at one moment.
SETUP_RUNS = 15
SETUP_CODE = (
    "import sys; sys.path.insert(0, 'src'); "
    "import fpkit.cli; fpkit.cli.build_parser()"
)
MIN_TRACE_COVERAGE = 0.9

# Kernel timings per batch (see calibration.py), and before each set of
# fresh interpreters.
CALIBRATION_SAMPLES = 64


def setup_times(count: int) -> list[float]:
    """Times for fresh interpreters to import the CLI and build its parser."""
    times = []
    for _ in range(count):
        start = time.perf_counter()
        subprocess.run(
            [sys.executable, "-c", SETUP_CODE], cwd=ROOT, check=True,
            stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
        )
        times.append(time.perf_counter() - start)
    return times


class Crash:
    def __init__(self, text: str):
        self.text = text


def judge(request, outcome) -> str | None:
    if isinstance(outcome, Crash):
        return f"uncaught exception: {outcome.text.strip().splitlines()[-1]}"
    try:
        return request.check(outcome)
    except Exception as exc:  # a malformed output must count, not abort the run
        return f"output not understood: {exc!r}"


def run_batch(workload, latencies: list[float], failures: list[str], kernel=None):
    """Time one pass over the batch, then check every output.

    With a calibration ``kernel``, it and any kernel of a request's own are
    also timed at about CALIBRATION_SAMPLES points spread over the batch,
    outside the wall time; returns (wall, outcomes, kernel -> times).
    """
    requests = workload.requests
    for request in requests:
        for path in request.outputs:
            if os.path.exists(path):
                os.remove(path)
    kernels = [] if kernel is None else list(dict.fromkeys(
        [kernel] + [r.kernel for r in requests if r.kernel is not None]))
    kernel_times = {k: [] for k in kernels}
    stride = max(1, len(requests) // CALIBRATION_SAMPLES)
    per_gap = max(1, CALIBRATION_SAMPLES // len(requests))

    def calibrate():
        for k in kernels:
            kernel_times[k] += [calibration.kernel_time(k) for _ in range(per_gap)]

    outcomes = []
    paused = 0.0
    start = time.perf_counter()
    for index, request in enumerate(requests):
        if kernels and index % stride == 0:
            begin = time.perf_counter()
            calibrate()
            paused += time.perf_counter() - begin
        begin = time.perf_counter()
        try:
            outcome = request.run()
        except Exception:
            outcome = Crash(traceback.format_exc())
        latencies.append(time.perf_counter() - begin)
        outcomes.append(outcome)
    wall = time.perf_counter() - start - paused
    calibrate()
    for request, outcome in zip(requests, outcomes):
        reason = judge(request, outcome)
        if reason is not None:
            failures.append(f"{request.kind}: {reason}")
    return wall, outcomes, kernel_times


def tail_latency(latencies: list[float]) -> tuple[float, float]:
    """(seconds, percentile) at the highest nearest-rank percentile with at
    least ten samples above it; the maximum when there are ten or fewer."""
    ordered = sorted(latencies)
    rank = len(ordered) - 10 if len(ordered) > 10 else len(ordered)
    return ordered[rank - 1], 100.0 * rank / len(ordered)


def batch_tail(batches: list[list[float]]) -> tuple[float, float]:
    """(seconds, percentile): the median over batches of each batch's tail.

    Pooled over a whole run, the tenth-slowest request is whichever one a
    pause of the shared machine hit; within each batch it is one of the
    workload's slow requests, and the median over batches drops the batches
    that a pause hit."""
    tails = [tail_latency(batch) for batch in batches]
    return statistics.median(t for t, _ in tails), tails[0][1]


def sample_setup(count: int, raw: list[float], scaled: list[float]) -> None:
    kernel = calibration.parser_and_json  # start-up is import and parser work
    factor = calibration.speed_factor(
        kernel, [calibration.kernel_time(kernel) for _ in range(CALIBRATION_SAMPLES)])
    for seconds in setup_times(count):
        raw.append(seconds)
        scaled.append(seconds * factor)


def end_to_end(workload, kernel, batches: int, info: dict):
    """Timings scaled by speed factors measured in each batch (see
    calibration.py); the unscaled ones go to ``info``."""
    raw, scaled = {"batches": [], "walls": []}, {"batches": [], "walls": []}
    failures, factors, raw_setups, setups = [], [], [], []
    per_slot = -(-SETUP_RUNS // (batches + 1))
    sample_setup(per_slot, raw_setups, setups)
    for _ in range(batches):
        latencies = []
        wall, _, kernel_times = run_batch(workload, latencies, failures, kernel)
        factor_of = {k: calibration.speed_factor(k, ts) for k, ts in kernel_times.items()}
        timed = [
            seconds * factor_of[request.kernel or kernel]
            for seconds, request in zip(latencies, workload.requests)
        ]
        factor = sum(timed) / sum(latencies)  # the batch's time-weighted factor
        factors.append(factor)
        raw["walls"].append(wall)
        raw["batches"].append(latencies)
        scaled["walls"].append(wall * factor)
        scaled["batches"].append(timed)
        sample_setup(per_slot, raw_setups, setups)

    def timings(series):
        tail, percentile = batch_tail(series["batches"])
        latencies = [seconds for batch in series["batches"] for seconds in batch]
        return percentile, {
            "wall_s": statistics.median(series["walls"]),
            "req_p50_ms": statistics.median(latencies) * 1000,
            "req_tail_ms": tail * 1000,
        }

    percentile, metrics = timings(scaled)
    info.update(
        latency_samples=len(workload.requests) * batches,
        tail_samples_per_batch=len(workload.requests),
        tail_percentile=percentile,
        speed_factors=factors,
        unscaled=dict(timings(raw)[1], setup_s=statistics.median(raw_setups)),
    )
    metrics["setup_s"] = statistics.median(setups)
    metrics["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
    return metrics, len(workload.requests) * batches, failures, []


def per_layer(workload, info: dict):
    import spans

    latencies, failures, problems = [], [], []
    plain_wall, _, _ = run_batch(workload, latencies, failures)
    tracer = spans.Tracer()
    tracer.install()
    try:
        traced_wall, outcomes, _ = run_batch(workload, latencies, failures)
    finally:
        tracer.uninstall()
    m = spans.layer_metrics(tracer, traced_wall)

    def get(name):
        return m.get(name, 0)

    m["search.classify_s"] = get("search.experiment_s") - get("search.enumerate_s")
    m["search.leaves_per_s"] = (
        get("search.leaves") / get("search.enumerate_s") if get("search.enumerate_s") else 0)
    m["search.survivor_share"] = (
        get("search.survivors") / get("search.leaves") if get("search.leaves") else 0)
    m["hattori.pass_share"] = (
        get("hattori.passes") / get("hattori.verdict_calls")
        if get("hattori.verdict_calls") else 0)
    m["cli.calls"] = get("cli.main_calls")
    m["cli.output_bytes"] = sum(
        len(o.stdout) for o in outcomes if hasattr(o, "stdout"))
    m["localization.denominator_digits"] = workload.digits
    m["trace.overhead_share"] = traced_wall / plain_wall - 1
    info.update(plain_wall_s=plain_wall, traced_wall_s=traced_wall)
    if m["trace.coverage"] < MIN_TRACE_COVERAGE:
        problems.append(
            f"top-level spans cover {m['trace.coverage']:.3f} of the traced wall time")
    planned = workload.counts()
    info["traced_counts"] = {k: get(k) for k in ("core.bytes_in", "search.leaves")}
    info["traced_counts_match"] = all(
        info["traced_counts"][k] == planned[k] for k in info["traced_counts"])
    return m, len(latencies), failures, problems


def result(values, specs, attempted, failures, problems) -> dict:
    """The result object: every declared metric, a layer that did no work
    reading 0."""
    return {
        "correct": not failures and not problems,
        "attempted": attempted,
        "failed": len(failures),
        "metrics": {
            spec["name"]: {"value": values.get(spec["name"], 0), "unit": spec["unit"]}
            for spec in specs
        },
    }


def commit() -> str | None:
    if not (ROOT / ".git").exists():  # a plain checkout: do not search upwards
        return None
    try:
        result = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True)
    except OSError:
        return None
    return result.stdout.strip() if result.returncode == 0 else None


def source_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "fpkit").rglob("*.py")):
        digest.update(path.relative_to(SRC).as_posix().encode() + b"\0")
        digest.update(path.read_bytes())
    return digest.hexdigest()


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "fpkit" / "__init__.py").is_file():
        print(f"error: no fpkit sources under {SRC}", file=sys.stderr)
        return 2
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    sys.path.insert(0, str(SRC))
    import workloads

    if args.workload not in workloads.WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}")
    _, nominal, kernel = workloads.WORKLOADS[args.workload]
    batches = max(1, round(args.seconds / nominal))
    info = {
        "workload": args.workload,
        "seed": args.seed,
        "held_out_seed": HELD_OUT_SEED,
        "trace": args.trace,
        "batches": 2 if args.trace else batches,  # traced: one plain, one traced
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": commit(),
        "src_sha256": source_digest(),
    }
    with tempfile.TemporaryDirectory(prefix=".work-", dir=BENCH) as workdir:
        workload = workloads.build(args.workload, args.seed, workdir)
        info["counts"] = workload.counts()
        # the benchmark's own objects are not the program's heap: keep them
        # out of the collector's full passes
        gc.collect()
        gc.freeze()
        if args.trace:
            values, attempted, failures, problems = per_layer(workload, info)
            wanted = declared["per_layer"]
        else:
            values, attempted, failures, problems = end_to_end(
                workload, kernel, batches, info)
            wanted = declared["end_to_end"]
    outcome = result(values, wanted, attempted, failures, problems)
    info.update(
        requests=attempted,
        fail_share=len(failures) / attempted,
        failures=failures[:5],
        problems=problems,
    )
    for name, metric in outcome["metrics"].items():
        print(f"{name} = {metric['value']} {metric['unit']}")
    print(f"fail_share = {info['fail_share']} share")
    print(json.dumps({"run": info}))
    print(json.dumps(outcome))
    return 0


if __name__ == "__main__":
    sys.exit(main())
