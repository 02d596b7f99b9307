"""Smoke test of the benchmark itself, at tiny sizes (about 20 s).

    python3 bench/smoke.py

Checks that BENCHMARK.json is well formed, that every declared metric is
computed and nothing undeclared is emitted, that tiny versions of the three
workloads pass their oracles, that traced counts match the input-side
counts, that the tracer restores what it wrapped and charges a generator
only for its resumes, and that every oracle rejects a corrupted output.
"""

from __future__ import annotations

import json
import os
import re
import sys
import tempfile
import time

import run

sys.path.insert(0, str(run.SRC))

import fpkit.laurent  # noqa: E402

import oracles  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

TINY = {
    "localize-large": {"sizes": (4, 6), "hrr_dims": (3, 5)},
    "sweep": {"specs": ((1, 2), (2, 2), (2, 3))},
    "corpus-small": {"mix": {k: max(2, v // 40) for k, v in workloads.CORPUS_MIX.items()}},
}

NAME = re.compile(r"[A-Za-z0-9][A-Za-z0-9_.-]{0,63}")
UNIT = re.compile(r"[A-Za-z0-9_/%.-]{1,16}")


def check_declaration(declared):
    assert set(declared) == {
        "command", "paths", "run_seconds", "workloads", "end_to_end", "per_layer"}
    names = [w["name"] for w in declared["workloads"]]
    assert sorted(names) == sorted(workloads.WORKLOADS), names
    for group in ("workloads", "end_to_end", "per_layer"):
        seen = [m["name"] for m in declared[group]]
        assert len(seen) == len(set(seen)), f"duplicate name in {group}"
        assert all(NAME.fullmatch(name) for name in seen), seen
    for metric in declared["end_to_end"] + declared["per_layer"]:
        assert UNIT.fullmatch(metric["unit"]) and metric["better"] in ("lower", "higher")
    for metric in declared["end_to_end"]:
        assert 0 < metric["bound"] <= 0.25
    setup = {m["name"]: m for m in declared["end_to_end"]}["setup_s"]
    assert setup["unit"] == "s" and setup["better"] == "lower"
    assert setup["bound"] == max(m["bound"] for m in declared["end_to_end"])


def corruptions(request, outcome):
    """Deliberately wrong versions of a correct outcome, as thunks that
    may also damage the files the request wrote."""
    kind = request.kind
    if isinstance(outcome, workloads.CliOutcome):
        yield lambda: outcome._replace(code=outcome.code + 3)
        yield lambda: outcome._replace(stderr="Traceback (most recent call last):\n")
        if kind == "hattori-perturbed":
            yield lambda: outcome._replace(
                stdout=outcome.stdout.replace('"passes": false', '"passes": true'))
        elif kind == "search":
            yield lambda: outcome._replace(stdout=re.sub(
                r'"survivor_count": (\d+)',
                lambda m: f'"survivor_count": {int(m.group(1)) + 1}', outcome.stdout))
        elif outcome.stdout:
            digits = [i for i, c in enumerate(outcome.stdout) if c.isdigit()]
            i = digits[-1]
            flipped = str((int(outcome.stdout[i]) + 1) % 10)
            yield lambda: outcome._replace(
                stdout=outcome.stdout[:i] + flipped + outcome.stdout[i + 1:])
        for path in request.outputs:
            def damage(path=path):
                text = workloads.read(path)
                if kind == "search":
                    docs = oracles.parse_stream(text)
                    if not docs:
                        return outcome._replace(code=outcome.code + 3)
                    text = "".join(oracles.canonical_text(d) for d in docs[:-1])
                else:
                    text = text.replace("P1", "P0")
                with open(path, "w", encoding="utf-8") as handle:
                    handle.write(text)
                return outcome
            yield damage
            yield lambda path=path: (os.remove(path), outcome)[1]
    elif kind == "chern_monomial":
        yield lambda: outcome + 1
    elif kind == "chi_y_hrr":
        yield lambda: (outcome[0] * fpkit.laurent.LaurentPoly({1: 1}), outcome[1])
    elif kind == "readback":
        yield lambda: outcome[:-1]
    else:
        raise AssertionError(f"no corruption for {kind}")


def check_oracles_reject(workload):
    latencies, failures = [], []
    _, outcomes, _ = run.run_batch(workload, latencies, failures)
    assert not failures, failures[:3]
    rejected = 0
    for request, outcome in zip(workload.requests, outcomes):
        for corrupt in corruptions(request, outcome):
            reason = run.judge(request, corrupt())
            assert reason is not None, f"{request.kind}: a corrupted output passed"
            rejected += 1
            # restore the written files for the next corruption
            run.run_batch(workloads.Workload([request]), [], [])
    return rejected


def check_tracer():
    import fpkit.cli
    import fpkit.localization
    import fpkit.search

    originals = {
        (module.__name__, name): getattr(module, name)
        for module, name in (
            (fpkit.cli, "main"), (fpkit.cli, "residue_sum"),
            (fpkit.search, "residue_sum"), (fpkit.localization, "residue_sum"),
            (fpkit.search, "enumerate_survivors"))
    }
    init = fpkit.laurent.LaurentPoly.__init__
    tracer = spans.Tracer()
    tracer.install()
    try:
        assert fpkit.cli.residue_sum is fpkit.search.residue_sum
        assert fpkit.cli.residue_sum is not originals[("fpkit.cli", "residue_sum")]

        def items():
            for _ in range(3):
                time.sleep(0.01)
                yield 1

        consumer_sleep = 0.05
        for _ in tracer.wrap(items, "toy.gen")():
            time.sleep(consumer_sleep)
    finally:
        tracer.uninstall()
    for (module, name), original in originals.items():
        assert getattr(sys.modules[module], name) is original, f"{module}.{name}"
    assert fpkit.laurent.LaurentPoly.__init__ is init
    generator = spans.layer_metrics(tracer, 1.0)["toy.gen_s"]
    assert 0.03 <= generator < 0.03 + consumer_sleep, generator

    synthetic = spans.Tracer()
    synthetic.spans = [
        (1, None, "cli.main", 0.0, 10.0),
        (2, 1, "core.loads", 1.0, 4.0),
        (3, 2, "core.loads", 2.0, 3.0),
        (4, 1, "localization.residue_sum", 5.0, 6.0),
    ]
    m = spans.layer_metrics(synthetic, 20.0)
    assert m["cli.self_s"] == 6.0 and m["core.loads_s"] == 3.0, m
    assert m["trace.coverage"] == 0.5, m


def main() -> int:
    declared = json.loads((run.ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    check_declaration(declared)
    check_tracer()
    computed_layers = set()
    with tempfile.TemporaryDirectory(prefix=".work-", dir=run.BENCH) as workdir:
        for name, sizes in TINY.items():
            workload = workloads.build(name, 7, os.path.join(workdir), **sizes)
            assert workload.counts() == workloads.build(
                name, 7, workdir, **sizes).counts(), f"{name}: counts not repeatable"

            info = {}
            kernel = workloads.WORKLOADS[name][2]
            values, attempted, failures, problems = run.end_to_end(
                workload, kernel, 2, info)
            assert set(values) == {m["name"] for m in declared["end_to_end"]}, values
            outcome = run.result(values, declared["end_to_end"], attempted, failures,
                                 problems)
            assert outcome["correct"], (name, failures[:3], problems)
            assert all(isinstance(m["value"], (int, float)) and m["value"] > 0
                       for m in outcome["metrics"].values()), outcome

            values, attempted, failures, problems = run.per_layer(workload, info)
            assert not failures and not problems, (name, failures[:3], problems)
            assert info["traced_counts_match"], (name, info["traced_counts"])
            computed_layers |= set(values)
            outcome = run.result(values, declared["per_layer"], attempted, failures,
                                 problems)
            assert set(outcome["metrics"]) == {m["name"] for m in declared["per_layer"]}

            rejected = check_oracles_reject(workload)
            print(f"{name}: {len(workload.requests)} requests correct, "
                  f"{rejected} corrupted outputs rejected")
    missing = {m["name"] for m in declared["per_layer"]} - computed_layers
    assert not missing, f"declared but never computed: {sorted(missing)}"
    print("smoke test passed")
    return 0


if __name__ == "__main__":
    sys.exit(main())
