"""Smoke test of the benchmark harness, every workload at its smallest size.

    python3 -m pytest perfbench -q
"""

import json
import os
import shutil
import subprocess
import sys

import pytest

sys.path.insert(0, os.path.dirname(os.path.abspath(__file__)))

import run  # noqa: E402
from kernel_sweep import DIMS, sweep_metric_names  # noqa: E402
from tracer import LAYER_METRICS, Tracer  # noqa: E402
from workloads import WORKLOADS, fingerprint  # noqa: E402

EXTRA = {
    "monte-carlo": {
        "shot-coverage.iter_s": "s",
        "shot-coverage.runs_per_s": "1/s",
        "randomized-slice.iter_s": "s",
        "randomized-slice.runs_per_s": "1/s",
        "randomized-slice.certified_estimate_s.salcu": "s",
        "randomized-slice.certified_estimate_s.qdrift": "s",
        "randomized-slice.certified_estimate_s.nonmarkov": "s",
    },
    "analytic-exact": {"quickstart-analytic.iter_s": "s", "exact-reference.iter_s": "s"},
}
# Layers each workload must reach (a count that stays 0 means a span went missing).
REACHED = {
    "monte-carlo": ("estimator.calls", "kernels.born_probs.calls", "circuits.ops_executed",
                    "collisions.programs_built", "collisions.ops_emitted", "pauli.embed_calls",
                    "kernels.monomial_conj.calls"),
    "analytic-exact": ("circuits.ops_executed", "states.gate_calls", "kernels.two_sparse_conj.calls",
                       "oracles.unitary_exact_calls", "collisions.suggest_nu_collisions", "kernels.kron.calls"),
}


def _layer_units(dims):
    units = dict(LAYER_METRICS)
    units.update({name: "us" for name in sweep_metric_names(dims)})
    units["trace.overhead_s"] = "s"
    return units


def _printed(out):
    """{name: (value, unit)} from the `metric <name> <value> <unit>` lines."""
    found = {}
    for line in out.splitlines():
        if line.startswith("metric "):
            _, name, value, unit = line.split()
            found[name] = (float(value), unit)
    return found


def _fresh(name, seed=3):
    cs, _ = run.import_package()
    wl = WORKLOADS[name](cs, seed, "smoke")
    wl.build()
    wl.reference()
    return wl


def test_benchmark_json_matches_harness():
    with open(os.path.join(run.ROOT, "BENCHMARK.json")) as fh:
        bench = json.load(fh)
    assert [w["name"] for w in bench["workloads"]] == list(run.WORKLOAD_NAMES) == list(WORKLOADS)
    assert [(m["name"], m["unit"]) for m in bench["end_to_end"]] == list(run.END_TO_END)
    assert {m["name"]: m["unit"] for m in bench["per_layer"]} == _layer_units(DIMS)


@pytest.mark.parametrize("trace", [0, 1])
@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_smoke_run_prints_every_metric(workload, trace, capsys):
    run.main(["--workload", workload, "--seed", "5", "--seconds", "0.3", "--trace", str(trace), "--scale", "smoke"])
    out = capsys.readouterr().out
    result = json.loads(out.splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    printed = _printed(out)
    assert printed["failed_frac"] == (0.0, "ratio")
    expected = dict(run.END_TO_END)
    expected.update(EXTRA.get(workload, {}))
    gated = _layer_units(DIMS[:2]) if trace else dict(run.END_TO_END)
    expected.update(gated)
    for name, unit in expected.items():
        assert printed[name][1] == unit, name
    assert set(result["metrics"]) == set(gated)
    for name, entry in result["metrics"].items():
        assert entry == {"value": printed[name][0], "unit": gated[name]}
    assert any(line.startswith("record ") for line in out.splitlines())


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_iteration_is_bit_identical(workload):
    wl = _fresh(workload)
    plain = run.run_iteration(wl, 1)
    traced = run.run_iteration(wl, 1, Tracer())
    assert plain.error is None and traced.error is None
    assert [c.name for c in plain.calls] == [c.name for c in traced.calls]
    assert [fingerprint(c.value) for c in plain.calls] == [fingerprint(c.value) for c in traced.calls]


@pytest.mark.parametrize("workload", run.WORKLOAD_NAMES)
def test_traced_counts_repeat_exactly(workload):
    counts = []
    for _ in range(2):
        wl = _fresh(workload)
        run.run_iteration(wl, 0)
        tracer = Tracer()
        it = run.run_iteration(wl, 1, tracer)
        assert it.error is None and not tracer.missing
        metrics = tracer.metrics()
        counts.append({name: metrics[name] for name, unit in LAYER_METRICS if unit == "count"})
    assert counts[0] == counts[1]
    for name in REACHED[workload]:
        assert counts[0][name] > 0, name


def test_tracer_restores_every_attribute():
    cs, _ = run.import_package()
    before = {name: getattr(cs.states, name) for name in ("apply_pauli_rotation", "partial_trace")}
    validate = cs.CircuitProgram.validate
    with Tracer():
        assert cs.states.apply_pauli_rotation is not before["apply_pauli_rotation"]
    assert {name: getattr(cs.states, name) for name in before} == before
    assert cs.CircuitProgram.validate is validate


def test_one_command_runs_every_workload():
    proc = subprocess.run(
        [sys.executable, os.path.join(run.HERE, "run.py"), "--workload", "all", "--seed", "2", "--seconds", "0.2",
         "--scale", "smoke"],
        cwd=run.ROOT, capture_output=True, text=True, timeout=600,
    )
    assert proc.returncode == 0, proc.stderr
    summary = json.loads(proc.stdout.strip().splitlines()[-1])
    assert summary["correct"] and summary["failed"] == 0
    assert set(summary["metrics"]) == {f"{w}/{m}" for w in run.WORKLOAD_NAMES for m, _ in run.END_TO_END}
    for workload in run.WORKLOAD_NAMES:
        assert f"# perfbench {workload} " in proc.stdout


def test_fails_without_sources(tmp_path):
    shutil.copy(os.path.join(run.ROOT, "BENCHMARK.json"), tmp_path)
    shutil.copytree(run.HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "monte-carlo", "--seed", "1", "--seconds", "1",
         "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
