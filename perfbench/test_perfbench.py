"""The benchmark's own test, at tiny size: python3 -m pytest perfbench

Checks that every metric BENCHMARK.json names is printed with its unit, that
per-layer self times fit inside the traced total, that the tracer leaves no
wrapper behind, and that the benchmark refuses to run without sources.
"""

import json
import math
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOAD_NAMES = [w["name"] for w in SPEC["workloads"]]


def _run(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", str(trace), "--tiny"],
        cwd=cwd, capture_output=True, text=True, timeout=300)


@pytest.fixture(scope="module")
def results():
    out = {}
    for name in WORKLOAD_NAMES:
        for trace in (0, 1):
            proc = _run(name, trace)
            assert proc.returncode == 0, proc.stderr
            out[name, trace] = json.loads(proc.stdout.strip().splitlines()[-1])
    return out


@pytest.mark.parametrize("trace,section", [(0, "end_to_end"), (1, "per_layer")])
def test_every_named_metric_has_its_unit(results, trace, section):
    expected = {m["name"]: m["unit"] for m in SPEC[section]}
    for name in WORKLOAD_NAMES:
        result = results[name, trace]
        assert set(result) == {"correct", "attempted", "failed", "metrics"}
        assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
        got = {k: v["unit"] for k, v in result["metrics"].items()}
        assert got == expected, name
        assert all(math.isfinite(v["value"]) for v in result["metrics"].values())


def test_self_times_fit_inside_traced_total(results):
    for name in WORKLOAD_NAMES:
        metrics = {k: v["value"] for k, v in results[name, 1]["metrics"].items()}
        self_sum = sum(v for k, v in metrics.items() if k.endswith(".self_s"))
        assert 0 < self_sum <= metrics["trace.total_s"] + 1e-9, name
        for key in (k for k in metrics if k.endswith(".self_s")):
            total = metrics[key[:-len("self_s")] + "total_s"]
            assert -1e-9 <= metrics[key] <= total + 1e-9, key


def test_wrappers_are_removed_after_a_traced_run():
    sys.path.insert(0, str(HERE))
    import run

    run.bootstrap()
    from flsched import harness, simenv
    from tracer import Tracer, originals
    from workloads import WORKLOADS

    before = originals()
    plain = (harness.run_policy, simenv.sample_round)
    workload = WORKLOADS["pedpc_floor"]
    out_dir = run.OUT / "tiny" / "test_wrappers"
    out_dir.mkdir(parents=True, exist_ok=True)
    cfg_path = out_dir / "config.json"
    doc = workload.config_doc(out_dir, tiny=True)
    cfg_path.write_text(json.dumps(doc))
    tracer = Tracer()
    units = []
    with pytest.raises(ZeroDivisionError):  # the originals come back even on an error
        with tracer.installed():
            assert all(originals()[k] is not v for k, v in before.items())
            units = run.measure(workload, cfg_path, workload.scenario_seeds(3), out_dir,
                                doc["system"]["num_rounds"], 0.0, 1, tracer=tracer,
                                stamps=run.RoundStamps())
            1 / 0
    assert len(units) == 1 and units[0].error is None
    assert all(originals()[k] is v for k, v in before.items())
    assert (harness.run_policy, simenv.sample_round) == plain
    assert tracer.layer_stats()["scheduler.run_policy"][0] == 1


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = _run(WORKLOAD_NAMES[0], 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""
