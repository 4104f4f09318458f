"""Tests of the benchmark itself, on tiny versions of its workloads.

Run with ``python -m pytest perfbench`` from the root of the checkout.
"""

import inspect
import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent / "src"))
sys.path.insert(0, str(HERE))

import run  # noqa: E402
from tracing import Tracer  # noqa: E402
from workloads import WORKLOADS, tiny  # noqa: E402

pytestmark = pytest.mark.filterwarnings("ignore:learning_rate .* outside the usual grid")

BENCHMARK = json.loads((HERE.parent / "BENCHMARK.json").read_text(encoding="utf-8"))
EXACT = ("train.steps", "data.real_tokens", "data.padded_cells", "autograd.matmul_gflop",
         "autograd.attention_gflop", "metrics.predictions", "data.pack_segments_calls")


def run_tiny(name, trace, workdir, seed=3):
    return run.run_workload(tiny(WORKLOADS[name]), seed, 0, trace, workdir,
                            min_setup_s=0.0, min_stage_s=0.0)


def bindings():
    """Every (owner, attribute) -> object of the kttrace modules and classes."""
    out = {}
    for mod_name, mod in list(sys.modules.items()):
        if mod_name != "kttrace" and not mod_name.startswith("kttrace."):
            continue
        for attr, obj in vars(mod).items():
            out[(mod_name, attr)] = obj
            if inspect.isclass(obj) and obj.__module__.startswith("kttrace"):
                for cattr, cobj in vars(obj).items():
                    out[(obj.__module__, obj.__qualname__, cattr)] = cobj
    return out


def test_benchmark_json_names_the_workloads():
    assert [w["name"] for w in BENCHMARK["workloads"]] == list(WORKLOADS)
    assert BENCHMARK["command"] == ["python3", "perfbench/run.py"]


@pytest.mark.parametrize("name", list(WORKLOADS))
def test_workload_completes_and_prints_the_declared_metrics(name, tmp_path):
    result, report = run_tiny(name, 0, tmp_path / "plain")
    assert result["correct"], report["failures"]
    assert result["failed"] == 0 and result["attempted"] >= len(report["rounds"]) * 3
    declared = {m["name"]: m["unit"] for m in BENCHMARK["end_to_end"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert all(v["value"] > 0 for v in result["metrics"].values())

    result, report = run_tiny(name, 1, tmp_path / "traced")
    assert result["correct"], report["failures"]
    declared = {m["name"]: m["unit"] for m in BENCHMARK["per_layer"]}
    assert {k: v["unit"] for k, v in result["metrics"].items()} == declared
    assert report["absent"] == []
    assert report["spans"]["cli.eval"]["calls"] == report["traced_rounds"]
    assert all(len(t) == 1 for r in report["rounds"] for t in r["times"].values())


def test_traced_run_restores_every_binding(tmp_path):
    run.import_kttrace()
    before = bindings()
    result, _ = run_tiny("adapt-target", 1, tmp_path)
    assert result["correct"]
    after = bindings()
    assert after.keys() == before.keys()
    changed = [key for key in before if after[key] is not before[key]]
    assert changed == []


def test_counts_repeat_exactly_for_one_seed(tmp_path):
    first, _ = run_tiny("pretrain-mix", 1, tmp_path / "a")
    second, _ = run_tiny("pretrain-mix", 1, tmp_path / "b")
    counted = [m["name"] for m in BENCHMARK["per_layer"]
               if m["name"] in EXACT or m["name"].endswith("_calls")]
    assert len(counted) >= len(EXACT) + 9
    for name in counted:
        assert first["metrics"][name] == second["metrics"][name], name
    assert first["metrics"]["train.steps"]["value"] > 0


def test_ledger_counts_failed_calls():
    ledger = run.Ledger()
    for round_no in (0, 1):
        for stage in ("preprocess", "eval", "eval"):
            ledger.attempt(round_no, stage)
    ledger.fail(1, "eval", "quality_auc not in (0.5, 1]")
    ledger.fail(1, "eval", "output differs from round 0")
    ledger.fail(0, "preprocess", "exit code 1")
    assert ledger.attempted == 6 and len(ledger.failed) == 2
    assert ledger.failures() == [
        {"round": 0, "stage": "preprocess", "reasons": ["exit code 1"]},
        {"round": 1, "stage": "eval", "reasons": ["quality_auc not in (0.5, 1]",
                                                  "output differs from round 0"]}]


def test_missing_wrapped_name_is_reported_absent():
    run.import_kttrace()
    tracer = Tracer()
    tracer.install()
    tracer.restore()
    tracer.installed.discard("metrics.auc")
    assert "metrics.auc_s" in run.absent_metrics(tracer)


def test_exits_nonzero_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "pretrain-mix", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
