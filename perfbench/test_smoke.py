"""Smoke test of the benchmark: every workload at a tiny size, traced and untraced.

    python3 -m pytest -q perfbench/test_smoke.py
"""

import dataclasses
import json
import shutil
import signal
import subprocess
import sys
from pathlib import Path
from time import perf_counter

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

import pace  # noqa: E402
import run  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

BENCHMARK = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
TINY = {
    "desk-grid": dict(users=3, items=6, per_user=20, epochs=1),
    "mid-staged": dict(users=4, items=10, per_user=20, epochs=1),
    "crowd-mehestan": dict(users=10, items=8, per_user=12, epochs=1),
}
# Layers a workload never reaches must report zero rather than be left out.
IDLE = {
    "desk-grid": ("dataset.parse_s", "dataset.parse_rows"),
    "mid-staged": ("gbt.fits", "gbt.iters", "gbt.fit_s", "robust.br_mean_calls",
                   "scaling.mehestan_calls", "simgen.generate_s"),
    "crowd-mehestan": ("scaling.minmax_s", "scaling.normalization_s", "simgen.generate_s"),
}


def test_workloads_match_benchmark_json():
    assert sorted(workloads.WORKLOADS) == sorted(w["name"] for w in BENCHMARK["workloads"])


@pytest.mark.parametrize("trace", [False, True], ids=["untraced", "traced"])
@pytest.mark.parametrize("name", sorted(workloads.WORKLOADS))
def test_workload_reports_every_metric(name, trace, tmp_path):
    w = dataclasses.replace(workloads.WORKLOADS[name], **TINY[name])
    result, _ = run.measure(w, seed=3, seconds=0, trace=trace, workdir=tmp_path)
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    declared = BENCHMARK["per_layer" if trace else "end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    values = {k: v["value"] for k, v in result["metrics"].items()}
    if not trace:
        assert all(v > 0 for v in values.values())
        return
    for metric in IDLE[name]:
        assert values[metric] == 0, metric
    assert sum(values[m] for m in spans.SELF_TIMES) == pytest.approx(values["trace.run_s"])
    if name == "desk-grid":
        assert values["scaling.mehestan_calls"] == 2
        assert values["gbt.fits"] == 2 * TINY[name]["users"]
    if name == "crowd-mehestan":
        assert values["robust.br_mean_calls"] > 0 and values["dataset.restrict_calls"] > 0


def test_pace_samples_the_host_during_the_block():
    with pace.Pace() as clock:
        start = perf_counter()
        while perf_counter() - start < 0.3:
            pass
    assert len(clock.samples) >= 5
    assert 0 < clock.probe_s < clock.wall_s
    assert clock.seconds == pytest.approx((clock.wall_s - clock.probe_s) / clock.slowdown)
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


def test_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    done = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "desk-grid", "--seed", "1",
         "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120,
    )
    assert done.returncode != 0
    assert "correct" not in done.stdout
