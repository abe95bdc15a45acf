"""Runs the benchmark harness end to end at the smallest sizes.

    python -m pytest perfbench/test_smoke.py
"""

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def test_smoke_mode_reports_every_metric_and_passes_its_checks():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    proc = subprocess.run(
        [sys.executable, str(HERE / "run.py"), "--smoke"],
        cwd=ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    results = [json.loads(line) for line in proc.stdout.splitlines()[1::2]]
    assert [r["workload"] for r in results] == [w["name"] for w in spec["workloads"]]
    expected = {
        m["name"]: m["unit"] for m in spec["end_to_end"] + spec["per_layer"]
    }
    for result in results:
        assert result["correct"] and result["failed"] == 0
        assert result["attempted"] == 2  # one untraced, one traced invocation
        units = {name: m["unit"] for name, m in result["metrics"].items()}
        assert units == expected
    # Names imported by value are rebound, so their calls are counted.
    by_name = {r["workload"]: r["metrics"] for r in results}
    assert by_name["continuum-m2-k1-p100k"]["lattice.character_sum_lattice.calls"]["value"] > 0
    assert by_name["lattice-m3"]["spectra.is_spectrum.calls"]["value"] > 0
