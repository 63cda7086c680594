"""The benchmark's traced run still works on the package: a guard that a
change in src/ (a module its spans name gone, a hooked function renamed)
breaks a tier-1 test before it breaks the benchmark."""

import configparser
import json
import os
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def test_traced_child_run_completes_and_matches_an_untraced_run(tmp_path):
    preset = configparser.ConfigParser()
    preset.read(ROOT / "configs" / "longtail.ini")
    preset["training"]["t1"], preset["training"]["t2"] = "10", "60"
    ini = tmp_path / "longtail.ini"
    with open(ini, "w", encoding="utf-8") as fh:
        preset.write(fh)
    env = {**os.environ, "OPENBLAS_NUM_THREADS": "1",
           "PYTHONDONTWRITEBYTECODE": "1", "PYTHONPATH": str(ROOT / "src")}
    traced, untraced = tmp_path / "traced", tmp_path / "untraced"
    spans, result = tmp_path / "spans.jsonl", tmp_path / "result.json"
    child = subprocess.run(
        [sys.executable, str(ROOT / "perfbench" / "child.py"),
         "--src", str(ROOT / "src"), "--config", str(ini),
         "--output", str(traced), "--result", str(result),
         "--trace", str(spans)],
        env=env, capture_output=True, text=True, timeout=120)
    assert child.returncode == 0, child.stderr
    assert spans.stat().st_size > 0
    trace = json.loads(result.read_text())["trace"]
    assert trace["training.meta_iterations"] == 50
    assert trace["training.final_step.calls"] == 50
    # Every iteration of a live-net run extracts its 64-row batch.
    assert (trace["characteristics.extract.calls"],
            trace["characteristics.extract.rows"]) == (60, 3840)
    plain = subprocess.run(
        [sys.executable, "-m", "advaug.cli", "run", "--config", str(ini),
         "--output", str(untraced)],
        env=env, capture_output=True, text=True, timeout=120)
    assert plain.returncode == 0, plain.stderr
    assert ((traced / "metrics.csv").read_bytes()
            == (untraced / "metrics.csv").read_bytes())
