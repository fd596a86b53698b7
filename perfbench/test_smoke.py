"""The benchmark's own test: its smoke mode runs every workload at a tiny size and
emits every metric named in BENCHMARK.json with its unit."""

import subprocess
import sys
from pathlib import Path


def test_smoke_mode_emits_every_declared_metric():
    run = Path(__file__).with_name("run.py")
    proc = subprocess.run([sys.executable, str(run), "--smoke"],
                          capture_output=True, text=True, timeout=600, check=False)
    assert proc.returncode == 0, proc.stdout + proc.stderr
    assert proc.stdout.strip().splitlines()[-1] == "smoke ok"
