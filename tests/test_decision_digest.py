"""tools/decision_digest.py: seed 1 of the benchmark galleries meets its pins."""

import importlib.util
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
TOOL = ROOT / "tools" / "decision_digest.py"


def _tool_module():
    spec = importlib.util.spec_from_file_location("decision_digest", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def test_seed_1_meets_its_pins():
    # the tool imports biomm from ./src and the galleries from ./perfbench
    run = subprocess.run([sys.executable, str(TOOL), "--seeds", "1", "--check"],
                         cwd=ROOT, capture_output=True, text=True, timeout=120)
    assert run.returncode == 0, run.stderr
    seed, count, *_ = run.stdout.split()
    assert (seed, count) == ("1", "720")


def test_each_broken_pin_is_named():
    tool = _tool_module()
    pins = tool.PINS
    good = (pins["count"], "d" * 64, "m" * 64, pins["verdicts"][1], pins["model_bytes_ceiling"])
    assert tool.broken_pins(1, good) == []
    tampered = (pins["count"] - 1, "d" * 64, "m" * 64, "0" * 64, pins["model_bytes_ceiling"] + 1)
    broken = tool.broken_pins(1, tampered)
    assert [field.split()[0] for field in broken] == ["count", "verdicts", "model"]
    # a seed with no pinned verdict digest does not pass
    assert [field.split()[0] for field in tool.broken_pins(4, good)] == ["verdicts"]
