"""tools/decision_digest.py: seed 1 of the benchmark galleries meets its pins,
and the job summary names the fields that moved."""

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


SHA = "0123456789abcdef0123456789abcdef01234567"
BASE = "1 720 d1 m1 v1 100\n2 720 d2 m2 v2 200"
HEADER = "### Decision digest: base 0123456789ab and this pull request"


def test_summary_of_equal_lines():
    assert _tool_module().summary(SHA, BASE, BASE, "") == "\n".join([
        HEADER, "",
        "- seed 1: nothing moved",
        "- seed 2: nothing moved",
        "", "~~~",
        "base 1 720 d1 m1 v1 100", "base 2 720 d2 m2 v2 200",
        "head 1 720 d1 m1 v1 100", "head 2 720 d2 m2 v2 200",
        "~~~",
    ])


def test_summary_names_the_digests_that_moved():
    # the score bits and so the stored floats move, the verdicts do not
    head = "1 720 D1 M1 v1 100\n2 720 D2 M2 v2 200"
    lines = _tool_module().summary(SHA, BASE, head, "").splitlines()
    assert lines[2:4] == ["- seed 1: moved decision sha256, model-file sha256",
                          "- seed 2: moved decision sha256, model-file sha256"]
    assert lines[-3:] == ["head 1 720 D1 M1 v1 100", "head 2 720 D2 M2 v2 200", "~~~"]


def test_summary_of_an_empty_base_is_the_note():
    note = "The base commit has no tools/decision_digest.py, so there is nothing to compare."
    assert _tool_module().summary(SHA, "", BASE, note) == f"{HEADER}\n\n{note}"


def test_summary_of_a_seed_missing_from_the_base():
    head = BASE + "\n3 720 d3 m3 v3 300"
    lines = _tool_module().summary(SHA, BASE, head, "").splitlines()
    assert lines[2:5] == [
        "- seed 1: nothing moved",
        "- seed 2: nothing moved",
        "- seed 3: moved decision count, decision sha256, model-file sha256, "
        "verdict sha256, model-file bytes",
    ]
    assert "base 3" not in "\n".join(lines) and lines[-2] == "head 3 720 d3 m3 v3 300"
