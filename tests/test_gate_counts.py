"""The exit codes of `tools/gate_counts.py`, 1 when a run fails the audit or
differs from HiGHS, and of `tools/gate_diff.py`, 1 when two gate outputs
disagree on a run, a status or an optimal objective; each names the run on
stderr."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hems.scenario import synth_case

TOOLS = Path(__file__).resolve().parent.parent / "tools"


def _load_tool(name):
    saved = sys.path[:]   # gate_counts puts src/ and perfbench/ in front
    try:
        spec = importlib.util.spec_from_file_location(name, TOOLS / f"{name}.py")
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


@pytest.fixture(scope="module")
def gate():
    return _load_tool("gate_counts")


@pytest.mark.parametrize(
    "highs_shift, audit_passes, code",
    [(0.0, True, 0), (1e-3, True, 1), (0.0, False, 1)],
    ids=["agrees", "highs-differs", "audit-fails"],
)
def test_gate_exit_code(gate, monkeypatch, capsys, hourly_reference, highs_shift, audit_passes, code):
    scenario = synth_case("A", False, hourly_reference)
    monkeypatch.setattr(gate, "runs", lambda: iter([("ref", "hourly-A-dsmoff", scenario, None)]))
    optimum = gate.highs_optimum
    monkeypatch.setattr(gate, "highs_optimum", lambda model: optimum(model) + highs_shift)
    if not audit_passes:
        monkeypatch.setattr(gate, "audit", lambda sc, schedule: SimpleNamespace(passed=False))
    assert gate.main() == code
    out, err = capsys.readouterr()
    assert out.splitlines()[-1].startswith("totals ref 1 / ")
    assert err == ("gate failure: ref hourly-A-dsmoff\n" if code else "")


OLD_GATE = """\
ref hourly-A-dsmoff optimal 1 40 0x1.0000000000000p+7 audit=pass highs=0.0e+00
households hourly-v0004-C optimal 13 4158 0x1.3f1fa50b9e3e2p+6 audit=pass highs=3.5e-16
quarterhour D-dsmon iteration_limit 100 69815 nan bound=0x1.bd591ae2291ecp+6
totals ref 1 / 40 households 13 / 4158 quarterhour 100 / 69815 audit_failures 0 highs_max 3.5e-16
"""


@pytest.mark.parametrize(
    "old, new, code, failure",
    [
        # Nodes, iterations, the last objective bit and a limit's bound move.
        ("13 4158 0x1.3f1fa50b9e3e2p+6", "11 3508 0x1.3f1fa50b9e3e0p+6", 0, None),
        ("bound=0x1.bd591ae2291ecp+6", "bound=0x1.bd591ae2291e0p+6", 0, None),
        # An objective moves by 2e-9 relative.
        ("0x1.0000000000000p+7", "0x1.00000008a8340p+7", 1, "ref hourly-A-dsmoff objective 128.0 -> "),
        ("iteration_limit 100", "optimal 100", 1, "quarterhour D-dsmon status iteration_limit -> optimal"),
        ("audit=pass highs=3.5e-16", "audit=FAIL highs=3.5e-16", 1, "households hourly-v0004-C audit=FAIL"),
        ("ref hourly-A-dsmoff", "ref hourly-B-dsmoff", 1, "ref hourly-A-dsmoff is in "),
    ],
    ids=["counts-move", "bound-moves", "objective-moves", "status-differs", "audit-fails", "run-missing"],
)
def test_gate_diff(tmp_path, capsys, old, new, code, failure):
    gate_diff = _load_tool("gate_diff")
    before, after = tmp_path / "old.txt", tmp_path / "new.txt"
    before.write_text(OLD_GATE)
    after.write_text(OLD_GATE.replace(old, new))
    assert gate_diff.main([str(before), str(after)]) == code
    out, err = capsys.readouterr()
    lines = out.splitlines()
    assert lines[-3:-1] == ["- " + OLD_GATE.splitlines()[-1], "+ " + OLD_GATE.splitlines()[-1]]
    assert lines[-1].startswith("largest optimal objective move ")
    if failure is None:
        assert err == ""
    else:
        assert err.startswith("gate failure: " + failure)
