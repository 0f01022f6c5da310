"""The exit code of `tools/gate_counts.py`: 1 when a run fails the audit or
differs from HiGHS, with the run named on stderr."""

import importlib.util
import sys
from pathlib import Path
from types import SimpleNamespace

import pytest

from hems.scenario import synth_case

TOOL = Path(__file__).resolve().parent.parent / "tools" / "gate_counts.py"


@pytest.fixture(scope="module")
def gate():
    saved = sys.path[:]   # the tool puts src/ and perfbench/ in front
    try:
        spec = importlib.util.spec_from_file_location("gate_counts", TOOL)
        module = importlib.util.module_from_spec(spec)
        spec.loader.exec_module(module)
    finally:
        sys.path[:] = saved
    return module


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
