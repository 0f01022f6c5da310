import math

import numpy as np
import pytest

from hems.milp import MILPModel, ModelError

from lp_oracle import max_violation, row_violations


def test_add_variable_ids_and_count():
    m = MILPModel()
    a = m.add_variable("continuous", 0.0, math.inf, "Pgrid_1")
    assert a == 0
    assert m.num_variables == 1
    b = m.add_variable("binary", 0.0, 1.0, "uESS_3")
    assert m.variables[b].kind == "binary"


def test_add_variable_rejects_inverted_bounds():
    m = MILPModel()
    with pytest.raises(ModelError, match="lower bound"):
        m.add_variable("continuous", 5.0, 2.0, "bad")


def test_add_variable_rejects_nan_and_bad_binary_bounds():
    m = MILPModel()
    with pytest.raises(ModelError, match="NaN"):
        m.add_variable("continuous", math.nan, 1.0, "x")
    with pytest.raises(ModelError, match="binary bounds"):
        m.add_variable("binary", -0.5, 1.0, "u")
    with pytest.raises(ModelError, match="infinity"):
        m.add_variable("continuous", math.inf, math.inf, "x")
    with pytest.raises(ModelError, match="unknown variable kind 'integer'"):
        m.add_variable("integer", 0.0, 1.0, "k")


def test_constraint_validation():
    m = MILPModel()
    x = m.add_continuous("x")
    with pytest.raises(ModelError, match="duplicate"):
        m.add_constraint([(x, 1.0), (x, 2.0)], "<=", 1.0)
    with pytest.raises(ModelError, match="unknown variable"):
        m.add_constraint([(x + 7, 1.0)], "<=", 1.0)
    with pytest.raises(ModelError, match="non-finite"):
        m.add_constraint([(x, math.inf)], "<=", 1.0)
    with pytest.raises(ModelError, match="empty"):
        m.add_constraint([], "<=", 1.0)
    with pytest.raises(ModelError, match="sense"):
        m.add_constraint([(x, 1.0)], "<", 1.0)
    with pytest.raises(ModelError, match="non-finite rhs"):
        m.add_constraint([(x, 1.0)], "<=", math.nan)


def test_violation_checker():
    m = MILPModel()
    x = m.add_continuous("x", 0.0, 2.0)
    y = m.add_continuous("y", 0.0, 2.0)
    m.add_constraint([(x, 1.0), (y, 1.0)], "<=", 3.0, "cap")
    m.add_constraint([(x, 1.0), (y, -1.0)], "=", 0.0, "eq")
    m.set_objective([(x, 1.0)])

    assert max_violation(m, np.array([1.0, 1.0])) == 0.0
    # bound violation
    assert max_violation(m, np.array([2.5, 2.5])) > 0.1
    # equality violation
    assert max_violation(m, np.array([1.0, 0.0])) == pytest.approx(1.0)
    # inequality satisfied strictly inside
    assert row_violations(m, np.array([0.5, 0.5]))[0] == 0.0


def test_lp_text_dump():
    m = MILPModel("demo")
    x = m.add_continuous("x", 0.0, 10.0)
    u = m.add_binary("pick[it]")  # name gets sanitized
    f = m.add_variable("continuous", -math.inf, math.inf, "f")
    m.add_constraint([(x, 2.0), (u, -3.5)], "<=", 4.0, "cap")
    m.add_constraint([(x, 1.0), (f, 1.0)], "=", 1.0, "tie")
    m.set_objective([(x, 1.0), (u, 0.25)])
    text = m.to_lp_text()

    lines = text.splitlines()
    assert lines[1] == "Minimize"
    assert " obj: 1 x + 0.25 pick_it_" in text or " obj: 1 x + 0.25 pick_it_1" in text
    assert "Subject To" in text
    assert " cap: 2 x - 3.5 pick" in text
    assert "Bounds" in text
    assert " 0 <= x <= 10" in text
    assert " f free" in text
    assert "Binaries" in text
    assert text.rstrip().endswith("End")


def test_lp_text_fixed_bound_rendering(tmp_path):
    m = MILPModel()
    m.add_variable("continuous", 2.0, 2.0, "pinned")
    m.set_objective([(0, 1.0)])
    assert " pinned = 2" in m.to_lp_text()
    out = tmp_path / "model.lp"
    m.write_lp(out)
    assert out.read_text() == m.to_lp_text()
