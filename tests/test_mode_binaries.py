"""Mode binaries only where they can matter (`formulation.mode_needed`).

Branch-and-bound on the reduced model must reach the optimum that HiGHS (as
bundled with scipy) proves for the paper's full model, `build_model(sc,
full=True)`, and every schedule must pass the audit, exclusivity included.
The fallback cases keep some binaries and are checked the same way.
"""

from dataclasses import replace

import numpy as np
import pytest

import hems.formulation as formulation
from hems.formulation import build_model, solve_scenario
from hems.milp import OPTIMAL
from hems.scenario import EVSpec, StorageSpec, synth_case
from hems.validation import audit

from lp_oracle import brute_force_optimum, highs_solve
from scenario_gen import perturbed_household, random_small_scenario
from test_formulation import make_scenario


def mode_intervals(model, label):
    """The intervals of the mode binaries `u_<label>_<t>`, in model order."""
    prefix = f"u_{label}_"
    return [int(v.name[len(prefix):]) for v in model.variables if v.name.startswith(prefix)]


def export_intervals(varmap):
    """The intervals where grid_sell keeps its variable."""
    return np.flatnonzero(varmap.ids[1] >= 0).tolist()


def assert_matches_full_model(sc):
    result = solve_scenario(sc)
    assert result.solution.status == OPTIMAL
    status, full = highs_solve(build_model(sc, full=True)[0])
    assert status == OPTIMAL
    assert result.solution.objective == pytest.approx(full, abs=1e-6 * (1 + abs(full)))
    assert audit(sc, result.schedule).passed
    return result


@pytest.mark.parametrize("dsm", [False, True])
@pytest.mark.parametrize("case", "ABCD")
@pytest.mark.parametrize("reference", ["hourly", "halfhour"])
def test_reference_runs_match_highs_on_full_model(request, reference, case, dsm):
    """Without DSM no binary is left; with it only the delay choices are."""
    sc = synth_case(case, dsm, request.getfixturevalue(f"{reference}_reference"))
    model = assert_matches_full_model(sc).model
    names = [model.variables[i].name for i in model.binary_ids()]
    assert all(name.startswith("shift_") for name in names)
    assert bool(names) == dsm


def test_tied_prices_keep_one_grid_binary(hourly_reference):
    """sell = buy in one interval keeps the grid and ESS binaries there only
    (the EV is away at t = 12)."""
    t = 12
    sell = list(hourly_reference.tariff.sell)
    sell[t] = hourly_reference.tariff.buy[t]
    base = replace(hourly_reference, tariff=replace(hourly_reference.tariff, sell=tuple(sell)))
    for case in "CD":
        for dsm in (False, True):
            sc = synth_case(case, dsm, base)
            model, varmap = build_model(sc)
            assert mode_intervals(model, "grid") == [t]
            assert export_intervals(varmap) == [t]  # the grid binary needs grid_sell
            assert mode_intervals(model, "ess") == [t]
            assert not mode_intervals(model, "ev")
            assert_matches_full_model(sc)


def test_lossless_ess_keeps_every_ess_binary(hourly_reference):
    base = replace(
        hourly_reference, ess=replace(hourly_reference.ess, charge_eff=1.0, discharge_eff=1.0)
    )
    for case in "CD":
        for dsm in (False, True):
            sc = synth_case(case, dsm, base)
            model, _ = build_model(sc)
            assert not mode_intervals(model, "grid")
            assert mode_intervals(model, "ess") == list(range(sc.grid.T))
            assert not mode_intervals(model, "ev")
            assert_matches_full_model(sc)


def test_tight_export_cap_keeps_storage_binaries(hourly_reference):
    """With the export cap at peak PV, storage binaries stay wherever PV plus
    the deliverable discharge rates of the devices present could exceed it:
    7 of 24 intervals in case C, 19 in case D (the EV counts only while it is
    home). The export sum keeps its row and grid_sell in exactly those
    intervals, as no grid binary is left."""
    base = replace(hourly_reference, big_m=(None, max(hourly_reference.pv_gen)))
    for case, count in (("C", 7), ("D", 19)):
        for dsm in (False, True):
            sc = synth_case(case, dsm, base)
            ess_rate = sc.ess.discharge_rate * sc.ess.discharge_eff
            room = [pv + ess_rate for pv in sc.pv_gen]
            if sc.ev:
                for t in range(sc.ev.arrival, sc.ev.departure + 1):
                    room[t] += sc.ev.storage.discharge_rate * sc.ev.storage.discharge_eff
            expected = [t for t in range(sc.grid.T) if room[t] > max(sc.pv_gen)]
            model, varmap = build_model(sc)
            assert not mode_intervals(model, "grid")
            assert len(expected) == count and mode_intervals(model, "ess") == expected
            exports = [int(c.tag[len("export_sum_"):]) for c in model.constraints
                       if c.tag.startswith("export_sum_")]
            assert exports == export_intervals(varmap) == expected
            assert_matches_full_model(sc)


def test_low_feed_in_price_keeps_storage_binaries(monkeypatch):
    """At a feed-in price of 0.001 cents/kWh, exporting the EV's energy
    through a charge/discharge loop of the ESS (penalty 2e-4, 90.25 % round
    trip) beats exporting it directly (penalty 3e-4). The price is above
    every penalty, yet a relaxed ESS mode would take that loop."""
    ess = StorageSpec(2.0, 2.0, 0.95, 0.95, 0.0, 6.0, 2.0)
    ev = EVSpec(StorageSpec(3.3, 3.3, 0.9, 0.9, 0.0, 16.0, 5.0), 0, 0, False)
    sc = make_scenario(T=1, buy=[10.0], sell=[1e-3], nd=[0.0], ess=ess, ev=ev)
    model, _ = build_model(sc)
    assert not mode_intervals(model, "grid") and mode_intervals(model, "ess") == [0]
    full = assert_matches_full_model(sc).solution.objective

    monkeypatch.setattr(
        formulation,
        "mode_needed",
        lambda sc: {"grid": [False], "export": [False], "ess": [False], "ev": [False]},
    )
    relaxed = solve_scenario(sc)
    assert relaxed.solution.objective < full - 1e-5
    assert not audit(sc, relaxed.schedule).family("exclusivity").passed


@pytest.mark.parametrize("reference, count", [("hourly", 12), ("halfhour", 4)])
def test_perturbed_households_match_highs_on_full_model(request, reference, count):
    """Seeded DSM-on variants of the reference household, cases A-D in turn."""
    base = request.getfixturevalue(f"{reference}_reference")
    rng = np.random.default_rng(606)
    for i in range(count):
        assert_matches_full_model(synth_case("ABCD"[i % 4], True, perturbed_household(base, rng)))


LOSSLESS_ESS = StorageSpec(1.0, 1.0, 1.0, 1.0, 0.0, 2.0, 1.0)


def tied_scenario(rng, lossless):
    """A small random scenario with the ties that keep mode binaries:
    sell = buy in random intervals, zero prices in others and, if asked, a
    lossless ESS."""
    sc = random_small_scenario(rng)
    T = sc.grid.T
    buy, sell = sc.tariff.buy.copy(), sc.tariff.sell.copy()
    tied = rng.random(T) < 0.5
    sell[tied] = buy[tied]
    free = rng.random(T) < 0.25
    buy[free] = sell[free] = 0.0
    ess = sc.ess
    if lossless:
        ess = replace(ess or LOSSLESS_ESS, charge_eff=1.0, discharge_eff=1.0)
    return replace(sc, tariff=replace(sc.tariff, buy=buy, sell=sell), ess=ess)


def test_tied_prices_match_brute_force():
    """Branch-and-bound reaches the brute-force optimum of the paper's full
    model on the ties that keep grid and storage mode binaries. Draws whose
    full model has more than 10 binaries are skipped: enumerating the one
    12-binary draw took about 1.5 s, half of what the other 60 took."""
    rng = np.random.default_rng(2510)
    drawn = kept = 0
    while drawn < 60:
        sc = tied_scenario(rng, lossless=drawn % 2 == 0)
        if len(build_model(sc, full=True)[0].binary_ids()) > 10:
            continue
        drawn += 1
        best, _ = brute_force_optimum(sc)
        result = solve_scenario(sc)
        kept += len(result.model.binary_ids())
        assert result.solution.status == OPTIMAL
        assert result.solution.objective == pytest.approx(best, abs=1e-6 * (1 + abs(best)))
        assert audit(sc, result.schedule).passed
    assert kept >= 150
