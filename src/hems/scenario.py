"""Household scenario: time grid, tariffs, loads, devices and limits.

A Scenario validates itself and derives its grid caps on construction, and
is immutable: its series are read-only float64 arrays. It loads from a
versioned YAML document (`hems-scenario/1`, schema documented in the README),
parsed by libyaml. Any series field may be written as a full array, a scalar
to broadcast, or a `{csv: file, column: name}` reference to a
one-row-per-interval CSV.
"""

from __future__ import annotations

import csv
import math
import sys
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path

import numpy as np
import yaml

SCENARIO_SCHEMA = "hems-scenario/1"

DEFAULT_PENALTIES = (1e-4, 2e-4, 3e-4)  # cents/kWh on pv/ess/ev exports
CASES = ("A", "B", "C", "D")
MAX_INTERVALS = 32767  # a schedule holds destination intervals as int16
_LIMIT_KEYS = ("import_cap", "export_cap")  # the document's names for big_m
_PENALTY_KEYS = ("pv_sold", "ess_sold", "ev_sold")


class ScenarioError(ValueError):
    """Raised for unparseable or invalid scenario documents."""


def _series(name: str, values) -> np.ndarray:
    """A read-only float64 copy of `values`; each element of a sequence must
    be a number (a bool is not)."""
    if not (isinstance(values, np.ndarray) and values.dtype.kind in "fiu"):
        values = [_number(f"{name}[{i}]", v) for i, v in enumerate(values)]
    out = np.array(values, dtype=np.float64)
    out.flags.writeable = False
    return out


class _HoldsSeries:
    """Base of the dataclasses with series fields: == compares fields, arrays
    by value, and they are not hashable. Copies and unpickled objects are
    rebuilt through the constructor, so their series stay read-only."""

    __slots__ = ()

    def __reduce__(self):
        return type(self), tuple(getattr(self, f.name) for f in fields(self) if f.init)

    def __eq__(self, other) -> bool:
        if type(other) is not type(self):
            return NotImplemented
        for f in fields(self):
            a, b = getattr(self, f.name), getattr(other, f.name)
            if not (np.array_equal(a, b) if isinstance(a, np.ndarray) else a == b):
                return False
        return True


@dataclass(frozen=True, slots=True)
class TimeGrid:
    T: int
    dt: float  # hours per interval


@dataclass(frozen=True, slots=True, eq=False)
class Tariff(_HoldsSeries):
    buy: np.ndarray   # cents/kWh
    sell: np.ndarray  # cents/kWh

    def __post_init__(self) -> None:
        object.__setattr__(self, "buy", _series("tariff.buy", self.buy))
        object.__setattr__(self, "sell", _series("tariff.sell", self.sell))


@dataclass(frozen=True, slots=True, eq=False)
class ApplianceSpec(_HoldsSeries):
    name: str
    profile: np.ndarray  # kW per interval as normally scheduled
    adt_hours: float     # acceptable delay time

    def __post_init__(self) -> None:
        profile = _series(f"appliances.{self.name}.profile", self.profile)
        object.__setattr__(self, "profile", profile)

    def adt_intervals(self, dt: float) -> int:
        # floor() so the delay never exceeds the stated tolerance; the tiny
        # epsilon absorbs division noise like 1.5/0.5 -> 2.9999... No horizon
        # is longer than MAX_INTERVALS, which also caps an infinite quotient.
        return int(math.floor(min(self.adt_hours / dt + 1e-9, MAX_INTERVALS)))


@dataclass(frozen=True, slots=True)
class StorageSpec:
    charge_rate: float      # kW
    discharge_rate: float   # kW
    charge_eff: float       # (0, 1]
    discharge_eff: float    # (0, 1]
    soe_min: float          # kWh
    soe_max: float          # kWh
    soe_init: float         # kWh, stored energy just before the horizon


@dataclass(frozen=True, slots=True)
class EVSpec:
    storage: StorageSpec
    arrival: int             # first interval of presence
    departure: int           # last interval of presence (inclusive)
    require_full_at_departure: bool = True


@dataclass(frozen=True, slots=True)
class Device:
    """A storage device as the model and the audit see it. The ESS and the
    EV differ only in these fields."""

    name: str                               # "ess" or "ev": variable prefix
    spec: StorageSpec
    window: tuple[int, int]                 # inclusive presence range
    penalty: float                          # cents/kWh on its exports
    end: tuple[str, str, float] | None      # row on the last soe: tag, sense, kWh


@dataclass(frozen=True, slots=True, eq=False)
class Scenario(_HoldsSeries):
    grid: TimeGrid
    tariff: Tariff
    non_deferrable: np.ndarray                 # kW per interval
    appliances: tuple[ApplianceSpec, ...]
    ess: StorageSpec | None
    ess_end_reserve: bool                      # require end SOE >= soe_init; True without an ESS
    ev: EVSpec | None
    pv_gen: np.ndarray                         # kW per interval
    penalties: tuple[float, float, float]      # export penalties (pv, ess, ev)
    big_m: tuple[float | None, float | None] = (None, None)  # limits as given; None: auto
    caps: tuple[float, float] = field(init=False)  # import, export cap (kW) in effect

    def __post_init__(self) -> None:
        object.__setattr__(self, "non_deferrable", _series("non_deferrable", self.non_deferrable))
        object.__setattr__(self, "pv_gen", _series("pv_gen", self.pv_gen))
        if self.ess is None:  # the document has no ess block to say otherwise
            object.__setattr__(self, "ess_end_reserve", True)
        validate(self)
        with np.errstate(over="ignore"):  # an auto cap in effect that overflows is refused below
            auto = default_big_m(self.non_deferrable, self.appliances, self.ess, self.ev,
                                 self.pv_gen)
        caps = tuple(a if given is None else given for given, a in zip(self.big_m, auto))
        for key, cap in zip(_LIMIT_KEYS, caps):
            if not math.isfinite(cap):
                raise ScenarioError(f"limits.{key}: the auto cap passes the float maximum; "
                                    f"give a finite limit")
        object.__setattr__(self, "caps", caps)

    @property
    def storage(self) -> tuple[Device, ...]:
        """The storage devices present, ESS first."""
        devices = []
        if self.ess is not None:
            end = ("ess_end_reserve", ">=", self.ess.soe_init)
            devices.append(Device("ess", self.ess, (0, self.grid.T - 1), self.penalties[1],
                                  end if self.ess_end_reserve else None))
        if self.ev is not None:
            ev = self.ev
            end = ("ev_full_at_departure", "=", ev.storage.soe_max)
            devices.append(Device("ev", ev.storage, (ev.arrival, ev.departure), self.penalties[2],
                                  end if ev.require_full_at_departure else None))
        return tuple(devices)


# ---------------------------------------------------------------------------
# validation

def _number(name: str, value) -> float:
    # YAML true/false would otherwise pass as 1.0/0.0.
    if not isinstance(value, bool):
        try:
            return float(value)
        except (TypeError, ValueError):
            pass
    raise ScenarioError(f"{name}: expected a number, got {value!r}")


def _count(name: str, value) -> int:
    f = _number(name, value)
    if not f.is_integer():
        raise ScenarioError(f"{name}: expected an integer, got {value!r}")
    return int(f)


def _flag(name: str, value) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{name}: expected true or false, got {value!r}")
    return value


def _check_series(name: str, values: np.ndarray, T: int) -> None:
    if values.shape != (T,):
        raise ScenarioError(f"{name}: expected {T} values, got {values.size}")
    bad = ~np.isfinite(values) | (values < 0)
    if bad.any():
        i = int(np.argmax(bad))
        f = float(values[i])
        if not math.isfinite(f):
            raise ScenarioError(f"{name}[{i}]: non-finite value")
        raise ScenarioError(f"{name}[{i}]: negative value {f}")


def _check_finite(name: str, value: float) -> None:
    if not math.isfinite(value):
        raise ScenarioError(f"{name}: must be finite, got {value}")


def _check_storage(name: str, s: StorageSpec) -> None:
    for f in fields(s):
        _check_finite(f"{name}.{f.name}", getattr(s, f.name))
    if s.charge_rate <= 0 or s.discharge_rate <= 0:
        raise ScenarioError(f"{name}: charge/discharge rates must be positive")
    for eff, label in ((s.charge_eff, "charge_eff"), (s.discharge_eff, "discharge_eff")):
        if not (0.0 < eff <= 1.0):
            raise ScenarioError(f"{name}.{label}: must lie in (0, 1]")
    if not (0.0 <= s.soe_min <= s.soe_init <= s.soe_max):
        raise ScenarioError(
            f"{name}: need 0 <= soe_min <= soe_init <= soe_max, got "
            f"({s.soe_min}, {s.soe_init}, {s.soe_max})"
        )


def _check_intervals(T: int) -> None:
    if not (1 <= T <= MAX_INTERVALS):
        raise ScenarioError(f"grid.intervals: must lie in [1, {MAX_INTERVALS}], got {T}")


def validate(sc: Scenario) -> Scenario:
    """Check every invariant; returns the scenario for chaining."""
    _check_intervals(sc.grid.T)
    _check_finite("grid.interval_hours", sc.grid.dt)
    if not (sc.grid.dt > 0):
        raise ScenarioError("grid.interval_hours: must be positive")
    T = sc.grid.T
    _check_series("tariff.buy", sc.tariff.buy, T)
    _check_series("tariff.sell", sc.tariff.sell, T)
    _check_series("non_deferrable", sc.non_deferrable, T)
    _check_series("pv_gen", sc.pv_gen, T)
    seen = set()
    for a in sc.appliances:
        if not a.name:
            raise ScenarioError("appliances: every appliance needs a name")
        if a.name in seen:
            raise ScenarioError(f"appliances: duplicate name {a.name!r}")
        seen.add(a.name)
        _check_series(f"appliances.{a.name}.profile", a.profile, T)
        _check_finite(f"appliances.{a.name}.adt_hours", a.adt_hours)
        if a.adt_hours < 0:
            raise ScenarioError(f"appliances.{a.name}.adt_hours: negative")
    if sc.ess is not None:
        _check_storage("ess", sc.ess)
    if sc.ev is not None:
        _check_storage("ev", sc.ev.storage)
        if not (0 <= sc.ev.arrival <= sc.ev.departure < T):
            raise ScenarioError(
                f"ev: need 0 <= arrival <= departure < {T} (availability window "
                f"must be a nonempty contiguous index range; pick a horizon "
                f"origin that avoids wrapping midnight)"
            )
    for key, e in zip(_PENALTY_KEYS, sc.penalties):
        _check_finite(f"penalties.{key}", e)
    e1, e2, e3 = sc.penalties
    if not (0.0 <= e1 < e2 < e3):
        raise ScenarioError(
            "penalties: must be strictly increasing (pv_sold < ess_sold < ev_sold)"
        )
    for key, cap in zip(_LIMIT_KEYS, sc.big_m):
        if cap is not None and not (math.isfinite(cap) and cap > 0):
            raise ScenarioError(f"limits.{key}: must be positive and finite, or auto")
    return sc


def default_big_m(
    non_deferrable,
    appliances: tuple[ApplianceSpec, ...],
    ess: StorageSpec | None,
    ev: EVSpec | None,
    pv_gen,
) -> tuple[float, float]:
    """Safe caps: peak demand plus every charge rate on the import side; peak
    PV plus every deliverable discharge rate on export.

    An appliance that may be delayed counts with its running total: any of
    its blocks up to an interval can land there, and none from later ones.
    """
    deferrable = sum(
        (np.cumsum(a.profile) if a.adt_hours > 0 else np.asarray(a.profile) for a in appliances),
        0.0,
    )
    n1 = float(np.max(np.asarray(non_deferrable) + deferrable))
    n2 = float(np.max(pv_gen)) if len(pv_gen) else 0.0
    for spec in (ess, ev.storage if ev else None):
        if spec is not None:
            n1 += spec.charge_rate
            n2 += spec.discharge_rate * spec.discharge_eff
    return (max(n1, 1.0), max(n2, 1.0))


# ---------------------------------------------------------------------------
# YAML document handling

def read_series_csv(path) -> dict[str, list[float]]:
    """Read a one-row-per-interval CSV (header line) into column lists."""
    path = Path(path)
    try:
        with open(path, newline="", encoding="utf-8") as fh:
            reader = csv.DictReader(fh)
            if reader.fieldnames is None:
                raise ScenarioError(f"{path}: empty CSV")
            cols: dict[str, list[float]] = {name: [] for name in reader.fieldnames}
            for row in reader:
                for name in reader.fieldnames:
                    raw = row.get(name)
                    if raw is None or raw == "":
                        raise ScenarioError(
                            f"{path}: line {reader.line_num}: missing value for {name!r}"
                        )
                    try:
                        cols[name].append(float(raw))
                    except ValueError as exc:
                        raise ScenarioError(
                            f"{path}: line {reader.line_num}: bad number {raw!r} for {name!r}"
                        ) from exc
    except OSError as exc:
        raise ScenarioError(f"{path}: cannot read: {exc.strerror}") from exc
    except UnicodeDecodeError as exc:
        raise ScenarioError(f"{path}: not UTF-8 text: {exc.reason}") from exc
    return cols


def _resolve_series(name: str, value, T: int, base_dir: Path | None) -> np.ndarray:
    """Array, scalar broadcast, or {csv:..., column:...} reference, each
    element checked to be a number; the Scenario checks the rest."""
    if isinstance(value, dict):
        extra = set(value) - {"csv", "column"}
        if extra or "csv" not in value or "column" not in value:
            raise ScenarioError(f"{name}: csv reference needs exactly csv+column keys")
        path = Path(value["csv"])
        if not path.is_absolute() and base_dir is not None:
            path = base_dir / path
        try:
            cols = read_series_csv(path)
        except ScenarioError as exc:
            raise ScenarioError(f"{name}: {exc}") from exc
        col = value["column"]
        if col not in cols:
            raise ScenarioError(f"{name}: column {col!r} not in {path}")
        value = cols[col]
    elif isinstance(value, (int, float)):
        value = np.full(T, _number(name, value))
    elif not isinstance(value, list):
        raise ScenarioError(f"{name}: expected array, scalar or csv reference")
    return _series(name, value)


def _require_keys(name: str, mapping: dict, required: set[str], optional: set[str] = frozenset()) -> None:
    if not isinstance(mapping, dict):
        raise ScenarioError(f"{name}: expected a mapping")
    missing = required - set(mapping)
    if missing:
        raise ScenarioError(f"{name}: missing keys {sorted(missing)}")
    unknown = set(mapping) - required - optional
    if unknown:
        raise ScenarioError(f"{name}: unknown keys {sorted(unknown)}")


# Required in both storage blocks, in field order so the first bad key is named.
_STORAGE_KEYS = tuple(f.name for f in fields(StorageSpec) if f.name != "soe_init")


def _parse_storage(name: str, block: dict, soe_init_default=None) -> StorageSpec:
    soe_init = block.get("soe_init", soe_init_default)
    if soe_init is None:
        raise ScenarioError(f"{name}.soe_init: required")
    return StorageSpec(
        **{key: _number(f"{name}.{key}", block[key]) for key in _STORAGE_KEYS},
        soe_init=_number(f"{name}.soe_init", soe_init),
    )


def parse_scenario(doc: dict, base_dir: Path | None = None) -> Scenario:
    """Build a Scenario from a parsed document mapping."""
    if not isinstance(doc, dict):
        raise ScenarioError("document: expected a mapping at top level")
    if doc.get("schema") != SCENARIO_SCHEMA:
        raise ScenarioError(
            f"schema: expected {SCENARIO_SCHEMA!r}, got {doc.get('schema')!r}"
        )
    _require_keys(
        "document",
        doc,
        {"schema", "grid", "tariff", "non_deferrable"},
        {"appliances", "pv_gen", "ess", "ev", "penalties", "limits"},
    )
    _require_keys("grid", doc["grid"], {"intervals", "interval_hours"})
    T = _count("grid.intervals", doc["grid"]["intervals"])
    _check_intervals(T)  # before any series is broadcast to T values
    dt = _number("grid.interval_hours", doc["grid"]["interval_hours"])
    grid = TimeGrid(T, dt)

    _require_keys("tariff", doc["tariff"], {"buy", "sell"})
    buy = _resolve_series("tariff.buy", doc["tariff"]["buy"], T, base_dir)
    sell = _resolve_series("tariff.sell", doc["tariff"]["sell"], T, base_dir)
    nd = _resolve_series("non_deferrable", doc["non_deferrable"], T, base_dir)
    pv = _resolve_series("pv_gen", doc.get("pv_gen", 0.0), T, base_dir)

    appliances = []
    for i, block in enumerate(doc.get("appliances", []) or []):
        where = f"appliances[{i}]"
        _require_keys(where, block, {"name", "adt_hours", "profile"})
        appliances.append(
            ApplianceSpec(
                name=sys.intern(str(block["name"])),
                profile=_resolve_series(f"{where}.profile", block["profile"], T, base_dir),
                adt_hours=_number(f"{where}.adt_hours", block["adt_hours"]),
            )
        )

    ess = None
    ess_end_reserve = True
    if doc.get("ess") is not None:
        _require_keys("ess", doc["ess"], {*_STORAGE_KEYS, "soe_init"}, {"end_reserve"})
        ess = _parse_storage("ess", doc["ess"])
        ess_end_reserve = _flag("ess.end_reserve", doc["ess"].get("end_reserve", True))

    ev = None
    if doc.get("ev") is not None:
        _require_keys(
            "ev",
            doc["ev"],
            {*_STORAGE_KEYS, "arrival", "departure"},
            {"soe_init", "require_full_at_departure"},
        )
        # Arrival state of charge defaults to 80% of capacity.
        storage = _parse_storage(
            "ev", doc["ev"], soe_init_default=0.8 * _number("ev.soe_max", doc["ev"]["soe_max"])
        )
        ev = EVSpec(
            storage=storage,
            arrival=_count("ev.arrival", doc["ev"]["arrival"]),
            departure=_count("ev.departure", doc["ev"]["departure"]),
            require_full_at_departure=_flag(
                "ev.require_full_at_departure", doc["ev"].get("require_full_at_departure", True)
            ),
        )

    penalties = DEFAULT_PENALTIES
    if doc.get("penalties") is not None:
        _require_keys("penalties", doc["penalties"], set(_PENALTY_KEYS))
        penalties = tuple(
            _number(f"penalties.{key}", doc["penalties"][key]) for key in _PENALTY_KEYS
        )

    limits = {} if doc.get("limits") is None else doc["limits"]
    _require_keys("limits", limits, set(), set(_LIMIT_KEYS))
    big_m = tuple(
        None if limits.get(key, "auto") == "auto" else _number(f"limits.{key}", limits[key])
        for key in _LIMIT_KEYS
    )

    return Scenario(
        grid=grid,
        tariff=Tariff(buy, sell),
        non_deferrable=nd,
        appliances=tuple(appliances),
        ess=ess,
        ess_end_reserve=ess_end_reserve,
        ev=ev,
        pv_gen=pv,
        penalties=penalties,
        big_m=big_m,
    )


def load_scenario(path) -> Scenario:
    """Load a scenario from a YAML file."""
    path = Path(path)
    try:
        doc = yaml.load(path.read_bytes(), Loader=yaml.CSafeLoader)  # libyaml
    except yaml.YAMLError as exc:
        raise ScenarioError(f"{path}: YAML parse error: {exc}") from exc
    return parse_scenario(doc, base_dir=path.parent)


def scenario_to_mapping(sc: Scenario) -> dict:
    """Inverse of parse_scenario (series are written inline)."""
    doc: dict = {
        "schema": SCENARIO_SCHEMA,
        "grid": {"intervals": sc.grid.T, "interval_hours": sc.grid.dt},
        "tariff": {"buy": sc.tariff.buy.tolist(), "sell": sc.tariff.sell.tolist()},
        "non_deferrable": sc.non_deferrable.tolist(),
        "pv_gen": sc.pv_gen.tolist(),
        "appliances": [
            {"name": a.name, "adt_hours": a.adt_hours, "profile": a.profile.tolist()}
            for a in sc.appliances
        ],
        "penalties": dict(zip(_PENALTY_KEYS, sc.penalties)),
        "limits": {key: "auto" if cap is None else cap for key, cap in zip(_LIMIT_KEYS, sc.big_m)},
    }
    if sc.ess is not None:
        doc["ess"] = {**asdict(sc.ess), "end_reserve": sc.ess_end_reserve}
    if sc.ev is not None:
        doc["ev"] = {
            **asdict(sc.ev.storage),
            "arrival": sc.ev.arrival,
            "departure": sc.ev.departure,
            "require_full_at_departure": sc.ev.require_full_at_departure,
        }
    return doc


def save_scenario(sc: Scenario, path) -> None:
    with open(path, "w") as fh:
        yaml.safe_dump(scenario_to_mapping(sc), fh, sort_keys=False)


# ---------------------------------------------------------------------------
# case synthesis

def synth_case(case: str, dsm: bool, base: Scenario) -> Scenario:
    """Derive a study case from a fully-specified scenario.

    A keeps loads only, B adds PV, C adds the ESS, D adds the EV as well.
    dsm=False zeroes every acceptable delay time. Explicit limits carry over
    to every case; auto caps follow the case's own loads and devices.
    """
    case = case.upper()
    if case not in CASES:
        raise ScenarioError(f"case: expected one of {CASES}, got {case!r}")
    pv = base.pv_gen if case != "A" else np.zeros(base.grid.T)
    ess = base.ess if case in ("C", "D") else None
    ev = base.ev if case == "D" else None
    appliances = base.appliances
    if not dsm:
        appliances = tuple(replace(a, adt_hours=0.0) for a in appliances)
    return replace(base, pv_gen=pv, ess=ess, ev=ev, appliances=appliances)
