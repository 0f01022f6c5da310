"""The household generator is a pure function of the workload seed."""

import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from hems.scenario import load_scenario, save_scenario  # noqa: E402

from households import REFERENCE_MEMBERS, HouseholdStream, write_document  # noqa: E402

REFERENCES = ("reference_hourly.yaml", "reference_halfhour.yaml")


def documents(reference: str, seed: int, dsm: bool, out: Path, count: int = 12) -> list[bytes]:
    out.mkdir()
    stream = HouseholdStream(ROOT / "scenarios" / reference, seed, dsm)
    docs = []
    for index in range(count):
        path = out / f"household_{index}.yaml"
        write_document(stream.member(index), path)
        docs.append(path.read_bytes())
    return docs


@pytest.mark.parametrize("reference", REFERENCES)
@pytest.mark.parametrize("dsm", (False, True))
def test_one_seed_gives_byte_identical_documents(tmp_path, reference, dsm):
    first = documents(reference, 7, dsm, tmp_path / "first")
    second = documents(reference, 7, dsm, tmp_path / "second")
    assert first == second


@pytest.mark.parametrize("reference", REFERENCES)
def test_two_seeds_differ_only_after_the_reference_members(tmp_path, reference):
    a = documents(reference, 7, True, tmp_path / "a")
    b = documents(reference, 8, True, tmp_path / "b")
    assert a[:REFERENCE_MEMBERS] == b[:REFERENCE_MEMBERS]
    assert all(x != y for x, y in zip(a[REFERENCE_MEMBERS:], b[REFERENCE_MEMBERS:]))


def test_reference_members_are_the_unperturbed_reference(tmp_path):
    reference = load_scenario(ROOT / "scenarios" / "reference_hourly.yaml")
    save_scenario(reference, tmp_path / "reference.yaml")
    docs = documents("reference_hourly.yaml", 7, True, tmp_path / "docs", REFERENCE_MEMBERS)
    assert set(docs) == {(tmp_path / "reference.yaml").read_bytes()}


def test_documents_load_back_as_generated(tmp_path):
    stream = HouseholdStream(ROOT / "scenarios" / "reference_hourly.yaml", 7, True)
    household = stream.member(REFERENCE_MEMBERS + 1)
    write_document(household, tmp_path / "household.yaml")
    assert load_scenario(tmp_path / "household.yaml") == household.base
