"""Identity suite: catalog integrity, full small-range pass, record shape,
failure payloads under a corrupted triangle, and the README catalog table."""

import hashlib
import json
import re
from contextlib import contextmanager
from pathlib import Path

import pytest

from lahbell import families, identities, triangles
from lahbell.identities import (
    _CATALOG,
    _ORACLES,
    CATALOG_IDS,
    ORACLE_IDS,
    IdentityRecord,
    oracle_records,
    run_suite,
)

EXPECTED_IDS = (
    "eq3",
    "eq4",
    "eq8",
    "eq9",
    "eq11-eq16",
    "eq17",
    "eq13",
    "eq14",
    "lemma1",
    "thm2",
    "thm3",
    "lemma4",
    "thm5",
    "thm6",
    "thm7",
    "thm8",
    "eq30",
    "thm9",
    "thm10",
    "eq37",
    "lemma11",
    "thm12",
    "eq44",
    "eq45-catalog",
    "eq47",
    "eq48-corrected",
    "eq49",
    "laguerre-conv",
)


def test_catalog_id_list_is_stable():
    assert CATALOG_IDS == EXPECTED_IDS
    assert len(set(CATALOG_IDS)) == len(CATALOG_IDS)


def test_full_suite_passes_at_small_range():
    records = run_suite("all", 8)
    assert [r.id for r in records] == list(EXPECTED_IDS)
    for record in records:
        assert record.passed(), f"{record.id} failed: {record.counterexample}"
        assert record.status == "pass"
        assert record.counterexample is None


def test_selection_preserves_catalog_order():
    records = run_suite(["thm3", "eq3", "lemma1"], 6)
    assert [r.id for r in records] == ["eq3", "lemma1", "thm3"]


def test_selection_runs_only_requested():
    records = run_suite(["eq17"], 10)
    assert len(records) == 1
    assert records[0].id == "eq17"
    assert records[0].passed()


def test_unknown_ids_rejected():
    with pytest.raises(ValueError):
        run_suite(["thm3", "nope"], 6)
    with pytest.raises(ValueError, match=r"unknown identity ids \['nope'\]"):
        run_suite(["all", "nope"], 6)
    with pytest.raises(ValueError):
        run_suite("all", 0)


def _refuse(cap):
    pytest.fail(f"a check ran at cap {cap!r}")


@pytest.mark.parametrize(
    "max_n, message",
    [
        (True, "max_n must be an int, got True"),
        (2.5, "max_n must be an int, got 2.5"),
        (0, "max_n must be at least 1"),
    ],
    ids=["bool", "float", "zero"],
)
def test_bad_max_n_is_rejected_before_any_check(monkeypatch, max_n, message):
    for name in ("_CATALOG", "_ORACLES"):
        entries = getattr(identities, name)
        monkeypatch.setattr(identities, name, tuple(e._replace(check=_refuse) for e in entries))
    with pytest.raises(ValueError, match=re.escape(message)):
        run_suite(["eq3"], max_n)
    with pytest.raises(ValueError, match=re.escape(message)):
        oracle_records(max_n)


# Every identities-level name that builds one family value from its index.
_FAMILY_BUILDERS = (
    "bell_number",
    "lah_bell_number",
    "bell_poly",
    "lah_bell_poly",
    "bivariate_bell_poly",
    "bivariate_lah_bell_poly",
    "degenerate_bell_poly",
    "degenerate_lah_bell_poly",
    "laguerre_poly",
)


def _record_builds(monkeypatch):
    calls = []
    for name in _FAMILY_BUILDERS:
        family = getattr(identities, name)
        monkeypatch.setattr(
            identities, name, lambda n, family=family, name=name: calls.append((name, n)) or family(n)
        )
    return calls


def _builds(names, indices):
    return sorted((name, n) for name in names for n in indices)


@pytest.mark.parametrize(
    "selection, max_n, expected",
    [
        pytest.param(
            ["thm12"], 12, _builds(("bivariate_bell_poly", "bivariate_lah_bell_poly"), range(13)),
            id="thm12",
        ),
        # laguerre-conv's default range stops at n = 10.
        pytest.param(
            ["laguerre-conv"], 12, _builds(("lah_bell_poly", "laguerre_poly"), range(11)),
            id="laguerre-conv",
        ),
        # One BL_n(x) serves the evaluations at every x in {1/2, 1, 3}.
        pytest.param(["thm6"], 12, _builds(("lah_bell_poly",), range(13)), id="thm6"),
        # Entries that need the same family share one build.
        pytest.param("all", 30, None, id="all"),
    ],
)
def test_each_family_value_is_built_once_per_run(monkeypatch, selection, max_n, expected):
    calls = _record_builds(monkeypatch)
    assert all(record.passed() for record in run_suite(selection, max_n))
    assert len(calls) == len(set(calls))
    if expected is not None:
        assert sorted(calls) == expected


def test_thm10_builds_each_lah_bell_polynomial_once(monkeypatch):
    # The derivative expansion takes BL_0..BL_{n-1} from the run memo instead
    # of rebuilding them below identities, where the memo does not reach.
    calls = []
    for module in (identities, families):
        build = module.lah_bell_poly
        monkeypatch.setattr(module, "lah_bell_poly", lambda n, build=build: calls.append(n) or build(n))
    assert all(record.passed() for record in run_suite(["thm10"], 20))
    assert sorted(calls) == list(range(21))


def test_record_json_shape():
    record = run_suite(["eq3"], 5)[0]
    payload = record.to_json()
    assert payload == {
        "id": "eq3",
        "anchor": "x^n = sum_{k=0..n} S2(n,k) (x)_k",
        "range": "n <= 5",
        "status": "pass",
    }
    assert isinstance(record, IdentityRecord)


def test_anchors_are_plain_ascii_math():
    for record in run_suite("all", 2):
        assert record.anchor
        assert record.anchor.isascii()


def test_range_respects_cap():
    records = {r.id: r for r in run_suite("all", 3)}
    assert records["eq3"].range == "n <= 3"


def _readme_catalog_rows():
    readme = (Path(__file__).resolve().parents[1] / "README.md").read_text(encoding="utf-8")
    section = readme.split("## Identity catalog", 1)[1].split("\n## ", 1)[0]
    rows = []
    for line in section.splitlines():
        # A literal "|" inside a cell is escaped as "\|".
        cells = [cell.strip() for cell in re.split(r"(?<!\\)\|", line.strip().strip("|"))]
        if len(cells) == 3 and cells[0].startswith("`"):
            rows.append(
                tuple(" ".join(cell.replace("`", "").replace("\\|", "|").split()) for cell in cells)
            )
    return rows


def test_readme_catalog_table_matches_the_catalog():
    # The catalog table, then the --oracle table, row for row.
    expected = [
        (entry.id, " ".join(entry.anchor.split()), entry.range_text(entry.default_max))
        for entry in _CATALOG + _ORACLES
    ]
    assert _readme_catalog_rows() == expected


def test_oracle_records_pass():
    records = oracle_records(5)
    assert [r.id for r in records] == list(ORACLE_IDS)
    for record in records:
        assert record.passed()


_SIDES = {"lhs", "rhs"}
_ENCLOSURE = {"enclosure", "exact"}


def _pin(n, sides=_SIDES, **labels):
    """Expected failure: smallest n, the other plain-valued keys, the key set."""
    pinned = {"n": str(n), **{key: str(value) for key, value in labels.items()}}
    return pinned, set(pinned) | sides


_FAULT_FAILURES = {
    "_LAH": {
        "eq11-eq16": _pin(4, k=2, form="product form"),
        "eq17": _pin(4, k=1),
        "eq13": _pin(4),
        "eq14": _pin(4),
        "lemma1": _pin(4),
        "thm2": _pin(4),
        "thm3": _pin(4, _ENCLOSURE),
        "lemma4": _pin(4),
        "thm5": _pin(4),
        "thm6": _pin(4, _ENCLOSURE, x="1/2"),
        "thm7": _pin(4),
        "thm8": _pin(4, k=2),
        "eq30": _pin(4, k=2),
        "thm9": _pin(3),
        "thm10": _pin(4),
        "lemma11": _pin(4),
        "thm12": _pin(4, direction="S1 route"),
        "eq44": _pin(4),
        "eq47": _pin(4),
        "eq48-corrected": _pin(4, part="coefficient sum"),
        "laguerre-conv": _pin(4, issue="x does not cancel"),
        "oracle-ordered-partitions": _pin(4),
    },
    "_S1": {
        "eq8": _pin(4),
        "eq9": _pin(4, k=2),
        "thm7": _pin(4),
        "eq30": _pin(4, k=1),
        "thm12": _pin(4, direction="S1 route"),
        "eq48-corrected": _pin(4, part="coefficient sum"),
        "oracle-permutation-cycles": _pin(4),
    },
    "_S2": {
        "eq3": _pin(4),
        "eq4": _pin(4, k=2),
        "thm2": _pin(4),
        "thm5": _pin(4),
        "thm7": _pin(4),
        "thm8": _pin(4, k=1),
        "eq30": _pin(4, k=2),
        "eq37": _pin(4),
        "thm12": _pin(4, direction="S1 route"),
        "eq45-catalog": _pin(4),
        "eq47": _pin(4),
        "eq48-corrected": _pin(4, part="coefficient sum"),
        "oracle-set-partitions": _pin(4),
    },
}


@contextmanager
def _one_entry_corrupted(monkeypatch, memo, n, k):
    # Rows past n are built first, so only the one corrupted entry is wrong.
    triangle = getattr(triangles, memo)
    triangle.row(20)
    rows = list(triangle._rows)
    bad = list(rows[n])
    bad[k] += 1
    rows[n] = tuple(bad)
    with monkeypatch.context() as patch:
        patch.setattr(triangle, "_rows", rows)
        yield


def _records_with_one_entry_corrupted(monkeypatch, memo, n, k):
    with _one_entry_corrupted(monkeypatch, memo, n, k):
        return run_suite("all", 8) + oracle_records(8)


def _failures_with_row_4_corrupted(monkeypatch, memo):
    records = _records_with_one_entry_corrupted(monkeypatch, memo, 4, 2)
    failures = {}
    for record in records:
        if record.passed():
            assert record.counterexample is None
            continue
        example = record.counterexample
        payload = record.to_json()
        assert payload["status"] == "fail"
        assert payload["counterexample"] == example
        if _SIDES <= set(example):
            assert example["lhs"] != example["rhs"]
        labels = {
            key: value for key, value in example.items() if key not in _SIDES | _ENCLOSURE
        }
        failures[record.id] = (labels, set(example))
    return failures


def test_failure_records_carry_counterexamples(monkeypatch):
    # One wrong entry in a built triangle memo (L, S1, S2 in turn): each check
    # that depends on it fails at the smallest n, with its usual payload keys.
    for memo, expected in _FAULT_FAILURES.items():
        assert _failures_with_row_4_corrupted(monkeypatch, memo) == expected, memo


def test_a_clean_run_leaves_no_values_behind(monkeypatch):
    # Values built from the clean triangle must not serve the corrupted run.
    assert all(record.passed() for record in run_suite("all", 8))
    assert identities._built.cache_info().currsize == 0
    assert _failures_with_row_4_corrupted(monkeypatch, "_LAH") == _FAULT_FAILURES["_LAH"]


def test_run_memo_is_emptied_when_a_check_raises(monkeypatch):
    def broken(n):
        assert identities._built.cache_info().currsize > 0
        raise RuntimeError("broken builder")

    monkeypatch.setattr(identities, "laguerre_poly", broken)
    with pytest.raises(RuntimeError, match="broken builder"):
        run_suite("all", 8)
    assert identities._built.cache_info().currsize == 0


@pytest.mark.parametrize(
    "identity, failing_n, expected",
    [
        ("thm9", 3, _builds(("lah_bell_poly",), range(5))),
        ("laguerre-conv", 4, _builds(("lah_bell_poly", "laguerre_poly"), range(5))),
    ],
    ids=["thm9", "laguerre-conv"],
)
def test_checks_build_nothing_past_their_first_mismatch(monkeypatch, identity, failing_n, expected):
    calls = _record_builds(monkeypatch)
    with _one_entry_corrupted(monkeypatch, "_LAH", 4, 2):
        (record,) = run_suite([identity], 8)
    assert record.counterexample["n"] == str(failing_n)
    assert sorted(calls) == expected


# sha256 of the canonical JSON of every record of run_suite("all", 8) +
# oracle_records(8), with entry (n, k) of one triangle memo raised by 1.  The
# digests pin every counterexample value (lhs/rhs, enclosure/exact), not only
# the labels and key sets checked above.
_FAULT_DIGESTS = {
    ("_LAH", 4, 2): "06db849488e8844a7599cca4697eb832688c0266ea9e070e9728f96d8d5907d1",
    ("_LAH", 3, 1): "4b80a9e63b845baa30ba1f56ff7f369a6b3485c97d88e48e39e2b63726fe5f2c",
    ("_LAH", 6, 3): "e29a15e71f5c21b88725b8686dc6d798076d1124b79ee2bde4dda9b4ca6da81f",
    ("_S1", 4, 2): "724ac11530e9ebe037965c5d60a677db29b8312c79e938efae60358d1b8318e0",
    ("_S1", 3, 1): "812a786dcdb7cae72dcd0f230ef078c73ec36c76e4ee14334749f0b8b9b7ec7e",
    ("_S1", 6, 3): "bb40b69667c7e85f0b5250fa4ce424b1037641ee2a92d9449edaa7ab1251125f",
    ("_S2", 4, 2): "bcfa97be9d5073d9dc9348f5d6ade5c43fbfc6c6c13b8985dd93442fa9e976c3",
    ("_S2", 3, 1): "8b5a682afa83c24df8e0ced59642fa6af92b136bcdff5a95597c9131004ea1c1",
    ("_S2", 6, 3): "68e4b5eb5b8ed289b15603dda1fc3f20b6cc4d47762ed17a1f42cdb9231539d4",
}


@pytest.mark.parametrize("memo, n, k", sorted(_FAULT_DIGESTS))
def test_fault_records_are_byte_stable(monkeypatch, memo, n, k):
    records = _records_with_one_entry_corrupted(monkeypatch, memo, n, k)
    payload = json.dumps([r.to_json() for r in records], sort_keys=True, separators=(",", ":"))
    assert hashlib.sha256(payload.encode()).hexdigest() == _FAULT_DIGESTS[memo, n, k]


def test_failing_record_repr_is_stable(monkeypatch):
    # Recorded when the record was a frozen dataclass.
    records = _records_with_one_entry_corrupted(monkeypatch, "_LAH", 4, 2)
    (eq17,) = [record for record in records if record.id == "eq17"]
    assert repr(eq17) == (
        "IdentityRecord(id='eq17', anchor='L(n,k+1) k(k+1) = (n-k) L(n,k)', "
        "range='1 <= k < n <= 8', status='fail', "
        "counterexample={'n': '4', 'k': '1', 'lhs': '74', 'rhs': '72'})"
    )


def test_record_construction_equality_and_immutability():
    positional = IdentityRecord("eq3", "anchor", "n <= 4", "pass")
    keyword = IdentityRecord(id="eq3", anchor="anchor", range="n <= 4", status="pass")
    assert positional == keyword
    assert hash(positional) == hash(keyword)
    assert positional.counterexample is None
    failing = IdentityRecord("eq3", "anchor", "n <= 4", "fail", {"n": "4"})
    assert failing == IdentityRecord(
        id="eq3", anchor="anchor", range="n <= 4", status="fail", counterexample={"n": "4"}
    )
    with pytest.raises(AttributeError):
        positional.status = "fail"
    with pytest.raises(AttributeError):
        positional.extra = 1


def test_catalog_entry_fields():
    entry = _CATALOG[0]
    assert repr(entry).startswith(
        "_Entry(id='eq3', anchor='x^n = sum_{k=0..n} S2(n,k) (x)_k', default_max=20, check=<function "
    )
    assert repr(entry).endswith(", range_template='n <= {cap}')")
    assert entry.range_text(7) == "n <= 7"
    with pytest.raises(AttributeError):
        entry.default_max = 1
