"""Instance files, the generator, and the command-line interface."""

from __future__ import annotations

import gc
import hashlib
import itertools
import json
import os
import random
import re
import subprocess
import sys
import time
from dataclasses import replace
from pathlib import Path

import pytest

import reservematch as rm
from reservematch import cli
from reservematch.cli import main
from reservematch._engine import Compiled
from reservematch.choice import _table_report
from reservematch.fileio import (
    _load_market,
    _market_from_document,
    contract_id,
    instance_from_document,
    instance_to_document,
)
from reservematch.generator import SCHEME_FAMILIES, _flexibility_draw, _unit_tables
from reservematch.instance import FlatMarket

from helpers import (
    count_builds,
    preference_space_size,
    reference_contract_of,
    reference_convert_mismatch,
    reference_cop,
    reference_flexibility_draw,
    reference_group_misreport,
)

SRC = Path(__file__).resolve().parent.parent / "src"


# ----------------------------------------------------------------------
# files


def test_bundled_worked_example_loads_exactly(ex1):
    assert len(ex1.contracts) == 6
    assert ex1.students == ("i", "j", "k", "l")
    assert ex1.profile.types == ("t1", "t2", "t3")
    cfg = ex1.schools[0]
    assert cfg.capacity == 2
    assert cfg.precedence == ("t1", "t2", "t3")
    assert cfg.targets == (1, 1, 0)
    assert cfg.scheme == rm.ForwardSumScheme(((), (), (0, 1)))
    assert cfg.priority.ranked == ("i", "j", "k", "l")
    assert ex1.preferences["k"].ranked == (
        rm.Contract("k", "s", "t2"),
        rm.Contract("k", "s", "t3"),
    )


def test_save_load_round_trip_is_identity(ex1, tmp_path):
    path = tmp_path / "copy.instance"
    rm.save_instance(ex1, path)
    again = rm.load_instance(path)
    assert again == ex1
    # canonical form is a fixed point byte for byte
    second = tmp_path / "copy2.instance"
    rm.save_instance(again, second)
    assert path.read_bytes() == second.read_bytes()


def test_generated_instances_round_trip(tmp_path):
    for k in range(10):
        instance = rm.generate_random_instance(
            rm.GeneratorParams(students=4, schools=2, types=3, seed=800 + k)
        )
        path = tmp_path / f"gen{k}.instance"
        rm.save_instance(instance, path)
        assert rm.load_instance(path) == instance


def _document_digest(instance) -> str:
    doc = rm.fileio.instance_to_document(instance)
    text = json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n"
    return hashlib.sha256(text.encode()).hexdigest()


def test_instance_documents_keep_their_bytes(ex1):
    # digests of the canonical documents, pinned when contracts became named
    # tuples; contract order and ids must not move
    params = rm.GeneratorParams(
        students=60, schools=6, types=3, seed=5, capacity_range=(2, 4), scheme_family="mixed"
    )
    assert _document_digest(ex1) == (
        "61a8d6c0ec993d6d99cbd62f42c39675589c0268660b0b41d0c84ecfce46ff7f"
    )
    assert _document_digest(rm.generate_random_instance(params)) == (
        "686c29319a1220bf645646c528dfe047184adf6aaad2ab068ca3ebb29f8a84a8"
    )


def test_duplicate_contract_id_is_a_parse_error(tmp_path):
    doc = json.loads(rm.ex1_path().read_text())
    doc["contracts"].append(dict(doc["contracts"][0]))
    path = tmp_path / "dup.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(rm.InstanceFormatError) as err:
        rm.load_instance(path)
    assert "x1" in str(err.value)


# One fault each in ex1's contract rows, and the message that names it.
MALFORMED_CONTRACT_ROWS = [
    pytest.param(
        lambda rows: rows.__setitem__(2, ["x1"]), "contracts[2]: expected an object",
        id="not-an-object",
    ),
    pytest.param(
        lambda rows: rows[2].pop("id"), "contracts[2]: missing field 'id'", id="missing-id"
    ),
    pytest.param(
        lambda rows: rows[2].__setitem__("id", 7),
        "contracts[2].id: field 'id' has the wrong type",
        id="int-id",
    ),
    pytest.param(
        lambda rows: rows[2].__setitem__("student", True),
        "contracts[2].student: field 'student' has the wrong type",
        id="bool-student",
    ),
    pytest.param(
        lambda rows: rows[2].__setitem__("school", None),
        "contracts[2].school: field 'school' has the wrong type",
        id="null-school",
    ),
    pytest.param(
        lambda rows: rows[2].pop("type"), "contracts[2]: missing field 'type'", id="missing-type"
    ),
    pytest.param(
        lambda rows: rows.append(dict(rows[0])),
        "contracts[6]: duplicate contract id 'x1'",
        id="duplicate-id",
    ),
    pytest.param(
        lambda rows: rows.append(dict(rows[0], id="again")),
        "contracts[6]: duplicate contract <i@s:t1>",
        id="duplicate-triple",
    ),
]


@pytest.mark.parametrize("edit, message", MALFORMED_CONTRACT_ROWS)
def test_malformed_contract_rows_name_their_fault_and_location(edit, message):
    # messages as the field-by-field reader gave them before rows were
    # read in one pass
    doc = json.loads(rm.ex1_path().read_text())
    edit(doc["contracts"])
    with pytest.raises(rm.InstanceFormatError) as err:
        instance_from_document(doc)
    assert str(err.value) == message
    assert err.value.location == message.split(": ", 1)[0]


@pytest.mark.parametrize("edit, message", MALFORMED_CONTRACT_ROWS)
def test_cli_match_names_a_malformed_contract_row(capsys, tmp_path, edit, message):
    # match parses the file to flat form without load_instance, and names
    # the same fault with the same location
    doc = json.loads(rm.ex1_path().read_text())
    edit(doc["contracts"])
    path = tmp_path / "malformed.instance"
    path.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "match", str(path))
    assert (code, out, err) == (2, "", f"error: {message}\n")


def test_contract_violations_are_reported_in_contract_order_under_every_hash_seed(tmp_path):
    # four contracts of a type no one can claim; the error line must not
    # depend on the string hash seed
    doc = json.loads(rm.ex1_path().read_text())
    for s in ("l", "k", "j", "i"):
        doc["contracts"].append({"id": f"{s}9", "student": s, "school": "s", "type": "t9"})
    path = tmp_path / "t9.instance"
    path.write_text(json.dumps(doc))
    runs = [
        subprocess.run(
            [sys.executable, "-m", "reservematch.cli", "match", str(path)],
            capture_output=True,
            env={**os.environ, "PYTHONPATH": str(SRC), "PYTHONHASHSEED": seed},
            timeout=120,
        )
        for seed in ("0", "1")
    ]
    assert [run.returncode for run in runs] == [2, 2]
    assert runs[0].stderr == runs[1].stderr
    faults = [f"{path}: contract <{s}@s:t9>: unknown privilege type" for s in "ijkl"]
    assert runs[0].stderr.decode() == f"error: {'; '.join(faults)}\n"


def _two_school_document(second: str) -> dict:
    """Students ``a`` and ``second``, schools ``b@c`` and ``c``, one type
    ``d``; ``a`` lists its contract at ``b@c``, and ``second`` lists none."""
    school = {
        "capacity": 1, "priority": ["a", second], "groups": [{"type": "d", "target": 1}],
        "transfers": {"kind": "forward_sum", "donors": [[]]},
    }
    return {
        "schema": "reservematch/1",
        "types": ["d"],
        "students": [{"id": "a", "types": ["d"]}, {"id": second, "types": ["d"]}],
        "schools": [{"id": "b@c", **school}, {"id": "c", **school}],
        "contracts": [
            {"id": "x", "student": "a", "school": "b@c", "type": "d"},
            {"id": "y", "student": second, "school": "c", "type": "d"},
        ],
        "preferences": {"a": ["x"], second: []},
    }


def test_two_contracts_with_one_canonical_id_are_refused(capsys, tmp_path):
    # (a, b@c, d) and (a@b, c, d) are both a@b@c:d, the id an allocation
    # file names a contract by, so no allocation file could tell them apart
    path, alloc = tmp_path / "collide.instance", tmp_path / "collide.allocation"
    path.write_text(json.dumps(_two_school_document("a@b")))
    alloc.write_text(json.dumps({"schema": "reservematch-allocation/1", "contracts": ["a@b@c:d"]}))
    fault = "contracts ('a', 'b@c', 'd') and ('a@b', 'c', 'd') share the id 'a@b@c:d'"
    assert rm.validate_instance(instance_from_document(_two_school_document("a@b"))) == [fault]
    for argv in (["match", str(path)], ["verify", str(path), "--allocation", str(alloc)]):
        assert run_cli(capsys, *argv) == (2, "", f"error: {path}: {fault}\n")
    # an "@" in a student id alone makes no two ids equal; such ids do not
    # split back at their first "@", and `verify` still resolves them
    path.write_text(json.dumps(_two_school_document("a@e")))
    assert run_cli(capsys, "match", str(path))[0] == 0
    ids = ["a@b@c:d", "a@e@c:d"]
    alloc.write_text(json.dumps({"schema": "reservematch-allocation/1", "contracts": ids}))
    code, out, _ = run_cli(capsys, "verify", str(path), "--allocation", str(alloc), "--format", "machine")
    report = json.loads(out)
    assert code == 1 and report["allocation"] == ids
    assert report["unacceptable_assignments"] == ["a@e@c:d"]


def test_duplicate_triple_is_a_parse_error(tmp_path):
    doc = json.loads(rm.ex1_path().read_text())
    row = dict(doc["contracts"][0])
    row["id"] = "x1bis"
    doc["contracts"].append(row)
    path = tmp_path / "dup2.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(rm.InstanceFormatError):
        rm.load_instance(path)


def test_schema_version_is_enforced(tmp_path):
    doc = json.loads(rm.ex1_path().read_text())
    doc["schema"] = "reservematch/99"
    path = tmp_path / "future.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(rm.InstanceFormatError) as err:
        rm.load_instance(path)
    assert "schema" in str(err.value)


def test_json_syntax_errors_carry_a_location(tmp_path):
    path = tmp_path / "broken.instance"
    path.write_text('{"schema": "reservematch/1",')
    with pytest.raises(rm.InstanceFormatError) as err:
        rm.load_instance(path)
    assert "line" in str(err.value)


def test_validation_failures_surface_at_load(tmp_path):
    doc = json.loads(rm.ex1_path().read_text())
    doc["schools"][0]["groups"][0]["target"] = 5  # targets no longer sum to capacity
    path = tmp_path / "invalid.instance"
    path.write_text(json.dumps(doc))
    with pytest.raises(rm.ValidationError):
        rm.load_instance(path)
    assert instance_from_document(doc) is not None  # parsing alone does not validate


# One fault each in ex1's transfer scheme, as the scheme's own check words
# it, and the location the loader adds.
BAD_SCHEMES = [
    pytest.param(
        {"kind": "forward_sum", "donors": [[1], [], [0, 1]]},
        "schools[0].transfers.donors: the first group of slots cannot receive transfers",
        id="donor-to-first-group",
    ),
    pytest.param(
        {"kind": "forward_sum", "donors": [[], [5], [0, 1]]},
        "schools[0].transfers.donors: group 1: donors (5,) must be earlier groups",
        id="later-donor",
    ),
    pytest.param(
        {"kind": "table", "entries": [{"group": 1, "residuals": [0, 0], "capacity": 1}]},
        "schools[0].transfers.entries: group 1: residual vector (0, 0) must have length 1",
        id="residuals-too-long",
    ),
    pytest.param(
        {"kind": "table", "entries": [{"group": 1, "residuals": [0], "capacity": -5}]},
        "schools[0].transfers.entries: group 1: negative entry in (0,) -> -5",
        id="negative-capacity",
    ),
]


@pytest.mark.parametrize("transfers, message", BAD_SCHEMES)
def test_scheme_faults_name_their_school_and_path(capsys, tmp_path, transfers, message):
    doc = json.loads(rm.ex1_path().read_text())
    doc["schools"][0]["transfers"] = transfers
    with pytest.raises(rm.InstanceFormatError) as err:
        instance_from_document(doc)
    assert str(err.value) == message
    assert err.value.location == message.split(": ", 1)[0]
    path = tmp_path / "scheme.instance"
    path.write_text(json.dumps(doc))
    assert run_cli(capsys, "match", str(path)) == (2, "", f"error: {message}\n")


def test_loading_a_market_starts_no_garbage_collection(tmp_path):
    # the document holds no cycle, so the loader pauses the collector; a
    # young collection during the parse would only re-scan the live document
    path = tmp_path / "market.instance"
    params = rm.GeneratorParams(students=200, schools=10, types=3, seed=1)
    rm.save_instance(rm.generate_random_instance(params), path)
    assert gc.isenabled()
    starts = []

    def record(phase, info):
        if phase == "start":
            starts.append(info["generation"])

    gc.callbacks.append(record)
    try:
        _load_market(path)
    finally:
        gc.callbacks.remove(record)
    assert starts == []
    assert gc.isenabled()


# An ex1 document that loads, one that fails to parse, and one that fails
# validation (its targets no longer sum to the capacity).
LOAD_OUTCOMES = [
    pytest.param(None, lambda doc: None, id="loads"),
    pytest.param(rm.InstanceFormatError, lambda doc: doc.update(schema="x"), id="malformed"),
    pytest.param(
        rm.ValidationError, lambda doc: doc["schools"][0]["groups"][0].update(target=5),
        id="invalid",
    ),
]


@pytest.mark.parametrize("enabled", [True, False], ids=["collector-on", "collector-off"])
@pytest.mark.parametrize("error, edit", LOAD_OUTCOMES)
def test_loading_leaves_the_collector_as_the_caller_had_it(tmp_path, enabled, error, edit):
    doc = json.loads(rm.ex1_path().read_text())
    edit(doc)
    path = tmp_path / "market.instance"
    path.write_text(json.dumps(doc))
    (gc.enable if enabled else gc.disable)()
    try:
        if error is None:
            _load_market(path)
        else:
            with pytest.raises(error):
                _load_market(path)
        assert gc.isenabled() is enabled
    finally:
        gc.enable()


def engine_tables(compiled: Compiled) -> tuple:
    """Everything a fresh compile holds, each school's slots included."""
    schools = [
        {slot: getattr(school, slot) for slot in type(school).__slots__}
        for school in compiled.schools
    ]
    return (
        compiled.contracts, compiled.student_bit, compiled.student_contracts,
        compiled.school_of, compiled.local_bit, compiled.acceptable, schools,
    )


def test_a_document_compiles_straight_to_the_engine_of_its_instance(small_instances):
    # the loader's flat form and Compiled.from_instance of the parsed
    # instance give equal engines, and so equal runs of the process
    docs = [json.loads(rm.ex1_path().read_text())]
    docs += [instance_to_document(instance) for instance in small_instances]
    for family in ("forward_sum", "table"):
        params = rm.GeneratorParams(200, 10, 3, seed=1, scheme_family=family)
        docs.append(instance_to_document(rm.generate_random_instance(params)))
    for n, doc in enumerate(docs):
        if n % 2:  # rows out of contract order are sorted into it
            doc["contracts"].reverse()
        direct = Compiled(_market_from_document(doc))
        via = Compiled.from_instance(instance_from_document(doc))
        assert engine_tables(direct) == engine_tables(via)
        assert direct.cop(direct.default_order_rank()) == via.cop(via.default_order_rank())
    assert isinstance(direct.schools[0].scheme, rm.TableScheme)


def test_a_student_the_preferences_leave_out_ranks_nothing(ex1, monkeypatch):
    # one order per student, built from the flat form: the empty one only
    # for the student left out
    doc = json.loads(rm.ex1_path().read_text())
    del doc["preferences"]["k"]
    built = []

    def counting(student, ranked):
        built.append(student)
        return rm.PreferenceOrder(student, ranked)

    monkeypatch.setattr(rm.instance, "PreferenceOrder", counting)
    instance = instance_from_document(doc)
    assert sorted(built) == ["i", "j", "k", "l"]
    assert instance.preferences["k"] == rm.PreferenceOrder("k", ())
    assert {s: instance.preferences[s] for s in "ijl"} == {s: ex1.preferences[s] for s in "ijl"}
    assert rm.validate_instance(instance) == []


def test_allocation_files_round_trip(ex1, tmp_path):
    allocation = rm.run_cop_default(ex1)
    path = tmp_path / "out.allocation"
    rm.save_allocation(allocation, path)
    assert rm.load_allocation(path, ex1) == allocation


def test_an_allocation_listing_a_contract_twice_is_refused(capsys, tmp_path, ex1):
    path = tmp_path / "twice.allocation"
    doc = {"schema": "reservematch-allocation/1", "contracts": ["i@s:t1", "j@s:t2", "i@s:t1"]}
    path.write_text(json.dumps(doc))
    with pytest.raises(rm.InstanceFormatError, match=r"contracts\[2\]"):
        rm.load_allocation(path, ex1)
    code, out, err = run_cli(capsys, "verify", str(rm.ex1_path()), "--allocation", str(path))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "duplicate contract id 'i@s:t1'" in line


def _relabelled(instance, student="", school="", privilege=""):
    """``instance`` with a suffix on every student id, school id and type.
    Generated labels are a letter and digits, so a whole-word rewrite of the
    document renames each everywhere it appears."""
    text = json.dumps(instance_to_document(instance))
    for letter, suffix in (("i", student), ("s", school), ("t", privilege)):
        text = re.sub(rf"\b({letter}\d+)\b", rf"\g<1>{suffix}", text)
    relabelled = instance_from_document(json.loads(text))
    assert rm.validate_instance(relabelled) == []
    return relabelled


def _resolver_markets(small_instances):
    yield rm.load_instance(rm.ex1_path())
    yield from small_instances
    yield rm.generate_random_instance(
        rm.GeneratorParams(students=200, schools=10, types=3, seed=1)
    )
    # ids that the first "@" and the first ":" after it do not cut back
    for instance in small_instances[:20]:
        yield _relabelled(instance, student="@a")
        yield _relabelled(instance, school=":b")
        yield _relabelled(instance, privilege=":c")
        yield _relabelled(instance, student="@d:e", school=":f@g", privilege="@h:i")


def test_allocation_ids_resolve_as_the_id_maps_did(capsys, monkeypatch, tmp_path, small_instances):
    # every contract id of each market, read by `verify` and by
    # `load_allocation`, names the contract the id maps named
    resolved = []

    def recording(*args, _read=rm.fileio._read_allocation):
        resolved.append(_read(*args))
        return resolved[-1]

    monkeypatch.setattr(rm.fileio, "_read_allocation", recording)
    monkeypatch.setattr(cli, "_read_allocation", recording)
    path, alloc = tmp_path / "market.instance", tmp_path / "market.allocation"
    markets = 0
    for market in _resolver_markets(small_instances):
        markets += 1
        rm.save_instance(market, path)
        ids = sorted(map(contract_id, market.contracts))
        want = tuple(reference_contract_of(cid, market) for cid in ids)
        assert None not in want and len(set(want)) == len(ids)
        alloc.write_text(json.dumps({"schema": "reservematch-allocation/1", "contracts": ids}))
        resolved.clear()
        assert rm.load_allocation(alloc, market) == market.contracts
        run_cli(capsys, "verify", str(path), "--allocation", str(alloc))
        assert resolved == [want, want], ids[0]
        # near misses of an id name no contract, on either path
        cid = ids[0]
        for miss in (cid + "@", cid + ":", cid.replace("@", ":", 1), cid[cid.index("@") + 1:]):
            assert reference_contract_of(miss, market) is None
            alloc.write_text(json.dumps({"schema": "reservematch-allocation/1", "contracts": [miss]}))
            fault = f"contracts[0]: unknown contract id {miss!r}"
            with pytest.raises(rm.InstanceFormatError) as err:
                rm.load_allocation(alloc, market)
            assert str(err.value) == fault
            got = run_cli(capsys, "verify", str(path), "--allocation", str(alloc))
            assert got == (2, "", f"error: {fault}\n")
    assert markets == 1 + 200 + 1 + 80


def test_slot_market_files_round_trip(tmp_path):
    school = rm.generate_slot_specific_school(42)
    prefs = {
        s: rm.PreferenceOrder(s, tuple(sorted(c for c in school.contracts if c.student == s)))
        for s in {c.student for c in school.contracts}
    }
    path = tmp_path / "slots.json"
    rm.save_slot_market(school, prefs, path)
    again, again_prefs = rm.load_slot_market(path)
    assert again == school
    assert again_prefs == prefs


# ----------------------------------------------------------------------
# generator


def test_generation_is_deterministic_in_the_seed():
    params = rm.GeneratorParams(students=5, schools=2, types=3, seed=1)
    assert rm.generate_random_instance(params) == rm.generate_random_instance(params)


def test_minimal_parameters_generate_a_valid_instance():
    instance = rm.generate_random_instance(
        rm.GeneratorParams(students=1, schools=1, types=1, seed=9)
    )
    assert rm.validate_instance(instance) == []
    assert len(instance.students) == 1


def test_generator_self_test_over_a_thousand_seeds():
    families = ("forward_sum", "table", "constant", "mixed")
    for k in range(1000):
        params = rm.GeneratorParams(
            students=2 + k % 4,
            schools=1 + k % 2,
            types=1 + k % 3,
            seed=k,
            claim_range=(1, 2),
            scheme_family=families[k % 4],
        )
        instance = rm.generate_random_instance(params)
        assert rm.validate_instance(instance) == []
        for cfg in instance.schools:
            assert (
                cfg.scheme.certified_monotone()
                or rm.check_monotonic(cfg.scheme, cfg.targets, cfg.capacity).ok
            )


def test_the_flexibility_draw_picks_what_the_looped_draw_picked():
    # the looped draw re-checked every table and took the first that passed;
    # every table passes, so the draw takes the first pick of each shuffle
    drawn = 0
    for k in range(600):
        seed = 9100 + k
        rng = random.Random(seed)
        params = rm.GeneratorParams(
            students=rng.randint(2, 6),
            schools=rng.randint(1, 3),
            types=rng.randint(1, 4),
            seed=seed,
            capacity_range=(1, 4),
            scheme_family=SCHEME_FAMILIES[k % len(SCHEME_FAMILIES)],
        )
        instance = rm.generate_random_instance(params)
        draw = _flexibility_draw(instance, seed)
        assert draw == reference_flexibility_draw(instance, seed), seed
        drawn += draw is not None
    assert drawn >= 500


def test_every_unit_table_pair_is_monotone():
    # the draw checks none of the tables it builds: each rigid table (one per
    # receiver) and each flexible table (one per donor) on this grid must
    # pass the whole check, and the two must differ by one seat at one vector
    checked = 0
    for groups in (2, 3, 4):
        for targets, bound in itertools.product(
            itertools.product(range(3), repeat=groups), range(1, 5)
        ):
            for receiver in range(1, groups):
                for donor in range(receiver):
                    rigid, flexible = _unit_tables(targets, bound, receiver, donor)
                    bump = tuple(int(i == donor) for i in range(receiver))
                    assert [vec for vec in rigid if flexible[vec] != rigid[vec]] == [bump]
                    assert flexible[bump] == rigid[bump] + 1
                    assert _table_report(flexible, bound).ok, (targets, bound, receiver, donor)
                    checked += 1
                assert _table_report(rigid, bound).ok, (targets, bound, receiver)
                checked += 1
    assert checked == 3528


def test_the_flexibility_draw_refuses_an_oversize_school_before_building(capsys, tmp_path):
    # 28 seats in 5 groups under a certified chain: the file needs no
    # monotonicity check, but one check of a drawn table scheme would take
    # 2 803 864 steps, over the comparisons' cap of 2 000 000
    doc = json.loads(rm.ex1_path().read_text())
    types = ["t1", "t2", "t3", "t4", "t5"]
    doc["types"] = types
    doc["students"] = [{"id": s, "types": types} for s in "ijkl"]
    doc["schools"][0].update(
        capacity=28,
        groups=[{"type": t, "target": q} for t, q in zip(types, (6, 6, 6, 5, 5))],
        transfers={"kind": "forward_sum", "donors": [[], [0], [1], [2], [3]]},
    )
    path = tmp_path / "oversize.instance"
    path.write_text(json.dumps(doc))
    instance = rm.load_instance(path)
    with pytest.raises(rm.SearchCapExceededError, match="2803864 cases"):
        rm.unit_flexibility_pair(instance, 0)
    code, out, err = run_cli(capsys, "audit", str(path), "--format", "machine")
    assert (code, err) == (3, "")
    report = json.loads(out)
    [row] = report["results"]
    assert row["flexibility_pareto"] is None and row["ok"] is True
    assert report["unverified"]["flexibility_pareto"] == 1


def test_generator_rejects_bad_parameters():
    with pytest.raises(rm.InvalidInputError):
        rm.GeneratorParams(students=0, schools=1, types=1, seed=1)
    with pytest.raises(rm.InvalidInputError):
        rm.GeneratorParams(students=1, schools=1, types=1, seed=1, scheme_family="magic")
    # ranges no draw can come from: empty, or holding a negative capacity or
    # a student with no type
    for ranges in (
        {"capacity_range": (3, 1)},
        {"capacity_range": (-1, -1)},
        {"claim_range": (2, 1)},
        {"claim_range": (0, 0)},
    ):
        with pytest.raises(rm.InvalidInputError, match="range"):
            rm.GeneratorParams(students=1, schools=1, types=1, seed=1, **ranges)
    for ranges in ({"capacity_range": (0, 0)}, {"claim_range": (1, 1)}):
        params = rm.GeneratorParams(students=2, schools=1, types=2, seed=1, **ranges)
        assert rm.validate_instance(rm.generate_random_instance(params)) == []


def test_a_table_draw_past_the_step_cap_refuses_before_it_builds(capsys, tmp_path):
    # ten types: a drawn school's table scheme would span 10 136 235 unit
    # steps, so the draw refuses where that table would be built
    params = rm.GeneratorParams(students=4, schools=2, types=10, seed=2, scheme_family="table")
    with pytest.raises(rm.SearchCapExceededError) as refused:
        rm.generate_random_instance(params)
    assert (refused.value.needed, refused.value.cap) == (10_136_235, 2_000_000)
    out_dir = tmp_path / "wide"
    started = time.perf_counter()
    code, out, err = run_cli(
        capsys, "gen", "--out-dir", str(out_dir), "--seed", "2", "--types", "10",
        "--scheme-family", "table",
    )
    assert time.perf_counter() - started < 2
    assert (code, out) == (3, "")
    assert err == (
        "error: monotonicity step enumeration: 10136235 cases exceed the cap of 2000000\n"
    )
    assert list(out_dir.iterdir()) == []


# ----------------------------------------------------------------------
# command line


def run_cli(capsys, *argv):
    code = main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def test_cli_match_reports_the_worked_example(capsys, tmp_path):
    out_path = tmp_path / "report.json"
    code, out, _ = run_cli(
        capsys, "match", str(rm.ex1_path()), "--out", str(out_path)
    )
    assert code == 0
    assert "matched 2 of 4" in out
    report = json.loads(out_path.read_text())
    assert report["allocation"] == ["i@s:t1", "j@s:t2"]


def test_cli_match_transcript_is_the_oracles_on_a_60_student_market(capsys, tmp_path):
    params = rm.GeneratorParams(
        students=60, schools=6, types=3, seed=5, capacity_range=(2, 4), scheme_family="mixed"
    )
    instance = rm.generate_random_instance(params)
    path = tmp_path / "market.instance"
    rm.save_instance(instance, path)
    code, out, _ = run_cli(capsys, "match", str(path), "--transcript", "--format", "machine")
    assert code == 0

    def cid(c):
        return f"{c.student}@{c.school}:{c.privilege}"

    order = rm.default_proposal_order(instance)
    held, steps = reference_cop(instance.students, instance.schools, instance.preferences, order)
    assert len(steps) > 100
    expected = {
        "command": "match",
        "instance": str(path),
        "allocation": sorted(cid(c) for c in held),
        "matched": len(held),
        "students": 60,
        "transcript": [
            {
                "step": n,
                "proposed": cid(proposed),
                "held": {
                    cfg.school: sorted(cid(c) for c in cs)
                    for cfg, cs in zip(instance.schools, by_school)
                    if cs
                },
            }
            for n, (proposed, _, by_school) in enumerate(steps, start=1)
        ],
    }
    assert out == json.dumps(expected, indent=2, sort_keys=True, ensure_ascii=False) + "\n"


@pytest.mark.parametrize("extra", [(), ("--transcript",)])
def test_cli_match_validates_and_compiles_once(capsys, monkeypatch, extra):
    # the file is validated and compiled in flat form, once each; a
    # transcript step prints the proposal and the held contracts, so the
    # proposable sets of run_cop's transcript are never built
    calls = count_builds(monkeypatch)
    calls["proposable"] = 0
    proposable = rm._engine.Compiled.proposable

    def counting_proposable(self, *args):
        calls["proposable"] += 1
        return proposable(self, *args)

    monkeypatch.setattr(rm._engine.Compiled, "proposable", counting_proposable)
    code, out, _ = run_cli(capsys, "match", str(rm.ex1_path()), *extra)
    assert code == 0 and "matched 2 of 4" in out
    assert calls == {"validate": 1, "compile": 1, "proposable": 0}


def test_cli_audit_validates_compiles_and_runs_within_its_budget(capsys, monkeypatch):
    # Per instance: the generator's validation and one compile. The compile
    # serves stability and both tables of every school; the improvement and
    # flexibility checks run their changed markets as clones of it, and the
    # flexibility check validates only its two drawn schemes. One truthful
    # run serves order independence, every misreport search and the
    # improvement check, which runs only the lifted market. Every school's
    # completion axioms hold on these markets, so each student's search runs
    # one report per contract they prefer to their outcome.
    calls = count_builds(monkeypatch)
    calls["cop"] = 0
    cop = rm._engine.Compiled.cop

    def counting_cop(self, *args, **kwargs):
        calls["cop"] += 1
        return cop(self, *args, **kwargs)

    monkeypatch.setattr(rm._engine.Compiled, "cop", counting_cop)
    code, out, _ = run_cli(capsys, "audit", "--seed", "120", "--count", "12")
    assert code == 0 and "all checks passed: True" in out
    assert calls["validate"] == 12
    assert calls["compile"] == 12
    assert calls["cop"] == 110


def test_cli_verify_checks_stability_on_its_compile_and_builds_no_instance(
    capsys, monkeypatch, tmp_path
):
    # the stability check takes verify's own compile, so no ProblemInstance
    # is built from the flat form, for a stable allocation or a blocked one
    allocation = tmp_path / "match.allocation"
    assert main(["match", str(rm.ex1_path()), "--save-allocation", str(allocation)]) == 0
    empty = tmp_path / "empty.allocation"
    empty.write_text('{"schema": "reservematch-allocation/1", "contracts": []}')
    capsys.readouterr()
    calls = count_builds(monkeypatch)
    calls["instance"] = 0
    instance = FlatMarket.instance

    def counting_instance(self):
        calls["instance"] += 1
        return instance(self)

    monkeypatch.setattr(FlatMarket, "instance", counting_instance)
    for path, code in ((allocation, 0), (empty, 1)):
        assert run_cli(capsys, "verify", str(rm.ex1_path()), "--allocation", str(path))[0] == code
    assert calls == {"validate": 2, "compile": 2, "instance": 0}


def test_cli_audit_builds_each_flexibility_side_once(capsys, monkeypatch):
    # per instance: one school build per school in the compile and one for
    # the improvement check's lifted school, whose priority changes; the
    # drawn rigid and flexible sides and the replay's unit steps change only
    # a scheme, so they keep the compiled school's layout. Each drawn side
    # is read into one capacity table, by its monotonicity check, which the
    # comparison reuses; the draw builds its tables from the targets
    built, read = [], []
    init = rm._engine.CompiledSchool.__init__

    def counting(self, *args):
        built.append(1)
        init(self, *args)

    def reading(*args, _real=rm.capacity_table):
        read.append(1)
        return _real(*args)

    monkeypatch.setattr(rm._engine.CompiledSchool, "__init__", counting)
    for module in (rm.choice, rm.instance, rm.generator, rm.incentives, cli):
        if getattr(module, "capacity_table", None) is rm.capacity_table:
            monkeypatch.setattr(module, "capacity_table", reading)
    code, out, _ = run_cli(capsys, "audit", "--seed", "120", "--count", "120")
    assert code == 0 and "all checks passed: True" in out
    assert (len(built), len(read)) == (360, 240)


def test_cli_audit_decides_the_axioms_without_an_irc_scan(capsys, monkeypatch):
    # one table of each of the 240 schools, the completion's, read in one
    # sweep for substitutability and LAD; it completes the overall choice by
    # construction and IRC is the axioms' corollary, so no check runs
    calls = dict.fromkeys(("_tabulate", "check_substitutability", "check_lad"), 0)
    for name in calls:
        def counting(*args, _real=getattr(rm.verification, name), _name=name, **kwargs):
            calls[_name] += 1
            return _real(*args, **kwargs)

        monkeypatch.setattr(rm.verification, name, counting)
    code, out, _ = run_cli(capsys, "audit", "--seed", "120", "--count", "120")
    assert code == 0 and "all checks passed: True" in out
    assert calls == {"_tabulate": 240, "check_substitutability": 0, "check_lad": 0}


def test_cli_audit_builds_one_order_rank_per_instance(capsys, monkeypatch):
    # every process run of an audited instance, the misreport runs' and the
    # flexibility replays' too, takes the one truthful rank built for it:
    # its markets are certified, so that order gives each run the outcome
    # of every other (the completion theorem of the ``cop`` docstring)
    built, runs = [], []
    rank, cop = rm._engine.Compiled.default_order_rank, rm._engine.Compiled.cop

    def counting_rank(self):
        built.append(rank(self))
        return built[-1]

    def checked_cop(self, order_rank, transcript=None):
        assert order_rank is built[-1]
        runs.append(len(built))
        return cop(self, order_rank, transcript)

    monkeypatch.setattr(rm._engine.Compiled, "default_order_rank", counting_rank)
    monkeypatch.setattr(rm._engine.Compiled, "cop", checked_cop)
    code, out, _ = run_cli(capsys, "audit", "--seed", "120", "--count", "12")
    assert code == 0 and "all checks passed: True" in out
    assert len(built) == 12 and set(runs) == set(range(1, 13))
    assert len(runs) > 100  # 110: truthful, misreport, improvement and replay runs


def _audit_params(seed: int) -> rm.GeneratorParams:
    """Audit-sized markets of every scheme family."""
    rng = random.Random(seed)
    return rm.GeneratorParams(
        students=rng.randint(2, 5),
        schools=rng.randint(1, 3),
        types=rng.randint(1, 3),
        seed=seed,
        capacity_range=(1, 3),
        scheme_family=rng.choice(("forward_sum", "table", "constant", "mixed")),
    )


def test_audit_rows_agree_with_the_public_checks_on_the_same_draws(monkeypatch):
    # the audit runs the improvement and flexibility cores on clones of its
    # own compile; the public checks validate and compile on their own, and
    # must give the same row and the same whole result on every draw
    results = {}
    for name in ("_respects_improvement", "_flexibility_pareto"):
        def recording(*args, _core=getattr(cli, name), _name=name):
            results[_name] = _core(*args)
            return results[_name]

        monkeypatch.setattr(cli, name, recording)
    drawn = 0
    for k in range(200):
        seed = 7100 + k
        instance = rm.generate_random_instance(_audit_params(seed))
        results.clear()
        row = cli._audit_one(instance, seed, 0)

        swap = rm.single_swap_improvement(instance, seed)
        if swap is None:
            assert row["respects_improvements"] is True
            assert "_respects_improvement" not in results
        else:
            student, improved = swap
            check = rm.check_respects_improvements(instance, improved, student)
            assert results.pop("_respects_improvement") == check, seed
            assert row["respects_improvements"] == check.ok, seed

        pair = rm.unit_flexibility_pair(instance, seed)
        if pair is None:
            assert row["flexibility_pareto"] is True and not results
        else:
            drawn += 1
            comparison = rm.check_flexibility_pareto(*pair)
            assert results.pop("_flexibility_pareto") == comparison, seed
            want = comparison.dominates and comparison.chain_agrees is not False
            assert row["flexibility_pareto"] == want, seed
    assert drawn >= 100


def test_audit_refuses_a_non_monotone_drawn_scheme_as_the_public_check_does(
    capsys, monkeypatch
):
    # the audit validates only the two drawn schemes; with one of them not
    # monotone it must stop with the public check's error and exit code
    drawn = []

    def non_monotone_draw(instance, seed):
        draw = rm.generator._flexibility_draw(instance, seed)
        if draw is None:
            return None
        rigid_cfg, flexible_cfg = draw
        rigid, flexible = (
            rm.capacity_table(cfg.scheme, cfg.targets, cfg.capacity) for cfg in draw
        )
        # the bump grants one more seat at one residual vector; a second seat
        # there gains 2 over the zero vector, one vacancy away
        (bump,) = [vec for vec in rigid if flexible[vec] != rigid[vec]]
        broken = {**flexible, bump: flexible[bump] + 1}
        scheme = rm.TableScheme.pinned(broken, rigid_cfg.targets)
        broken_cfg = replace(flexible_cfg, scheme=scheme)
        drawn.append((instance, rigid_cfg, broken_cfg))
        return rigid_cfg, broken_cfg

    monkeypatch.setattr(cli, "_flexibility_draw", non_monotone_draw)
    code, out, err = run_cli(capsys, "audit", "--seed", "120", "--count", "3")
    instance, rigid_cfg, broken_cfg = drawn[0]
    with pytest.raises(rm.ValidationError) as public:
        rm.check_flexibility_pareto(
            instance.with_school(rigid_cfg), instance.with_school(broken_cfg)
        )
    assert "scheme not monotone (condition 2" in str(public.value)
    # main exits 2 on a ValidationError, with its text as the error line
    assert (code, out, err) == (2, "", f"error: {public.value}\n")


def test_audit_validates_a_drawn_rigid_scheme_first_as_the_public_check_does(
    capsys, monkeypatch
):
    # the drawn rigid scheme is not the compile's own either, so the audit
    # checks it, and before the flexible one, as validating the rigid market
    # would: with both sides broken, the rigid side's violation is reported
    drawn = []

    def broken_draw(instance, seed):
        draw = rm.generator._flexibility_draw(instance, seed)
        if draw is None:
            return None
        rigid_cfg, flexible_cfg = draw
        rigid, flexible = (
            rm.capacity_table(cfg.scheme, cfg.targets, cfg.capacity) for cfg in draw
        )
        # two seats more where the flexible side has one: condition 2 fails
        (bump,) = [vec for vec in rigid if flexible[vec] != rigid[vec]]
        rigid[bump] += 2
        # group 1 over its target at the zero vector: refused on its own
        flexible[(0,)] += 1
        drawn.append(instance)
        return tuple(
            replace(cfg, scheme=rm.TableScheme.pinned(table, cfg.targets))
            for cfg, table in zip(draw, (rigid, flexible))
        )

    monkeypatch.setattr(cli, "_flexibility_draw", broken_draw)
    code, out, err = run_cli(capsys, "audit", "--seed", "120", "--count", "3")
    pair = broken_draw(drawn[0], 120)
    with pytest.raises(rm.ValidationError) as public:
        rm.check_flexibility_pareto(*map(drawn[0].with_school, pair))
    assert "scheme not monotone (condition 2" in str(public.value)
    assert (code, out, err) == (2, "", f"error: {public.value}\n")


def test_cli_compare_validates_and_compiles_the_rigid_side_only(capsys, monkeypatch):
    # the load validates the file; the comparison validates and compiles the
    # constant baseline and runs the file's schemes as clones of it
    calls = count_builds(monkeypatch)
    code, out, _ = run_cli(capsys, "compare", str(rm.ex1_path()))
    assert code == 0 and "dominates: True" in out
    assert calls == {"validate": 2, "compile": 1}


def test_cli_match_then_verify_is_stable(capsys, tmp_path):
    alloc = tmp_path / "ex1.allocation"
    code, _, _ = run_cli(
        capsys, "match", str(rm.ex1_path()), "--save-allocation", str(alloc)
    )
    assert code == 0
    code, out, _ = run_cli(
        capsys, "verify", str(rm.ex1_path()), "--allocation", str(alloc)
    )
    assert code == 0
    assert "stable: True" in out


def test_cli_verify_flags_an_unstable_allocation(capsys, tmp_path, ex1, X):
    alloc = tmp_path / "bad.allocation"
    rm.save_allocation({X.w1}, alloc)  # i would displace l, and others block
    code, out, _ = run_cli(
        capsys, "verify", str(rm.ex1_path()), "--allocation", str(alloc)
    )
    assert code == 1
    assert "stable: False" in out


@pytest.mark.parametrize(
    "held, problem",
    [(("z2", "z3"), "several contracts"), (("x1", "y2", "z3"), "over capacity")],
    ids=["one-student-twice", "school-over-capacity"],
)
def test_cli_verify_refuses_a_set_that_is_not_an_allocation(capsys, tmp_path, X, held, problem):
    alloc = tmp_path / "bad.allocation"
    rm.save_allocation({getattr(X, name) for name in held}, alloc)
    code, out, err = run_cli(capsys, "verify", str(rm.ex1_path()), "--allocation", str(alloc))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: not an allocation: ") and problem in line


def test_cli_audit_passes_on_generated_instances(capsys, tmp_path):
    out_path = tmp_path / "audit.json"
    code, out, _ = run_cli(
        capsys, "audit", "--seed", "7", "--count", "12", "--out", str(out_path)
    )
    assert code == 0
    assert "all checks passed: True" in out
    report = json.loads(out_path.read_text())
    assert report["all_ok"] is True
    assert len(report["results"]) == 12
    assert "unverified" not in report  # every check was fully covered


def test_cli_audit_reports_are_byte_identical(capsys, tmp_path):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    assert run_cli(capsys, "audit", "--seed", "3", "--count", "4", "--out", str(a))[0] == 0
    assert run_cli(capsys, "audit", "--seed", "3", "--count", "4", "--out", str(b))[0] == 0
    assert a.read_bytes() == b.read_bytes()


def test_cli_audit_on_files_reports_only_the_parameters_files_use(capsys, tmp_path):
    # files audited at --seed 40 get the rows of the generated audit of the
    # same instances; only the generator's sizes drop out of "parameters"
    paths = []
    for seed in (40, 41):
        params = rm.GeneratorParams(students=4, schools=6, types=3, seed=seed)
        paths.append(tmp_path / f"market-{seed}.instance")
        rm.save_instance(rm.generate_random_instance(params), paths[-1])
    code, out, err = run_cli(
        capsys, "audit", *map(str, paths), "--seed", "40", "--format", "machine"
    )
    assert err == ""
    from_files = json.loads(out)
    assert from_files["parameters"] == {"seed": 40, "max_contracts": 8}
    assert [r.pop("instance") for r in from_files["results"]] == list(map(str, paths))
    generated_code, out, _ = run_cli(
        capsys, "audit", "--seed", "40", "--count", "2", "--schools", "6", "--format", "machine"
    )
    generated = json.loads(out)
    assert generated["parameters"] == {
        "seed": 40, "students": 4, "schools": 6, "types": 3, "max_contracts": 8
    }
    assert [r.pop("instance") for r in generated["results"]] == ["seed-40", "seed-41"]
    assert code == generated_code
    assert {k: v for k, v in from_files.items() if k != "parameters"} == {
        k: v for k, v in generated.items() if k != "parameters"
    }


def test_cli_audit_decides_the_students_whose_misreport_search_refuses(capsys):
    # with six schools a student who claims one type has 6 contracts (1 957
    # reports) and one who claims two has 12, far over the 200 000 cap; the
    # full search (the tests' oracle) refuses those unless the student
    # already holds their top choice, and finds no misreport for the rest.
    # The audit decides every student from one-contract reports, so every
    # row is decided even with no school tabulated.
    code, out, err = run_cli(
        capsys, "audit", "--seed", "0", "--count", "30", "--schools", "6",
        "--students", "4", "--max-contracts", "0", "--format", "machine",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert "unverified" not in report and report["all_ok"] is True
    assert [r["schools_axiom_checked"] for r in report["results"]] == [0] * 30
    assert [r["strategy_proof"] for r in report["results"]] == [True] * 30
    refused_rows = 0
    for row in report["results"]:
        instance = rm.generate_random_instance(
            rm.GeneratorParams(
                students=4, schools=6, types=3, seed=row["index"], claim_range=(1, 2)
            )
        )
        held = {c.student: c for c in rm.run_cop_default(instance)}
        refused = False
        for s in instance.students:
            if (
                preference_space_size(len(instance.contracts_of(s))) > 200_000
                and instance.preferences[s].rank(held.get(s)) != 0
            ):
                with pytest.raises(rm.SearchCapExceededError):
                    reference_group_misreport(instance, (s,))
                refused = True
            else:
                assert reference_group_misreport(instance, (s,)) is None
        refused_rows += refused
    assert refused_rows > 0


def test_cli_audit_decides_the_rows_whose_completion_axioms_hold(capsys):
    # the markets above, with every school tabulated: each row's axioms hold,
    # so each student is decided from one-contract reports and no space is
    # refused
    code, out, err = run_cli(
        capsys, "audit", "--seed", "0", "--count", "30", "--schools", "6",
        "--students", "4", "--format", "machine",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert [r["completion_axioms"] for r in report["results"]] == [True] * 30
    assert [r["strategy_proof"] for r in report["results"]] == [True] * 30
    assert "unverified" not in report


def test_cli_audit_decides_order_independence_with_no_walk(capsys):
    # the audit reads order independence off the certificate, with no pool
    # tabulated
    code, out, err = run_cli(
        capsys, "audit", "--seed", "120", "--count", "3", "--max-contracts", "0",
        "--format", "machine",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert [r["order_independent"] for r in report["results"]] == [True] * 3
    assert [r["schools_axiom_checked"] for r in report["results"]] == [0] * 3
    assert report["summary"]["order_independent"] == 3
    assert "unverified" not in report


@pytest.mark.parametrize("max_contracts, untabulated", [("8", 0), ("0", 12)])
def test_cli_audit_walks_the_orders_only_where_the_axioms_are_unverified(
    capsys, max_contracts, untabulated
):
    # the certificate verifies every row's axioms, so order independence is
    # read off it, whether the cross-check tabulates every school (8) or none
    # (0), with no walk
    assert not hasattr(cli, "_order_independence")
    code, out, _ = run_cli(
        capsys, "audit", "--seed", "120", "--count", "12", "--max-contracts", max_contracts,
        "--format", "machine",
    )
    assert code == 0
    rows = json.loads(out)["results"]
    assert [r["order_independent"] for r in rows] == [True] * 12
    assert sum(r["schools_axiom_checked"] < 2 for r in rows) == untabulated


def test_cli_audit_decides_order_independence_where_the_walk_refuses(capsys):
    # 4 of these 10 markets have over 100 000 process states, more than a
    # walk of every order could visit; the certificate decides them, and with
    # every pool tabulated the cross-check agrees
    code, out, err = run_cli(
        capsys, "audit", "--seed", "0", "--count", "10", "--students", "10",
        "--schools", "3", "--max-contracts", "18", "--format", "machine",
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert all(r[k] is not None for r in report["results"] for k in cli.AUDIT_CHECKS)
    assert "unverified" not in report


def test_cli_audit_certifies_the_axioms_with_no_pool_tabulated(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--seed", "7", "--count", "2", "--max-contracts", "0",
        "--format", "machine",
    )
    assert code == 0
    report = json.loads(out)
    assert [r["schools_axiom_checked"] for r in report["results"]] == [0, 0]
    assert [r["completion_axioms"] for r in report["results"]] == [True, True]
    assert report["summary"]["completion_axioms"] == 2
    assert "unverified" not in report


def test_cli_audit_tabulates_every_pool_that_max_contracts_admits(capsys):
    # one school with 15 contracts: 2^15 subsets, over the tables' default cap
    code, out, _ = run_cli(
        capsys, "audit", "--seed", "10", "--count", "1", "--students", "10",
        "--schools", "1", "--max-contracts", "20", "--format", "machine",
    )
    assert code == 0
    [row] = json.loads(out)["results"]
    assert row["schools_axiom_checked"] == 1
    assert row["completion_axioms"] is True


def test_cli_verify_names_one_blocking_contract_in_a_large_search_space(capsys, tmp_path):
    # six seats and dozens of acceptable contracts: searching every candidate
    # set of up to six contracts would take over 2 000 000 re-choices
    instance = rm.generate_random_instance(
        rm.GeneratorParams(students=40, schools=1, types=2, seed=0, capacity_range=(6, 6))
    )
    market, empty = tmp_path / "market.instance", tmp_path / "empty.allocation"
    rm.save_instance(instance, market)
    rm.save_allocation(frozenset(), empty)
    code, out, err = run_cli(
        capsys, "verify", str(market), "--allocation", str(empty), "--format", "machine"
    )
    assert (code, err) == (1, "")
    blocking = json.loads(out)["blocking"]
    assert blocking["school"] == "s1"
    [cid] = blocking["contracts"]
    [c] = [c for c in instance.contracts if f"{c.student}@{c.school}:{c.privilege}" == cid]
    assert rm.dynamic_reserves_choice({c}, instance.school("s1"))[0] == {c}
    assert instance.preferences[c.student].accepts(c)


VERIFY_MARKETS = {
    "ex1": lambda: rm.load_instance(rm.ex1_path()),
    "sixty": lambda: rm.generate_random_instance(
        rm.GeneratorParams(students=60, schools=6, types=3, seed=16, capacity_range=(3, 3))
    ),
    "forty": lambda: rm.generate_random_instance(
        rm.GeneratorParams(students=40, schools=1, types=2, seed=0, capacity_range=(6, 6))
    ),
}

# case -> (market, allocation file, exit code, SHA-256 of standard output,
# standard error) of `verify --format machine`. An allocation of None is the
# one `match` gives; a list is the file's contract ids.
VERIFY_BYTES = {
    "stable": (
        "ex1", None, 0, "5dec5cb03bc581c1aa93ee869bf6153f5bee6d584246c0172cb3966f53ee090e", "",
    ),
    "stable-60": (
        "sixty", None, 0, "c0c1970df36310a3588afb409c871ca9cd6accbbfcc8ba1592b7ceec3d9facec", "",
    ),
    "blocking-in-a-large-search-space": (
        "forty", [], 1, "f480c8e2fb46a630ec7821a4cdb924630e2802342aae82570f35bd18c6ff6fa6", "",
    ),
    "school-mismatch": (
        "ex1", ["j@s:t2", "k@s:t2"], 1,
        "2394e053230d4b1c3c89e96ca4cf0aa9a003d4dbf04653ead5374d010caf4492", "",
    ),
    "one-student-twice": (
        "ex1", ["k@s:t2", "k@s:t3"], 2, None,
        "error: not an allocation: students with several contracts: ['k']\n",
    ),
    "school-over-capacity": (
        "ex1", ["i@s:t1", "j@s:t2", "k@s:t3"], 2, None,
        "error: not an allocation: school s over capacity (3 > 2)\n",
    ),
    "twice-and-over-capacity": (
        "ex1", ["i@s:t1", "k@s:t2", "k@s:t3"], 2, None,
        "error: not an allocation: students with several contracts: ['k']; "
        "school s over capacity (3 > 2)\n",
    ),
    "unknown-id": (
        "ex1", ["i@s:t1", "i@s:t9"], 2, None, "error: contracts[1]: unknown contract id 'i@s:t9'\n",
    ),
    "duplicate-id": (
        "ex1", ["i@s:t1", "j@s:t2", "i@s:t1"], 2, None,
        "error: contracts[2]: duplicate contract id 'i@s:t1'\n",
    ),
    "not-a-string": ("ex1", ["i@s:t1", 1], 2, None, "error: contracts[1]: unknown contract id 1\n"),
    # a huge id is echoed as its first 64 characters (with the quote) and its length
    "huge-unknown-id": (
        "ex1", ["@:" * 200_000], 2, None,
        "error: contracts[0]: unknown contract id '" + "@:" * 31 + "@... (400000 characters)\n",
    ),
    "wrong-schema": (
        "ex1", {"schema": "reservematch/1", "contracts": []}, 2, None,
        "error: schema: unsupported schema 'reservematch/1', expected 'reservematch-allocation/1'\n",
    ),
    "not-a-list": (
        "ex1", {"schema": "reservematch-allocation/1", "contracts": "i@s:t1"}, 2, None,
        "error: $.contracts: field 'contracts' has the wrong type\n",
    ),
}


@pytest.mark.parametrize("case", sorted(VERIFY_BYTES))
def test_cli_verify_bytes_are_pinned(capsys, monkeypatch, tmp_path, case):
    market, held, code, digest, err = VERIFY_BYTES[case]
    monkeypatch.chdir(tmp_path)  # reports echo the paths they are given
    instance = VERIFY_MARKETS[market]()
    rm.save_instance(instance, f"{market}.instance")
    if held is None:
        held = sorted(rm.fileio.contract_id(c) for c in rm.run_cop_default(instance))
    if not isinstance(held, dict):
        held = {"schema": "reservematch-allocation/1", "contracts": held}
    Path("y.allocation").write_text(json.dumps(held))
    argv = ["verify", f"{market}.instance", "--allocation", "y.allocation", "--format", "machine"]
    got = run_cli(capsys, *argv)
    out_digest = hashlib.sha256(got[1].encode()).hexdigest() if got[1] else None
    assert (got[0], out_digest, got[2]) == (code, digest, err)


def test_cli_verify_is_stable_on_a_200_student_market(capsys, tmp_path):
    instance = rm.generate_random_instance(
        rm.GeneratorParams(students=200, schools=5, types=3, seed=3, capacity_range=(20, 20))
    )
    market, alloc = tmp_path / "market.instance", tmp_path / "market.allocation"
    rm.save_instance(instance, market)
    assert run_cli(capsys, "match", str(market), "--save-allocation", str(alloc))[0] == 0
    code, out, _ = run_cli(capsys, "verify", str(market), "--allocation", str(alloc))
    assert code == 0
    assert "stable: True" in out


def test_cli_compare_against_the_rigid_baseline(capsys, tmp_path, ex1, X):
    # demand only for third-type seats: the baseline wastes both reserved slots
    prefs = {s: rm.PreferenceOrder(s, ()) for s in ex1.students}
    prefs["k"] = rm.PreferenceOrder("k", (X.z3,))
    prefs["l"] = rm.PreferenceOrder("l", (X.w3,))
    market = tmp_path / "t3demand.instance"
    rm.save_instance(ex1.with_preferences(prefs), market)
    out_path = tmp_path / "compare.json"
    code, out, _ = run_cli(capsys, "compare", str(market), "--out", str(out_path))
    assert code == 0
    report = json.loads(out_path.read_text())
    assert report["dominates"] is True
    assert report["waste_rigid"] == 2
    assert report["waste_flexible"] == 0
    assert report["rigid_matched"] == 0
    assert report["flexible_matched"] == 2


def test_cli_compare_ignores_a_table_that_restates_the_targets(capsys, tmp_path):
    # school s2 of this market has a table scheme with no entries: it grants
    # exactly its targets, like the no-transfers baseline, so it is unchanged
    code, _, _ = run_cli(
        capsys, "gen", "--out-dir", str(tmp_path), "--seed", "27", "--students", "6",
        "--schools", "3", "--scheme-family", "table",
    )
    assert code == 0
    (market,) = tmp_path.glob("*.instance")
    assert rm.load_instance(market).school("s2").scheme == rm.TableScheme({})
    code, out, err = run_cli(capsys, "compare", str(market), "--format", "machine")
    assert (code, err) == (0, "")
    assert json.loads(out)["dominates"] is True


def test_cli_compare_against_a_rigid_file(capsys, tmp_path):
    instance = rm.generate_random_instance(
        rm.GeneratorParams(students=6, schools=2, types=3, seed=5)
    )
    rigid, flexible = rm.unit_flexibility_pair(instance, 5)
    rigid_path, flexible_path = tmp_path / "rigid.instance", tmp_path / "flexible.instance"
    rm.save_instance(rigid, rigid_path)
    rm.save_instance(flexible, flexible_path)
    code, out, err = run_cli(
        capsys, "compare", str(flexible_path), "--against", str(rigid_path), "--format", "machine"
    )
    assert (code, err) == (0, "")
    report = json.loads(out)
    assert report["against"] == str(rigid_path)
    assert report["dominates"] is report["chain_agrees"] is report["decomposed"] is True
    # reversed, the "flexible" side is the less flexible one: bad input
    code, out, err = run_cli(capsys, "compare", str(rigid_path), "--against", str(flexible_path))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and "not more flexible" in line


def test_cli_convert_round_trips_through_match(capsys, tmp_path):
    school = rm.generate_slot_specific_school(5)
    students = sorted({c.student for c in school.contracts})
    import random

    rng = random.Random(5)
    prefs = {}
    for s in students:
        own = sorted(c for c in school.contracts if c.student == s)
        rng.shuffle(own)
        prefs[s] = rm.PreferenceOrder(s, tuple(own))
    slots_path = tmp_path / "market.slots"
    rm.save_slot_market(school, prefs, slots_path)
    converted_path = tmp_path / "converted.instance"
    code, out, _ = run_cli(
        capsys, "convert", str(slots_path), "--out-file", str(converted_path), "--check"
    )
    assert code == 0
    assert "passed" in out

    converted = rm.load_instance(converted_path)
    via_dynamic = rm.run_cop_default(converted)

    # matching with the original slot-specific school gives the same outcome
    compiled = Compiled(FlatMarket.of(sorted(school.contracts), students, [school], prefs))
    direct = compiled.to_set(compiled.cop(compiled.default_order_rank()))
    conv = rm.convert_slot_specific(school)
    assert {conv.inverse[c] for c in via_dynamic} == set(direct)


def test_cli_convert_check_refuses_a_pool_over_max_contracts(capsys, tmp_path):
    school = rm.generate_slot_specific_school(5)
    assert len(school.contracts) > 3
    students = sorted({c.student for c in school.contracts})
    prefs = {s: rm.PreferenceOrder(s, ()) for s in students}
    slots_path = tmp_path / "market.slots"
    rm.save_slot_market(school, prefs, slots_path)
    code, out, err = run_cli(
        capsys, "convert", str(slots_path), "--out-file", str(tmp_path / "out.instance"),
        "--check", "--max-contracts", "3",
    )
    assert (code, out) == (3, "")
    [line] = err.splitlines()
    assert line.startswith("error: subset enumeration: ") and "cap of 8" in line


def test_cli_convert_writes_no_instance_that_match_refuses(capsys, tmp_path):
    # a listing that ranks one contract twice, and one for a student with no
    # contract at the school: convert validates as match does, and writes nothing
    school = rm.generate_slot_specific_school(5)
    students = sorted({c.student for c in school.contracts})
    first = min(c for c in school.contracts if c.student == students[0])
    twice = {students[0]: rm.PreferenceOrder(students[0], (first, first))}
    stray = {"zz": rm.PreferenceOrder("zz", ())}
    for prefs, fault in (
        (twice, f"student {students[0]}: duplicate entries in preference order"),
        (stray, "preference order for unknown student zz"),
    ):
        slots_path, out_path = tmp_path / "market.slots", tmp_path / "out.instance"
        rm.save_slot_market(school, prefs, slots_path)
        code, out, err = run_cli(
            capsys, "convert", str(slots_path), "--out-file", str(out_path), "--check"
        )
        assert (code, out) == (2, "")
        assert err == f"error: {slots_path}: {fault}\n"
        assert not out_path.exists()


def _eleven_contract_slot_school() -> rm.SlotSpecificSchool:
    """Three slots over 11 contracts, student d holding v9 and v10: the
    converted ids sort v10 before v9, so the converted pool's bit order is
    not the slot pool's."""
    rng = random.Random(11)
    claims = {"a": "xyz", "b": "xyz", "c": "xyz", "d": "xy"}
    pool = sorted(rm.Contract(s, "s", t) for s, types in claims.items() for t in types)
    slots = tuple(tuple(rng.sample(pool, 8)) for _ in range(3))
    return rm.SlotSpecificSchool("s", frozenset(pool), slots)


def _convert_check(capsys, tmp_path, school):
    """``convert --check`` of ``school``: its exit code and the reported
    mismatch."""
    path = tmp_path / "market.slots"
    rm.save_slot_market(school, {}, path)
    code, out, err = run_cli(
        capsys, "convert", str(path), "--out-file", str(tmp_path / "out.instance"), "--check",
        "--format", "machine",
    )
    assert err == ""
    return code, json.loads(out)["equivalence_mismatch"]


def _one_target_changed(monkeypatch):
    """Make ``convert`` take one seat from the conversion's first group, and
    from its capacity, so that the converted market still validates."""
    convert = cli.convert_slot_specific

    def broken(school):
        converted = convert(school)
        config = converted.config
        targets = (0,) + config.targets[1:]
        return replace(converted, config=replace(config, targets=targets, capacity=sum(targets)))

    monkeypatch.setattr(cli, "convert_slot_specific", broken)
    return broken


def test_cli_convert_check_on_the_engine_agrees_with_the_set_based_check(capsys, tmp_path):
    # the converted side is tabulated on the engine, over the converted ids'
    # own bit order; the verdict must be the set-based check's
    school = _eleven_contract_slot_school()
    converted = rm.convert_slot_specific(school)
    order = [converted.inverse[c] for c in sorted(converted.mapping.values())]
    assert len(order) == 11 and order != sorted(school.contracts)
    schools = [school] + [rm.generate_slot_specific_school(seed) for seed in range(20)]
    for slots in schools:
        assert reference_convert_mismatch(slots, rm.convert_slot_specific(slots)) is None
        assert _convert_check(capsys, tmp_path, slots) == (0, None)


def test_cli_convert_check_reports_a_changed_target(capsys, tmp_path, monkeypatch):
    # a conversion with one seat fewer must still be caught, at the first
    # offer set in the slot pool's mask order on which it differs
    broken = _one_target_changed(monkeypatch)
    mismatched = 0
    for school in [_eleven_contract_slot_school()] + [
        rm.generate_slot_specific_school(seed) for seed in range(20)
    ]:
        want = reference_convert_mismatch(school, broken(school))
        assert _convert_check(capsys, tmp_path, school) == (1 if want else 0, want)
        mismatched += want is not None
    assert mismatched >= 15


@pytest.mark.parametrize("command", ["audit", "convert"])
def test_cli_max_contracts_must_be_non_negative(capsys, tmp_path, command):
    if command == "audit":
        argv = ["audit", "--seed", "7", "--count", "1"]
    else:
        slots = tmp_path / "market.slots"
        rm.save_slot_market(rm.generate_slot_specific_school(5), {}, slots)
        argv = ["convert", str(slots), "--out-file", str(tmp_path / "out.instance"), "--check"]
    for value, message in (("-1", "must be non-negative, got -1"), ("x", "invalid int value: 'x'")):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--max-contracts", value])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == ""
        assert err.splitlines()[-1].endswith(f"argument --max-contracts: {message}")


@pytest.mark.parametrize("command", ["audit", "convert"])
def test_cli_max_contracts_has_a_ceiling_of_20(capsys, tmp_path, command):
    # the markets are small, so 20 starts no large tabulation
    if command == "audit":
        argv = ["audit", "--seed", "7", "--count", "1"]
    else:
        slots = tmp_path / "market.slots"
        rm.save_slot_market(rm.generate_slot_specific_school(5), {}, slots)
        argv = ["convert", str(slots), "--out-file", str(tmp_path / "out.instance"), "--check"]
    code, _, err = run_cli(capsys, *argv, "--max-contracts", "20", "--format", "machine")
    assert (code, err) == (0, "")
    with pytest.raises(SystemExit) as exit_:
        main([*argv, "--max-contracts", "21"])
    assert exit_.value.code == 2
    out, err = capsys.readouterr()
    assert out == ""
    assert err.splitlines()[-1].endswith("argument --max-contracts: must be at most 20, got 21")


@pytest.mark.parametrize("command", ["audit", "gen"])
def test_cli_counts_must_be_positive(capsys, tmp_path, command):
    argv = ["audit", "--seed", "7"] if command == "audit" else [
        "gen", "--seed", "7", "--out-dir", str(tmp_path / "out")
    ]
    for value, message in (
        ("-1", "must be positive, got -1"),
        ("0", "must be positive, got 0"),
        ("x", "invalid int value: 'x'"),
    ):
        with pytest.raises(SystemExit) as exit_:
            main([*argv, "--count", value])
        assert exit_.value.code == 2
        out, err = capsys.readouterr()
        assert out == "" and "Traceback" not in err
        assert err.splitlines()[-1].endswith(f"argument --count: {message}")
    assert not (tmp_path / "out").exists()


def test_cli_gen_writes_deterministic_files(capsys, tmp_path):
    d1, d2 = tmp_path / "one", tmp_path / "two"
    for d in (d1, d2):
        code, _, _ = run_cli(
            capsys, "gen", "--out-dir", str(d), "--count", "3", "--seed", "11"
        )
        assert code == 0
    files1 = sorted(p.name for p in d1.iterdir())
    assert files1 == sorted(p.name for p in d2.iterdir())
    for name in files1:
        assert (d1 / name).read_bytes() == (d2 / name).read_bytes()
        rm.load_instance(d1 / name)


def test_cli_missing_file_exits_with_input_error(capsys):
    code, _, err = run_cli(capsys, "match", "/nonexistent/path.instance")
    assert code == 2
    assert "error" in err


UNREADABLE = {
    "not-utf-8": (b"\xff\xfe", "can't decode byte 0xff"),
    "nested-too-deep": (b"[" * 100_000, "maximum recursion depth exceeded"),
    "too-many-digits": (b'{"schema": ' + b"1" * 5000 + b"}", "value has 5000 digits"),
}


@pytest.mark.parametrize("reader", ["instance", "allocation", "slots"])
@pytest.mark.parametrize("content", sorted(UNREADABLE))
def test_cli_unreadable_files_exit_with_input_error(capsys, tmp_path, reader, content):
    data, message = UNREADABLE[content]
    bad = tmp_path / "bad.json"
    bad.write_bytes(data)
    argv = {
        "instance": ["match", str(bad)],
        "allocation": ["verify", str(rm.ex1_path()), "--allocation", str(bad)],
        "slots": ["convert", str(bad), "--out-file", str(tmp_path / "out.instance")],
    }[reader]
    code, out, err = run_cli(capsys, *argv)
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith("error: ") and message in line


def test_cli_invalid_instance_exits_with_input_error(capsys, tmp_path):
    doc = json.loads(rm.ex1_path().read_text())
    doc["schools"][0]["capacity"] = 99
    bad = tmp_path / "bad.instance"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "match", str(bad))
    assert code == 2
    assert "error" in err


def test_a_negative_capacity_under_a_table_scheme_reports_every_fault(capsys, tmp_path):
    # the monotonicity check has no box under a negative capacity, so
    # validation skips it and keeps the school's other faults
    doc = json.loads(rm.ex1_path().read_text())
    doc["schools"][0].update(capacity=-1, transfers={"kind": "table", "entries": []})
    faults = ["school s: negative capacity", "school s: group targets sum to 2, capacity is -1"]
    assert rm.validate_instance(instance_from_document(doc)) == faults
    bad = tmp_path / "bad.instance"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "match", str(bad))
    assert (code, out) == (2, "")
    assert err == "error: " + "; ".join(f"{bad}: {fault}" for fault in faults) + "\n"


@pytest.mark.parametrize(
    "transfers, location",
    [
        (
            {"kind": "table", "entries": [{"group": 2, "residuals": ["x", 0], "capacity": 1}]},
            "schools[0].transfers.entries[0].residuals",
        ),
        (
            {"kind": "table", "entries": [{"group": 2, "residuals": [0.5, 0], "capacity": 1}]},
            "schools[0].transfers.entries[0].residuals",
        ),
        ({"kind": "forward_sum", "donors": [[], ["a"], []]}, "schools[0].transfers.donors[1]"),
        ({"kind": "forward_sum", "donors": [[], 3, []]}, "schools[0].transfers.donors[1]"),
    ],
    ids=["string-residual", "float-residual", "string-donor", "scalar-donor-entry"],
)
def test_cli_malformed_transfers_exit_with_input_error(capsys, tmp_path, transfers, location):
    doc = json.loads(rm.ex1_path().read_text())
    doc["schools"][0]["transfers"] = transfers
    bad = tmp_path / "bad.instance"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, "match", str(bad))
    assert (code, out) == (2, "")
    assert err.splitlines() == [f"error: {location}: expected a list of integers"]


def _set(doc, path, value):
    for key in path[:-1]:
        doc = doc[key]
    doc[path[-1]] = value


@pytest.mark.parametrize(
    "kind, path, value, location",
    [
        ("instance", ("schools", 0, "groups", 0, "target"), True, "schools[0].groups[0].target"),
        ("instance", ("schools", 0, "capacity"), True, "schools[0].capacity"),
        (
            "instance",
            ("schools", 0, "transfers"),
            {"kind": "table", "entries": [{"group": True, "residuals": [1], "capacity": 1}]},
            "schools[0].transfers.entries[0].group",
        ),
        (
            "instance",
            ("schools", 0, "transfers"),
            {"kind": "table", "entries": [{"group": 1, "residuals": [1], "capacity": True}]},
            "schools[0].transfers.entries[0].capacity",
        ),
        ("instance", ("schools", 0, "priority"), [["i"], "j", "k", "l"], "schools[0].priority"),
        ("instance", ("preferences", "i"), [["x1"]], "preferences.i[0]"),
        ("slots", ("slots",), [5], "slots[0]"),
        ("slots", ("preferences",), {"i": 5}, "preferences.i"),
    ],
    ids=[
        "bool-target", "bool-capacity", "bool-table-group", "bool-table-capacity",
        "nested-priority", "nested-preference-id", "scalar-slot", "scalar-preference",
    ],
)
def test_cli_malformed_files_exit_with_input_error(capsys, tmp_path, kind, path, value, location):
    if kind == "instance":
        doc = json.loads(rm.ex1_path().read_text())
        argv = ["match"]
    else:
        good = tmp_path / "market.slots"
        rm.save_slot_market(rm.generate_slot_specific_school(5), {}, good)
        doc = json.loads(good.read_text())
        argv = ["convert", "--out-file", str(tmp_path / "converted.instance")]
    _set(doc, path, value)
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(doc))
    code, out, err = run_cli(capsys, *argv, str(bad))
    assert (code, out) == (2, "")
    [line] = err.splitlines()
    assert line.startswith(f"error: {location}: ")


def test_cli_machine_format_prints_json(capsys):
    code, out, _ = run_cli(capsys, "match", str(rm.ex1_path()), "--format", "machine")
    assert code == 0
    assert json.loads(out)["allocation"] == ["i@s:t1", "j@s:t2"]
