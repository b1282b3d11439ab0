"""Instance files, the generator, and the command-line interface."""

from __future__ import annotations

import hashlib
import json

import pytest

import reservematch as rm
from reservematch.cli import main
from reservematch.fileio import instance_from_document

from helpers import reference_cop


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


@pytest.mark.parametrize(
    "edit, message",
    [
        (lambda rows: rows.__setitem__(2, ["x1"]), "contracts[2]: expected an object"),
        (lambda rows: rows[2].pop("id"), "contracts[2]: missing field 'id'"),
        (
            lambda rows: rows[2].__setitem__("id", 7),
            "contracts[2].id: field 'id' has the wrong type",
        ),
        (
            lambda rows: rows[2].__setitem__("student", True),
            "contracts[2].student: field 'student' has the wrong type",
        ),
        (
            lambda rows: rows[2].__setitem__("school", None),
            "contracts[2].school: field 'school' has the wrong type",
        ),
        (lambda rows: rows[2].pop("type"), "contracts[2]: missing field 'type'"),
        (
            lambda rows: rows.append(dict(rows[0])),
            "contracts[6]: duplicate contract id 'x1'",
        ),
        (
            lambda rows: rows.append(dict(rows[0], id="again")),
            "contracts[6]: duplicate contract <i@s:t1>",
        ),
    ],
    ids=[
        "not-an-object", "missing-id", "int-id", "bool-student", "null-school",
        "missing-type", "duplicate-id", "duplicate-triple",
    ],
)
def test_malformed_contract_rows_name_their_fault_and_location(edit, message):
    # messages as the field-by-field reader gave them before rows were
    # read in one pass
    doc = json.loads(rm.ex1_path().read_text())
    edit(doc["contracts"])
    with pytest.raises(rm.InstanceFormatError) as err:
        instance_from_document(doc)
    assert str(err.value) == message
    assert err.value.location == message.split(": ", 1)[0]


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


def test_allocation_files_round_trip(ex1, tmp_path):
    allocation = rm.run_cop_default(ex1)
    path = tmp_path / "out.allocation"
    rm.save_allocation(allocation, path)
    assert rm.load_allocation(path, ex1) == allocation


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


def test_generator_rejects_bad_parameters():
    with pytest.raises(rm.InvalidInputError):
        rm.GeneratorParams(students=0, schools=1, types=1, seed=1)
    with pytest.raises(rm.InvalidInputError):
        rm.GeneratorParams(students=1, schools=1, types=1, seed=1, scheme_family="magic")


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
    calls = {"validate": 0, "compile": 0}

    def counting_validate(instance):
        calls["validate"] += 1
        return rm.validate_instance(instance)

    compile_ = rm._engine.Compiled.__init__

    def counting_compile(self, *args):
        calls["compile"] += 1
        compile_(self, *args)

    for module in (rm.fileio, rm.cop, rm.instance):
        monkeypatch.setattr(module, "validate_instance", counting_validate)
    monkeypatch.setattr(rm._engine.Compiled, "__init__", counting_compile)
    code, out, _ = run_cli(capsys, "match", str(rm.ex1_path()), *extra)
    assert code == 0 and "matched 2 of 4" in out
    assert calls == {"validate": 1, "compile": 1}


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


def test_cli_audit_leaves_refused_misreport_searches_unverified(capsys):
    # with six schools a student who claims one type has 6 contracts (1 957
    # reports) and one who claims two has 12, far over the 200 000 cap; the
    # search refuses those unless the student already holds their top choice
    code, out, err = run_cli(
        capsys, "audit", "--seed", "0", "--count", "30", "--schools", "6",
        "--students", "4", "--format", "machine",
    )
    assert (code, err) == (3, "")
    report = json.loads(out)
    assert report["all_ok"] is True
    refused_rows = 0
    for row in report["results"]:
        instance = rm.generate_random_instance(
            rm.GeneratorParams(
                students=4, schools=6, types=3, seed=row["index"], claim_range=(1, 2)
            )
        )
        held = {c.student: c for c in rm.run_cop_default(instance)}
        refused = any(
            rm.preference_space_size(len(instance.contracts_of(s))) > 200_000
            and instance.preferences[s].rank(held.get(s)) != 0
            for s in instance.students
        )
        refused_rows += refused
        assert row["strategy_proof"] is (None if refused else True)
        assert row["ok"] is True
    assert refused_rows > 0
    assert report["summary"]["strategy_proof"] == 30 - refused_rows
    assert report["unverified"] == {"strategy_proof": refused_rows}


def test_cli_audit_leaves_unchecked_axioms_unverified(capsys):
    code, out, _ = run_cli(
        capsys, "audit", "--seed", "7", "--count", "2", "--max-contracts", "0",
        "--format", "machine",
    )
    assert code == 3
    report = json.loads(out)
    assert [r["schools_axiom_checked"] for r in report["results"]] == [0, 0]
    assert [r["completion_axioms"] for r in report["results"]] == [None, None]
    assert report["summary"]["completion_axioms"] == 0
    assert report["unverified"] == {"completion_axioms": 2}


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
    from reservematch._engine import Compiled

    compiled = Compiled(sorted(school.contracts), students, [school], prefs)
    direct = compiled.to_set(compiled.cop(compiled.default_order_rank())[0])
    conv = rm.convert_slot_specific(school)
    assert {conv.inverse[c] for c in via_dynamic} == set(direct)


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


def test_cli_invalid_instance_exits_with_input_error(capsys, tmp_path):
    doc = json.loads(rm.ex1_path().read_text())
    doc["schools"][0]["capacity"] = 99
    bad = tmp_path / "bad.instance"
    bad.write_text(json.dumps(doc))
    code, _, err = run_cli(capsys, "match", str(bad))
    assert code == 2
    assert "error" in err


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
