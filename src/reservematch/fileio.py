"""Instance, allocation, and slot-school files.

One self-describing JSON format per object kind, each schema-versioned.
Parsing is strict: unknown schema versions, duplicate ids, and dangling
references are errors that name the offending location. Serialization is
canonical, so `parse -> serialize` is a fixed point and byte-identical
reports are reproducible.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Mapping

from .choice import ForwardSumScheme, SchoolConfig, SlotSpecificSchool, TableScheme
from .errors import InstanceFormatError, ValidationError
from .instance import ProblemInstance, validate_instance
from .model import Contract, PreferenceOrder, PriorityOrder, TypeProfile

__all__ = [
    "INSTANCE_SCHEMA",
    "ALLOCATION_SCHEMA",
    "SLOTS_SCHEMA",
    "contract_id",
    "load_instance",
    "save_instance",
    "instance_to_document",
    "instance_from_document",
    "load_allocation",
    "save_allocation",
    "load_slot_market",
    "save_slot_market",
    "ex1_path",
]

INSTANCE_SCHEMA = "reservematch/1"
ALLOCATION_SCHEMA = "reservematch-allocation/1"
SLOTS_SCHEMA = "reservematch-slots/1"


def ex1_path() -> Path:
    """Path of the bundled single-school worked example."""
    return Path(__file__).parent / "fixtures" / "ex1.instance"


def _read_json(path) -> object:
    try:
        text = Path(path).read_text(encoding="utf-8")
    except OSError as exc:
        raise InstanceFormatError(str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc


def _write_json(doc: object, path) -> None:
    Path(path).write_text(
        json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False) + "\n",
        encoding="utf-8",
    )


def _expect(doc: object, key: str, kind, where: str):
    if not isinstance(doc, dict):
        raise InstanceFormatError("expected an object", where)
    if key not in doc:
        raise InstanceFormatError(f"missing field {key!r}", where)
    value = doc[key]
    # bool is a subclass of int, but JSON true/false is never a count
    if isinstance(value, bool) or not isinstance(value, kind):
        raise InstanceFormatError(f"field {key!r} has the wrong type", f"{where}.{key}")
    return value


def _check_schema(doc: object, expected: str) -> None:
    got = _expect(doc, "schema", str, "$")
    if got != expected:
        raise InstanceFormatError(f"unsupported schema {got!r}, expected {expected!r}", "schema")


def _scheme_to_doc(scheme) -> dict:
    if isinstance(scheme, ForwardSumScheme):
        return {"kind": "forward_sum", "donors": [list(d) for d in scheme.donors]}
    if isinstance(scheme, TableScheme):
        rows = []
        for k in sorted(scheme.entries):
            for vec in sorted(scheme.entries[k]):
                rows.append(
                    {"group": k, "residuals": list(vec), "capacity": scheme.entries[k][vec]}
                )
        return {"kind": "table", "entries": rows}
    raise InstanceFormatError(f"unserializable scheme {type(scheme).__name__}")


def _tuple_of(value: object, kind: type, where: str) -> tuple:
    """A JSON list whose entries are all ``int`` or all ``str``, as a tuple;
    booleans never count as integers."""
    if not isinstance(value, list) or not all(
        isinstance(x, kind) and not isinstance(x, bool) for x in value
    ):
        noun = "integers" if kind is int else "strings"
        raise InstanceFormatError(f"expected a list of {noun}", where)
    return tuple(value)


def _contracts_from_doc(doc: object) -> dict[str, Contract]:
    """The document's ``contracts`` list keyed by id; ids and (student,
    school, type) triples must be unique."""
    by_id: dict[str, Contract] = {}
    triples: set[Contract] = set()
    for n, row in enumerate(_expect(doc, "contracts", list, "$")):
        # one pass over a well-formed row; any other row is read field by
        # field, so ``_expect`` names the first fault and its location
        if (
            type(row) is dict
            and type(cid := row.get("id")) is str
            and type(student := row.get("student")) is str
            and type(school := row.get("school")) is str
            and type(kind := row.get("type")) is str
        ):
            c = Contract(student, school, kind)
        else:
            where = f"contracts[{n}]"
            cid = _expect(row, "id", str, where)
            c = Contract(
                _expect(row, "student", str, where),
                _expect(row, "school", str, where),
                _expect(row, "type", str, where),
            )
        if cid in by_id:
            raise InstanceFormatError(f"duplicate contract id {cid!r}", f"contracts[{n}]")
        if c in triples:
            raise InstanceFormatError(f"duplicate contract {c}", f"contracts[{n}]")
        by_id[cid] = c
        triples.add(c)
    return by_id


def _ranked_contracts(ids: object, by_id: Mapping[str, Contract], where: str) -> tuple:
    """A list of contract ids resolved against ``by_id``."""
    if not isinstance(ids, list):
        raise InstanceFormatError("expected a list of contract ids", where)
    ranked = []
    for n, cid in enumerate(ids):
        if not isinstance(cid, str) or cid not in by_id:
            raise InstanceFormatError(f"unknown contract id {cid!r}", f"{where}[{n}]")
        ranked.append(by_id[cid])
    return tuple(ranked)


def _preferences_from_doc(doc: object, by_id: Mapping[str, Contract]) -> dict:
    return {
        sid: PreferenceOrder(sid, _ranked_contracts(ids, by_id, f"preferences.{sid}"))
        for sid, ids in _expect(doc, "preferences", dict, "$").items()
    }


def _scheme_from_doc(doc: dict, groups: int, where: str):
    kind = _expect(doc, "kind", str, where)
    if kind == "forward_sum":
        donors = _expect(doc, "donors", list, where)
        if len(donors) != groups:
            raise InstanceFormatError(
                f"donor list covers {len(donors)} groups, school has {groups}", f"{where}.donors"
            )
        rows = [_tuple_of(d, int, f"{where}.donors[{k}]") for k, d in enumerate(donors)]
        return ForwardSumScheme(tuple(tuple(sorted(d)) for d in rows))
    if kind == "table":
        rows = _expect(doc, "entries", list, where)
        entries: dict[int, dict[tuple[int, ...], int]] = {}
        for n, row in enumerate(rows):
            here = f"{where}.entries[{n}]"
            k = _expect(row, "group", int, here)
            vec = _tuple_of(_expect(row, "residuals", list, here), int, f"{here}.residuals")
            cap = _expect(row, "capacity", int, here)
            if k < 1 or k >= groups:
                raise InstanceFormatError(f"group {k} out of range", here)
            if vec in entries.get(k, {}):
                raise InstanceFormatError(f"duplicate entry for group {k} at {vec}", here)
            entries.setdefault(k, {})[vec] = cap
        return TableScheme(entries)
    raise InstanceFormatError(f"unknown scheme kind {kind!r}", f"{where}.kind")


def contract_id(c: Contract) -> str:
    """The canonical id ``student@school:type``, used in files and reports."""
    return f"{c.student}@{c.school}:{c.privilege}"


def instance_to_document(instance: ProblemInstance) -> dict:
    """Canonical document form; contract ids are synthesized as
    ``student@school:type`` regardless of the labels in any source file."""
    contracts = sorted(instance.contracts)
    return {
        "schema": INSTANCE_SCHEMA,
        "types": list(instance.profile.types),
        "students": [
            {"id": s, "types": sorted(instance.profile.claims[s])} for s in instance.students
        ],
        "schools": [
            {
                "id": cfg.school,
                "capacity": cfg.capacity,
                "priority": list(cfg.priority.ranked),
                "groups": [
                    {"type": t, "target": q} for t, q in zip(cfg.precedence, cfg.targets)
                ],
                "transfers": _scheme_to_doc(cfg.scheme),
            }
            for cfg in instance.schools
        ],
        "contracts": [
            {"id": contract_id(c), "student": c.student, "school": c.school, "type": c.privilege}
            for c in contracts
        ],
        "preferences": {
            s: [contract_id(c) for c in instance.preferences[s].ranked]
            for s in instance.students
        },
    }


def instance_from_document(doc: object) -> ProblemInstance:
    _check_schema(doc, INSTANCE_SCHEMA)
    types = _tuple_of(_expect(doc, "types", list, "$"), str, "types")

    students = []
    claims = {}
    for n, row in enumerate(_expect(doc, "students", list, "$")):
        where = f"students[{n}]"
        sid = _expect(row, "id", str, where)
        if sid in claims:
            raise InstanceFormatError(f"duplicate student id {sid!r}", where)
        students.append(sid)
        claimed = _tuple_of(_expect(row, "types", list, where), str, f"{where}.types")
        claims[sid] = frozenset(claimed)

    by_id = _contracts_from_doc(doc)

    schools = []
    seen_schools = set()
    for n, row in enumerate(_expect(doc, "schools", list, "$")):
        where = f"schools[{n}]"
        sid = _expect(row, "id", str, where)
        if sid in seen_schools:
            raise InstanceFormatError(f"duplicate school id {sid!r}", where)
        seen_schools.add(sid)
        groups = _expect(row, "groups", list, where)
        precedence = []
        targets = []
        for g, grow in enumerate(groups):
            gwhere = f"{where}.groups[{g}]"
            precedence.append(_expect(grow, "type", str, gwhere))
            targets.append(_expect(grow, "target", int, gwhere))
        scheme = _scheme_from_doc(
            _expect(row, "transfers", dict, where), len(groups), f"{where}.transfers"
        )
        ranked = _tuple_of(_expect(row, "priority", list, where), str, f"{where}.priority")
        schools.append(
            SchoolConfig(
                school=sid,
                capacity=_expect(row, "capacity", int, where),
                priority=PriorityOrder(sid, ranked),
                precedence=tuple(precedence),
                targets=tuple(targets),
                scheme=scheme,
            )
        )

    preferences = _preferences_from_doc(doc, by_id)
    for sid in students:
        preferences.setdefault(sid, PreferenceOrder(sid, ()))

    return ProblemInstance(
        students=tuple(students),
        profile=TypeProfile(types, claims),
        schools=tuple(schools),
        contracts=frozenset(by_id.values()),
        preferences=preferences,
    )


def load_instance(path) -> ProblemInstance:
    """Parse and validate an instance file; every structural violation is
    collected and raised as one error. :func:`instance_from_document` parses
    without validating."""
    instance = instance_from_document(_read_json(path))
    violations = validate_instance(instance)
    if violations:
        raise ValidationError([f"{path}: {v}" for v in violations])
    return instance


def save_instance(instance: ProblemInstance, path) -> None:
    _write_json(instance_to_document(instance), path)


def save_allocation(allocation: Iterable[Contract], path) -> None:
    doc = {
        "schema": ALLOCATION_SCHEMA,
        "contracts": [contract_id(c) for c in sorted(allocation)],
    }
    _write_json(doc, path)


def load_allocation(path, instance: ProblemInstance) -> frozenset:
    doc = _read_json(path)
    _check_schema(doc, ALLOCATION_SCHEMA)
    by_id = {contract_id(c): c for c in instance.contracts}
    ids = _expect(doc, "contracts", list, "$")
    return frozenset(_ranked_contracts(ids, by_id, "contracts"))


def save_slot_market(
    school: SlotSpecificSchool,
    preferences: Mapping[str, PreferenceOrder],
    path,
) -> None:
    contracts = sorted(school.contracts)
    doc = {
        "schema": SLOTS_SCHEMA,
        "school": school.school,
        "contracts": [
            {"id": contract_id(c), "student": c.student, "school": c.school, "type": c.privilege}
            for c in contracts
        ],
        "slots": [[contract_id(c) for c in slot] for slot in school.slots],
        "preferences": {
            s: [contract_id(c) for c in pref.ranked] for s, pref in sorted(preferences.items())
        },
    }
    _write_json(doc, path)


def load_slot_market(path) -> tuple[SlotSpecificSchool, dict[str, PreferenceOrder]]:
    """A slot-specific school bundled with student preferences, the input of
    the conversion pipeline."""
    doc = _read_json(path)
    _check_schema(doc, SLOTS_SCHEMA)
    school_id = _expect(doc, "school", str, "$")
    by_id = _contracts_from_doc(doc)
    slots = tuple(
        _ranked_contracts(slot, by_id, f"slots[{n}]")
        for n, slot in enumerate(_expect(doc, "slots", list, "$"))
    )
    school = SlotSpecificSchool(school_id, tuple(sorted(by_id.values())), slots)
    return school, _preferences_from_doc(doc, by_id)
