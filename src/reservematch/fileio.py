"""Instance, allocation, and slot-school files.

One self-describing JSON format per object kind, each schema-versioned.
Parsing is strict: unknown schema versions, duplicate ids, and dangling
references are errors that name the offending location. An instance file
has one build path to the engine: it is parsed straight into the flat index
form (``instance.FlatMarket``), the document is released, and the form is
validated once and compiled; :func:`load_instance` builds a
``ProblemInstance`` from the same form. An allocation file resolves on the
same path, each id cut back into the one contract of the market that it
names (:func:`_contract_of`), with no map of the market's ids built. A file
that cannot be read as UTF-8 JSON is an ``InstanceFormatError``, like every
other fault of its format. Serialization is canonical, so
`parse -> serialize` is a fixed point and byte-identical reports are
reproducible: one writer, `_canonical_json`, gives every file and CLI
report the bytes of
`json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)`, most of
them from CPython's C encoder.
"""

from __future__ import annotations

import gc
import json
import sys
from itertools import repeat
from operator import itemgetter
from pathlib import Path
from typing import Callable, Container, Iterable, Mapping

from .choice import ForwardSumScheme, SchoolConfig, SlotSpecificSchool, TableScheme
from .errors import InstanceFormatError, InvalidInputError, ValidationError
from .instance import FlatMarket, ProblemInstance
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
    except (OSError, UnicodeDecodeError) as exc:
        raise InstanceFormatError(str(exc)) from exc
    try:
        return json.loads(text)
    except json.JSONDecodeError as exc:
        raise InstanceFormatError(exc.msg, f"line {exc.lineno}, column {exc.colno}") from exc
    # nesting deeper than the recursion limit, or an integer literal longer
    # than the interpreter converts
    except (RecursionError, ValueError) as exc:
        raise InstanceFormatError(str(exc)) from exc


# Value types the C encoder writes exactly as the pure-Python one does. With
# the sets below, ``issuperset(map(type, items))`` checks a container in C.
_SCALARS = frozenset((str, int, float, bool, type(None)))
_STR = frozenset((str,))
_DICT = frozenset((dict,))
_LIST = frozenset((list, tuple))
# an instance file's contract row, in the order its faults are named
_CONTRACT_KEYS = ("id", "student", "school", "type")


class _Fallback(Exception):
    """The document holds something the canonical writer leaves to
    ``json.dumps``: a non-``str`` key, a type it does not know, or no usable
    C encoder."""


class _Encoders(dict):
    """CPython's C encoder keyed by ``(depth, key separator)``: it writes a
    container without indentation, its items separated by ``,`` and a newline
    indented to the depth."""

    def __init__(self):
        super().__init__()
        self.make = json.encoder.c_make_encoder
        if self.make is None:
            raise _Fallback

    def __missing__(self, key: tuple[int, str]):
        depth, key_separator = key
        try:
            encoder = self.make(
                None, None, json.encoder.encode_basestring, None,
                key_separator, ",\n" + "  " * depth, True, False, True,
            )
        except (TypeError, ValueError) as exc:
            raise _Fallback from exc
        self[key] = encoder
        return encoder


def _write(obj: object, depth: int, out: list, encoders: _Encoders) -> None:
    """Append the canonical text of ``obj``, whose brackets sit at ``depth``,
    to ``out``.

    Only ``indent=None`` runs the C encoder in ``json.dumps``, so the indented
    text is rebuilt from compact C output. A flat container (every child a
    scalar; a dict's keys all ``str``) is one C call with the item separator
    of its children's depth; only the newline and indent inside its brackets
    are added here.

    Two shapes of non-empty flat containers are also one C call, at the
    depth of the grandchildren, and their raw newlines anchor the rewrite:
    every raw newline in C output is a separator, since a newline inside a
    string is escaped, and a scalar never ends in ``]`` or ``}``.

    - A list of flat dicts, such as an instance's ``contracts`` rows: each
      row boundary ``},\n<indent>{`` is rewritten to the rows' indent.
    - A dict of flat lists, such as an instance's ``preferences``: the key
      separator is ``:\n``, so ``:\n[`` marks where each list opens, and
      each boundary ``],\n<indent>"`` is rewritten to the keys' indent.

    Every other container is walked here.
    """
    kind = type(obj)
    if kind in _SCALARS:
        out.append("".join(encoders[0, ": "](obj, 0)))
        return
    if kind is dict:
        if not _STR.issuperset(map(type, obj)):
            raise _Fallback
        children = obj.values()
    elif kind is list or kind is tuple:
        children = obj
    else:
        raise _Fallback
    if not obj:
        out.append("{}" if kind is dict else "[]")
        return
    inner = "\n" + "  " * (depth + 1)
    outer = "\n" + "  " * depth
    item = "\n" + "  " * (depth + 2)
    if _SCALARS.issuperset(map(type, children)):
        text = "".join(encoders[depth + 1, ": "](obj, 0))
        out += (text[0], inner, text[1:-1], outer, text[-1])
    elif (
        kind is not dict
        and _DICT.issuperset(map(type, obj))
        and all(obj)
        and _STR.issuperset({type(key) for row in obj for key in row})
        and _SCALARS.issuperset({type(value) for row in obj for value in row.values()})
    ):
        text = "".join(encoders[depth + 2, ": "](obj, 0))
        rows = text[2:-2].replace("}," + item + "{", inner + "}," + inner + "{" + item)
        out += ("[", inner, "{", item, rows, inner, "}", outer, "]")
    elif (
        kind is dict
        and _LIST.issuperset(map(type, children))
        and all(children)
        and _SCALARS.issuperset({type(value) for row in children for value in row})
    ):
        text = "".join(encoders[depth + 2, ":\n"](obj, 0))
        rows = text[1:-2].replace(":\n[", ": [" + item)
        rows = rows.replace("]," + item + '"', inner + "]," + inner + '"')
        out += ("{", inner, rows, inner, "]", outer, "}")
    elif kind is dict:
        quote = json.encoder.encode_basestring
        separator = "{" + inner
        for key, value in sorted(obj.items()):
            out += (separator, quote(key), ": ")
            _write(value, depth + 1, out, encoders)
            separator = "," + inner
        out += (outer, "}")
    else:
        separator = "[" + inner
        for value in obj:
            out.append(separator)
            _write(value, depth + 1, out, encoders)
            separator = "," + inner
        out += (outer, "]")


def _canonical_json(doc: object) -> str:
    """Exactly ``json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)``,
    built mostly by CPython's C encoder (see :func:`_write`). A document the
    writer does not handle goes to ``json.dumps`` itself, and so do cyclic
    and over-deep ones, so errors are ``json.dumps``'s own."""
    try:
        out: list[str] = []
        _write(doc, 0, out, _Encoders())
        return "".join(out)
    except (_Fallback, RecursionError):
        return json.dumps(doc, indent=2, sort_keys=True, ensure_ascii=False)


def _write_json(doc: object, path) -> None:
    Path(path).write_text(_canonical_json(doc) + "\n", encoding="utf-8")


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
    if type(value) is not list or not {kind}.issuperset(map(type, value)):
        noun = "integers" if kind is int else "strings"
        raise InstanceFormatError(f"expected a list of {noun}", where)
    return tuple(value)


def _contract_rows(doc: object) -> tuple[tuple[Contract, ...], dict[str, int]]:
    """The document's ``contracts`` in contract order, and each row's id
    mapped to its position there; ids and (student, school, type) triples
    must be unique."""
    rows = _expect(doc, "contracts", list, "$")
    try:  # a well-formed list is read a column at a time, in C
        ids, *columns = (list(map(itemgetter(key), rows)) for key in _CONTRACT_KEYS)
        well_formed = all(_STR.issuperset(map(type, column)) for column in (ids, *columns))
    except (KeyError, TypeError):  # a row that is not an object, or lacks a field
        well_formed = False
    if well_formed:
        # one string object per id, shared by its contracts; ``tuple.__new__``
        # builds each named tuple in C
        columns = [map(sys.intern, column) for column in columns]
        listed = list(map(tuple.__new__, repeat(Contract), zip(*columns)))
        contracts = tuple(sorted(listed))  # one pass: files list them sorted
        index = dict(zip(contracts, range(len(contracts))))
        by_id = dict(zip(ids, map(index.__getitem__, listed)))
        if len(by_id) == len(index) == len(rows):
            return contracts, by_id
    # any other is read row by row, so ``_expect`` names the first fault
    seen_ids, seen = set(), set()
    for n, row in enumerate(rows):
        where = f"contracts[{n}]"
        cid, *fields = (_expect(row, key, str, where) for key in _CONTRACT_KEYS)
        if cid in seen_ids:
            raise InstanceFormatError(f"duplicate contract id {cid!r}", where)
        if (c := Contract(*fields)) in seen:
            raise InstanceFormatError(f"duplicate contract {c}", where)
        seen_ids.add(cid)
        seen.add(c)
    raise AssertionError("no faulty contract row found")


def _ranked_contracts(ids: object, resolve: Callable[[str], object], where: str) -> tuple:
    """A list of contract ids, each resolved by ``resolve``, which raises
    ``KeyError`` or ``TypeError`` for an id it does not know."""
    if not isinstance(ids, list):
        raise InstanceFormatError("expected a list of contract ids", where)
    try:
        # through a list: ``tuple(map(...))`` sizes a short tuple by guess
        # and shrinks it, and that churn leaves the heap fragmented
        return tuple([resolve(c) for c in ids])
    except (KeyError, TypeError):
        for n, cid in enumerate(ids):
            try:
                resolve(cid)
            except (KeyError, TypeError):
                raise InstanceFormatError(
                    f"unknown contract id {_echo(cid)}", f"{where}[{n}]"
                ) from None
        raise


# The most characters of an unknown id an error line repeats.
_ECHO_LIMIT = 64


def _echo(cid: object) -> str:
    """``repr(cid)`` for an error line, cut after ``_ECHO_LIMIT`` characters
    with the length of the id (or of its ``repr``, for a non-string) stated,
    so a huge id gives a short line."""
    text = repr(cid)
    if len(text) <= _ECHO_LIMIT:
        return text
    size = len(cid) if isinstance(cid, str) else len(text)
    return f"{text[:_ECHO_LIMIT]}... ({size} characters)"


def _preferences_from_doc(doc: object, by_id: Mapping[str, object]) -> dict:
    """Each preference listing's contracts, resolved against ``by_id``."""
    return {
        sid: _ranked_contracts(ids, by_id.__getitem__, f"preferences.{sid}")
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
        try:
            return ForwardSumScheme(tuple(tuple(sorted(d)) for d in rows))
        except InvalidInputError as exc:
            raise InstanceFormatError(str(exc), f"{where}.donors") from exc
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
        try:
            return TableScheme(entries)
        except InvalidInputError as exc:
            raise InstanceFormatError(str(exc), f"{where}.entries") from exc
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


def _market_from_document(doc: object) -> FlatMarket:
    """Parse an instance document straight to flat form, without
    validating. The form keeps none of the document's lists or objects, so a
    caller that drops the document frees it before the engine is built."""
    _check_schema(doc, INSTANCE_SCHEMA)
    types = _tuple_of(_expect(doc, "types", list, "$"), str, "types")

    claims = {}
    for n, row in enumerate(_expect(doc, "students", list, "$")):
        where = f"students[{n}]"
        sid = _expect(row, "id", str, where)
        if sid in claims:
            raise InstanceFormatError(f"duplicate student id {sid!r}", where)
        claimed = _tuple_of(_expect(row, "types", list, where), str, f"{where}.types")
        claims[sid] = frozenset(claimed)

    contracts, by_id = _contract_rows(doc)

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
    for sid in claims:
        preferences.setdefault(sid, ())
    profile = TypeProfile(types, claims)
    return FlatMarket(tuple(claims), profile, tuple(schools), contracts, preferences)


def instance_from_document(doc: object) -> ProblemInstance:
    """Parse an instance document without validating it."""
    return _market_from_document(doc).instance()


def _load_market(path) -> FlatMarket:
    """Parse and validate an instance file into flat form; every structural
    violation is collected and raised as one error. The parsed document is
    released before validation.

    The cyclic garbage collector is paused meanwhile, and left as the caller
    had it. Neither the document nor the flat form holds a reference cycle,
    so reference counting frees every dead object at once; the young
    collections the parse's allocations would set off find nothing to free,
    and only re-scan the live document, promote it to the old generation and
    so trigger full collections of the caller's whole heap."""
    enabled = gc.isenabled()
    try:
        gc.disable()
        market = _market_from_document(_read_json(path))
        violations = market.violations()
        if violations:
            raise ValidationError([f"{path}: {v}" for v in violations])
        return market
    finally:
        if enabled:
            gc.enable()


def load_instance(path) -> ProblemInstance:
    """Parse and validate an instance file; every structural violation is
    collected and raised as one error. :func:`instance_from_document` parses
    without validating."""
    return _load_market(path).instance()


def save_instance(instance: ProblemInstance, path) -> None:
    _write_json(instance_to_document(instance), path)


def save_allocation(allocation: Iterable[Contract], path) -> None:
    doc = {
        "schema": ALLOCATION_SCHEMA,
        "contracts": [contract_id(c) for c in sorted(allocation)],
    }
    _write_json(doc, path)


def load_allocation(path, instance: ProblemInstance) -> frozenset:
    """An allocation file's contracts, each id resolved by
    :func:`_contract_of` among the instance's contracts."""
    return frozenset(_read_allocation(path, instance.contracts, instance))


def _read_allocation(
    path, contracts: Container[Contract], market: FlatMarket | ProblemInstance
) -> tuple:
    """An allocation file's contracts in file order, each id resolved by
    :func:`_contract_of` among ``contracts``, the contracts of ``market``."""
    doc = _read_json(path)
    _check_schema(doc, ALLOCATION_SCHEMA)
    ids = _expect(doc, "contracts", list, "$")
    ats = 1 + max((s.count("@") for s in market.students), default=0)
    colons = 1 + max((cfg.school.count(":") for cfg in market.schools), default=0)
    resolved = _ranked_contracts(
        ids, lambda cid: _contract_of(cid, contracts, ats, colons), "contracts"
    )
    if len(set(resolved)) != len(resolved):
        seen = set()
        for n, c in enumerate(resolved):
            if c in seen:
                raise InstanceFormatError(f"duplicate contract id {ids[n]!r}", f"contracts[{n}]")
            seen.add(c)
    return resolved


def _contract_of(cid: str, contracts: Container[Contract], ats: int, colons: int) -> Contract:
    """The contract in ``contracts`` whose canonical id ``student@school:type``
    is ``cid``; ``KeyError`` when there is none, ``TypeError`` when ``cid``
    is not a string.

    ``cid`` is cut at each of its first ``ats`` "@" and, after each, at each
    of the first ``colons`` ":" that follow it, in that order, and the first
    cut that is a contract in ``contracts`` is returned. A contract's id is
    cut back into it at the "@" after its student and the ":" after its
    school, so every contract is reached when no student id holds ``ats``
    "@" and no school id ``colons`` ":". The cut is exact on every validated
    market, because ``FlatMarket.violations`` refuses two contracts that
    share one id: any cut that is a contract has ``cid`` as that contract's
    id. The bounds come from the market, so an id with many separators costs
    no more cuts than the market's own ids can need."""
    at = str.find(cid, "@")  # a TypeError when ``cid`` is not a string
    while at >= 0 and ats:
        ats -= 1
        colon = cid.find(":", at + 1)
        cuts = colons
        while colon >= 0 and cuts:
            cuts -= 1
            c = tuple.__new__(Contract, (cid[:at], cid[at + 1 : colon], cid[colon + 1 :]))
            if c in contracts:
                return c
            colon = cid.find(":", colon + 1)
        at = cid.find("@", at + 1)
    raise KeyError(cid)


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
    contracts, index = _contract_rows(doc)
    by_id = {cid: contracts[ci] for cid, ci in index.items()}
    slots = tuple(
        _ranked_contracts(slot, by_id.__getitem__, f"slots[{n}]")
        for n, slot in enumerate(_expect(doc, "slots", list, "$"))
    )
    school = SlotSpecificSchool(school_id, contracts, slots)
    preferences = _preferences_from_doc(doc, by_id)
    return school, {sid: PreferenceOrder(sid, ranked) for sid, ranked in preferences.items()}
