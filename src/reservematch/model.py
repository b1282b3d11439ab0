"""Core domain types: contracts, preferences, priorities, and allocations.

A contract is a (student, school, privilege) triple; students rank contracts,
schools rank students. Everything here is an immutable value object, safe to
share across threads and to use as dict keys.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Iterable, Mapping, NamedTuple, Optional

from .errors import InvalidInputError

__all__ = [
    "Contract",
    "TypeProfile",
    "PreferenceOrder",
    "PriorityOrder",
    "DerivedTypePriority",
    "Allocation",
    "assignments",
    "derive_type_priority",
    "student_choice",
    "pareto_dominates",
]


class Contract(NamedTuple):
    """A possible match between a student and a school under one privilege type.

    A named tuple, so hashing, equality and ordering (by student, school,
    privilege) run in C: load, validation and compile hash every contract
    several times.
    """

    student: str
    school: str
    privilege: str

    def __repr__(self) -> str:
        return f"<{self.student}@{self.school}:{self.privilege}>"


#: An allocation is a set of contracts with at most one contract per student
#: and no school over its physical capacity. Represented as a plain frozenset;
#: the invariants are enforced where allocations are produced or validated.
Allocation = frozenset


@dataclass(frozen=True)
class TypeProfile:
    """The privilege-type universe and each student's claimable subset."""

    types: tuple[str, ...]
    claims: Mapping[str, frozenset]


def _index_map(items: tuple) -> dict:
    return {x: n for n, x in enumerate(items)}


@dataclass(frozen=True)
class PreferenceOrder:
    """A student's strict ranking of their acceptable contracts, best first.

    Contracts omitted from ``ranked`` sit below the outside option: the
    student would rather stay unmatched than sign them.
    """

    student: str
    ranked: tuple[Contract, ...]
    _pos: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_pos", _index_map(self.ranked))

    def accepts(self, contract: Contract) -> bool:
        return contract in self._pos

    def rank(self, outcome: Optional[Contract]) -> int:
        """Position of ``outcome`` with the outside option ranked after every
        acceptable contract and all unacceptable contracts tied below it."""
        if outcome is None:
            return len(self.ranked)
        return self._pos.get(outcome, len(self.ranked) + 1)

    def prefers(self, a: Optional[Contract], b: Optional[Contract]) -> bool:
        """Strict preference; ``None`` stands for remaining unmatched."""
        return self.rank(a) < self.rank(b)


@dataclass(frozen=True)
class PriorityOrder:
    """A school's strict ranking of the students it finds acceptable.

    Students omitted from ``ranked`` are unacceptable to the school (for
    instance, below a test-score threshold) and are never chosen.
    """

    school: str
    ranked: tuple[str, ...]
    _pos: dict = field(init=False, repr=False, compare=False, hash=False)

    def __post_init__(self):
        object.__setattr__(self, "_pos", _index_map(self.ranked))

    def accepts(self, student: str) -> bool:
        return student in self._pos

    def rank(self, student: str) -> Optional[int]:
        return self._pos.get(student)


@dataclass(frozen=True)
class DerivedTypePriority:
    """A school's priority restricted to students claiming one privilege.

    Never authored directly; always produced by :func:`derive_type_priority`.
    """

    school: str
    privilege: str
    ranked: tuple[str, ...]


def derive_type_priority(
    priority: PriorityOrder, privilege: str, profile: TypeProfile
) -> DerivedTypePriority:
    """Restrict a school's priority order to claimants of ``privilege``.

    Acceptable students who claim the privilege keep their relative order;
    everyone else becomes unacceptable for this privilege.
    """
    if privilege not in profile.types:
        raise InvalidInputError(f"unknown privilege type {privilege!r}")
    kept = tuple(
        s for s in priority.ranked if privilege in profile.claims.get(s, frozenset())
    )
    return DerivedTypePriority(priority.school, privilege, kept)


def student_choice(offers: Iterable[Contract], pref: PreferenceOrder) -> Optional[Contract]:
    """The student's most preferred acceptable contract among ``offers``.

    Returns ``None`` when nothing offered beats staying unmatched.
    """
    best = None
    best_rank = len(pref.ranked)
    for c in offers:
        r = pref._pos.get(c)
        if r is not None and r < best_rank:
            best, best_rank = c, r
    return best


def assignments(allocation: Iterable[Contract]) -> dict:
    """Map each student to their contract, rejecting double assignments."""
    out: dict = {}
    for c in allocation:
        if c.student in out:
            raise InvalidInputError(f"student {c.student!r} holds two contracts")
        out[c.student] = c
    return out


def pareto_dominates(
    y: Iterable[Contract], z: Iterable[Contract], prefs: Mapping[str, PreferenceOrder]
) -> bool:
    """True when every student weakly prefers ``y`` to ``z`` and at least one
    strictly does."""
    ya = assignments(y)
    za = assignments(z)
    unknown = (set(ya) | set(za)) - set(prefs)
    if unknown:
        raise InvalidInputError(f"no preferences for students {sorted(unknown)}")
    strict = False
    for student, pref in prefs.items():
        ry = pref.rank(ya.get(student))
        rz = pref.rank(za.get(student))
        if ry > rz:
            return False
        if ry < rz:
            strict = True
    return strict
