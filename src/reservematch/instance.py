"""Problem instances: the full bundle of students, schools, contracts, and
preferences, plus validation of every structural invariant."""

from __future__ import annotations

from dataclasses import dataclass, replace
from typing import Mapping

from .choice import SchoolConfig, check_monotonic
from .errors import SearchCapExceededError
from .model import PreferenceOrder, TypeProfile

__all__ = ["ProblemInstance", "validate_instance"]


@dataclass(frozen=True)
class ProblemInstance:
    """An instance of the matching problem.

    ``contracts`` is the explicit contract universe; every preference and
    every choice-function evaluation ranges over it.
    """

    students: tuple[str, ...]
    profile: TypeProfile
    schools: tuple[SchoolConfig, ...]
    contracts: frozenset
    preferences: Mapping[str, PreferenceOrder]

    def school(self, school_id: str) -> SchoolConfig:
        for s in self.schools:
            if s.school == school_id:
                return s
        raise KeyError(school_id)

    def contracts_of(self, student: str) -> frozenset:
        return frozenset(c for c in self.contracts if c.student == student)

    def with_preferences(self, preferences: Mapping[str, PreferenceOrder]) -> "ProblemInstance":
        return replace(self, preferences=dict(preferences))

    def with_school(self, config: SchoolConfig) -> "ProblemInstance":
        updated = tuple(config if s.school == config.school else s for s in self.schools)
        return replace(self, schools=updated)


def validate_instance(instance: ProblemInstance) -> list[str]:
    """Return every invariant violation found; an empty list means valid.

    Checks id uniqueness and cross-references, the type profile, preference
    and priority well-formedness, target accounting per school, and that each
    transfer scheme is monotone over the bounded residual domain (by
    structural certificate when available, exhaustively otherwise).
    """
    v: list[str] = []
    students = instance.students
    if len(set(students)) != len(students):
        v.append("duplicate student ids")
    student_set = set(students)

    profile = instance.profile
    if len(set(profile.types)) != len(profile.types):
        v.append("duplicate privilege type ids")
    type_set = set(profile.types)
    for s in students:
        claimed = profile.claims.get(s)
        if claimed is None:
            v.append(f"student {s}: no claimable type set")
        elif not claimed:
            v.append(f"student {s}: claimable type set is empty")
        elif not claimed <= type_set:
            v.append(f"student {s}: claims unknown types {sorted(claimed - type_set)}")
    for s in profile.claims:
        if s not in student_set:
            v.append(f"type profile names unknown student {s}")

    school_ids = [cfg.school for cfg in instance.schools]
    if len(set(school_ids)) != len(school_ids):
        v.append("duplicate school ids")
    school_set = set(school_ids)

    for c in instance.contracts:
        if c.student not in student_set:
            v.append(f"contract {c}: unknown student")
        if c.school not in school_set:
            v.append(f"contract {c}: unknown school")
        if c.privilege not in type_set:
            v.append(f"contract {c}: unknown privilege type")
        elif c.privilege not in profile.claims.get(c.student, frozenset()):
            v.append(f"contract {c}: student cannot claim this privilege")

    for s in instance.preferences:
        if s not in student_set:
            v.append(f"preference order for unknown student {s}")
    for s in students:
        pref = instance.preferences.get(s)
        if pref is None:
            v.append(f"student {s}: no preference order")
            continue
        if pref.student != s:
            v.append(f"student {s}: preference order labelled {pref.student}")
        if len(set(pref.ranked)) != len(pref.ranked):
            v.append(f"student {s}: duplicate entries in preference order")
        for c in pref.ranked:
            if c not in instance.contracts:
                v.append(f"student {s}: ranks unknown contract {c}")
            elif c.student != s:
                v.append(f"student {s}: ranks another student's contract {c}")

    for cfg in instance.schools:
        where = f"school {cfg.school}"
        if cfg.capacity < 0:
            v.append(f"{where}: negative capacity")
        if len(set(cfg.priority.ranked)) != len(cfg.priority.ranked):
            v.append(f"{where}: duplicate students in priority order")
        for s in cfg.priority.ranked:
            if s not in student_set:
                v.append(f"{where}: priority order names unknown student {s}")
        missing = type_set - set(cfg.precedence)
        if missing:
            v.append(f"{where}: precedence sequence never covers types {sorted(missing)}")
        for t in cfg.precedence:
            if t not in type_set:
                v.append(f"{where}: precedence names unknown type {t}")
        if any(t < 0 for t in cfg.targets):
            v.append(f"{where}: negative group target")
        if sum(cfg.targets) != cfg.capacity:
            v.append(
                f"{where}: group targets sum to {sum(cfg.targets)}, capacity is {cfg.capacity}"
            )
        v.extend(_scheme_violations(cfg))
    return v


def _scheme_violations(cfg: SchoolConfig) -> list[str]:
    where = f"school {cfg.school}"
    scheme = cfg.scheme
    shape = getattr(scheme, "donors", None)
    if shape is not None and len(shape) != cfg.group_count:
        return [f"{where}: scheme covers {len(shape)} groups, school has {cfg.group_count}"]
    entries = getattr(scheme, "entries", None)
    if entries is not None:
        for k, table in entries.items():
            if k >= cfg.group_count:
                return [f"{where}: scheme table addresses nonexistent group {k}"]
            zero = (0,) * k
            if zero in table and table[zero] != cfg.targets[k]:
                return [
                    f"{where}: group {k} capacity at the all-zero residual vector "
                    f"must equal its target {cfg.targets[k]}"
                ]
    if scheme.certified_monotone():
        return []
    try:
        report = check_monotonic(scheme, cfg.targets, bound=cfg.capacity)
    except SearchCapExceededError as exc:
        return [f"{where}: cannot verify scheme monotonicity ({exc})"]
    if not report.ok:
        return [
            f"{where}: scheme not monotone (condition {report.condition} fails for "
            f"group {report.group} between residuals {report.low} and {report.high})"
        ]
    return []
