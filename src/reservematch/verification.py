"""Stability checking and choice-function axiom verification.

``is_stable`` tests the three stability conditions: students hold acceptable
contracts, schools would re-choose exactly what they hold, and no school can
assemble a blocking set of contracts that it would accept and whose students
would all take. The axiom checkers run a choice function over every subset of
a contract pool and verify rejection irrelevance, substitutability, the law
of aggregate demand, and the completion relationship. They read a
:class:`ChoiceTable`, built once per choice function and pool, and the
builders are exhaustive or they refuse, never sampled.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from math import comb
from typing import Callable, Iterable, Optional

from ._engine import Compiled, bits
from .choice import SchoolConfig, dynamic_reserves_choice
from .errors import InvalidInputError, SearchCapExceededError
from .instance import ProblemInstance
from .model import Contract

__all__ = [
    "StabilityReport",
    "is_stable",
    "find_blocking_set",
    "PropertyCheck",
    "check_irc",
    "check_substitutability",
    "check_lad",
    "check_completion",
    "ChoiceTable",
    "tabulate",
    "tabulate_school",
]


@dataclass(frozen=True)
class StabilityReport:
    """Outcome of a stability check, with a witness for every failure."""

    unacceptable_assignments: tuple[Contract, ...]
    school_choice_mismatch: Optional[tuple[str, frozenset, frozenset]]
    blocking: Optional[tuple[str, frozenset]]

    @property
    def students_ok(self) -> bool:
        return not self.unacceptable_assignments

    @property
    def schools_ok(self) -> bool:
        return self.school_choice_mismatch is None

    @property
    def unblocked(self) -> bool:
        return self.blocking is None

    @property
    def passed(self) -> bool:
        return self.students_ok and self.schools_ok and self.unblocked

    def __bool__(self) -> bool:
        return self.passed


def is_stable(y: Iterable[Contract], instance: ProblemInstance) -> StabilityReport:
    """Evaluate all three stability conditions for allocation ``y``."""
    y = frozenset(y)
    _require_allocation(y, instance)

    bad = tuple(
        sorted(c for c in y if not instance.preferences[c.student].accepts(c))
    )

    mismatch = None
    for cfg in instance.schools:
        held = frozenset(c for c in y if c.school == cfg.school)
        chosen, _ = dynamic_reserves_choice(y, cfg)
        if chosen != held:
            mismatch = (cfg.school, held, chosen)
            break

    blocking = None
    for cfg in instance.schools:
        z = find_blocking_set(y, cfg.school, instance)
        if z is not None:
            blocking = (cfg.school, z)
            break

    return StabilityReport(bad, mismatch, blocking)


def find_blocking_set(
    y: Iterable[Contract],
    school: str,
    instance: ProblemInstance,
    cap: int = 2_000_000,
) -> Optional[frozenset]:
    """Search for a blocking set at one school.

    A blocking set is a nonempty set of the school's contracts from outside
    ``y``, at most one per student, that the school would keep in full when
    offered on top of ``y`` and that every involved student strictly prefers
    to their current assignment. (Equivalently: the school's re-chosen
    portfolio would differ from its current one and be chosen by everyone in
    it. Allowing the set to overlap ``y`` would make any subset of a school's
    own held contracts "block", so blocking contracts must be new.)
    Candidates are enumerated smallest first, in lexicographic contract
    order, up to the school's capacity; the search refuses (rather than
    truncates) if the candidate count exceeds ``cap``.
    """
    y = frozenset(y)
    compiled = Compiled.from_instance(instance)
    cfg = instance.school(school)
    si = compiled.school_index[school]
    engine_school = compiled.schools[si]

    y_mask = compiled.to_mask(y)
    current = {c.student: c for c in y}

    # A contract can only belong to a blocking set if its student strictly
    # prefers it to their current assignment and the school could ever pick
    # it; filter before enumerating subsets.
    candidates = []
    for c in sorted(instance.contracts):
        if c.school != school or c in y or not cfg.priority.accepts(c.student):
            continue
        pref = instance.preferences[c.student]
        if not pref.accepts(c):
            continue
        if pref.rank(c) < pref.rank(current.get(c.student)):
            candidates.append(compiled.index[c])

    max_size = min(cfg.capacity, len(candidates))
    total = sum(comb(len(candidates), k) for k in range(1, max_size + 1))
    if total > cap:
        raise SearchCapExceededError(total, cap, f"blocking sets at school {school}")

    for size in range(1, max_size + 1):
        for combo in itertools.combinations(candidates, size):
            students = {compiled.student_bit[ci] for ci in combo}
            if len(students) != size:
                continue
            z_mask = 0
            for ci in combo:
                z_mask |= 1 << ci
            rechosen = engine_school.choose(y_mask | z_mask)[0]
            if rechosen & z_mask == z_mask:
                return compiled.to_set(z_mask)
    return None


def _require_allocation(y: frozenset, instance: ProblemInstance) -> None:
    problems = []
    stray = y - instance.contracts
    if stray:
        problems.append(f"unknown contracts {sorted(stray)}")
    per_student: dict[str, int] = {}
    for c in y:
        per_student[c.student] = per_student.get(c.student, 0) + 1
    doubled = [s for s, n in per_student.items() if n > 1]
    if doubled:
        problems.append(f"students with several contracts: {sorted(doubled)}")
    for cfg in instance.schools:
        load = sum(1 for c in y if c.school == cfg.school)
        if load > cfg.capacity:
            problems.append(f"school {cfg.school} over capacity ({load} > {cfg.capacity})")
    if problems:
        raise InvalidInputError("not an allocation: " + "; ".join(problems))


# ----------------------------------------------------------------------
# choice-function axioms, checked over every subset of a contract pool


@dataclass(frozen=True)
class PropertyCheck:
    holds: bool
    counterexample: Optional[tuple] = None

    def __bool__(self) -> bool:
        return self.holds


@dataclass(frozen=True)
class ChoiceTable:
    """A choice function evaluated on every subset of a contract pool.

    ``pool`` is sorted; bit ``i`` of a subset mask stands for ``pool[i]``, and
    ``chosen[m]`` is the mask of the contracts chosen from subset ``m``. Build
    one with :func:`tabulate_school` or :func:`tabulate` and hand the same
    table to every axiom check.
    """

    pool: tuple[Contract, ...]
    chosen: tuple[int, ...]

    def subset(self, mask: int) -> frozenset:
        return frozenset(self.pool[i] for i in bits(mask))


def _sorted_pool(contracts: Iterable[Contract], cap: int) -> tuple[Contract, ...]:
    pool = tuple(sorted(set(contracts)))
    if 2 ** len(pool) > cap:
        raise SearchCapExceededError(2 ** len(pool), cap, "subset enumeration")
    return pool


def tabulate_school(
    config: SchoolConfig,
    contracts: Iterable[Contract],
    completion: bool = False,
    cap: int = 1 << 14,
) -> ChoiceTable:
    """Tabulate a school's overall choice (or, with ``completion``, its
    completion) over every subset of ``contracts`` on the bitmask engine.
    The engine compiles the sorted pool, so a subset mask is an engine mask."""
    pool = _sorted_pool(contracts, cap)
    if any(c.school != config.school for c in pool):
        raise InvalidInputError(f"pool holds contracts of schools other than {config.school}")
    students = sorted({c.student for c in pool})
    school = Compiled(pool, students, [config], {}).schools[0]
    return ChoiceTable(
        pool, tuple(school.choose(m, completion)[0] for m in range(1 << len(pool)))
    )


def tabulate(
    choice: Callable[[frozenset], Iterable[Contract]],
    contracts: Iterable[Contract],
    cap: int = 1 << 14,
) -> ChoiceTable:
    """Tabulate any set-to-set choice function over every subset of
    ``contracts``. A choice may only pick from its offer set."""
    pool = _sorted_pool(contracts, cap)
    index = {c: i for i, c in enumerate(pool)}
    table = []
    for mask in range(1 << len(pool)):
        offers = frozenset(pool[i] for i in bits(mask))
        picked = frozenset(choice(offers))
        if not picked <= offers:
            raise InvalidInputError(
                f"choice picked {sorted(picked - offers)} from outside its offers"
            )
        table.append(sum(1 << index[c] for c in picked))
    return ChoiceTable(pool, tuple(table))


def check_irc(table: ChoiceTable) -> PropertyCheck:
    """Irrelevance of rejected contracts: dropping a rejected contract from
    the offer set never changes what is chosen. Counterexample: (Y, z) with
    z rejected from Y + z yet C(Y) != C(Y + z)."""
    chosen = table.chosen
    for mask, picked in enumerate(chosen):
        for z in bits(mask & ~picked):
            without = mask & ~(1 << z)
            if chosen[without] != picked:
                return PropertyCheck(False, (table.subset(without), table.pool[z]))
    return PropertyCheck(True)


def check_substitutability(table: ChoiceTable) -> PropertyCheck:
    """A contract rejected from an offer set stays rejected when the set
    grows. Counterexample: (Y, z, z2) with z rejected from Y + z but chosen
    from Y + z + z2."""
    chosen, pool = table.chosen, table.pool
    full = len(chosen) - 1
    for mask, picked in enumerate(chosen):
        for z in bits(mask & ~picked):
            for extra in bits(full & ~mask):
                if (chosen[mask | (1 << extra)] >> z) & 1:
                    y = table.subset(mask & ~(1 << z))
                    return PropertyCheck(False, (y, pool[z], pool[extra]))
    return PropertyCheck(True)


def check_lad(table: ChoiceTable) -> PropertyCheck:
    """Law of aggregate demand: larger offer sets never yield fewer chosen
    contracts. Single-element extensions are checked, which covers every
    nested pair by chaining. Counterexample: (Y, Y + z)."""
    chosen = table.chosen
    full = len(chosen) - 1
    for mask, picked in enumerate(chosen):
        size = picked.bit_count()
        for z in bits(full & ~mask):
            if chosen[mask | (1 << z)].bit_count() < size:
                y = table.subset(mask)
                return PropertyCheck(False, (y, y | {table.pool[z]}))
    return PropertyCheck(True)


def check_completion(base: ChoiceTable, candidate: ChoiceTable) -> PropertyCheck:
    """``candidate`` completes ``base`` when, on every offer set, it either
    agrees with ``base`` exactly or selects two contracts of one student.
    Counterexample: the offending offer set."""
    if base.pool != candidate.pool:
        raise InvalidInputError("completion check needs two tables over the same pool")
    for mask, (picked, expected) in enumerate(zip(candidate.chosen, base.chosen)):
        if picked == expected:
            continue
        students = [base.pool[i].student for i in bits(picked)]
        if len(set(students)) < len(students):
            continue
        return PropertyCheck(False, (base.subset(mask),))
    return PropertyCheck(True)
