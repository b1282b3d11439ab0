"""Dynamic reserves choice functions and capacity transfer schemes.

A school partitions its seats into groups of slots, each reserved for one
privilege type, and fills the groups in a fixed precedence order. Seats left
vacant by a group can be transferred to later groups through a capacity
transfer scheme, which maps the vector of upstream vacancies to each group's
dynamic capacity. The overall choice chains q-responsive sub-choices, one per
group, removing every contract of a student as soon as one of their contracts
is chosen. The completion variant keeps a chosen student's other contracts in
play, which is what makes it substitutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Mapping, Optional, Union

from .errors import InvalidInputError, SearchCapExceededError
from .model import Contract, DerivedTypePriority, PriorityOrder, TypeProfile

__all__ = [
    "ForwardSumScheme",
    "TableScheme",
    "CapacityTransferScheme",
    "SchoolConfig",
    "GroupRecord",
    "ChoiceTrace",
    "MonotonicityReport",
    "capacity_table",
    "check_monotonic",
    "sub_choice",
    "dynamic_reserves_choice",
    "completion_choice",
    "SlotSpecificSchool",
    "slot_specific_choice",
    "ConvertedSlotSpecific",
    "convert_slot_specific",
]


@dataclass(frozen=True)
class ForwardSumScheme:
    """Transfer scheme that forwards donor groups' vacancies at unit weight.

    ``donors[k]`` lists the earlier groups whose residual vacancies feed group
    ``k``; ``donors[0]`` must be empty since the first group always runs at
    its target capacity. A vacancy already spent by an earlier recipient is
    not granted twice: recipients are settled in precedence order and each
    donor's remaining balance is drawn down earliest-donor-first, so the
    realized capacity stays a pure function of the residual vector.

    When every donor group feeds at most one recipient the scheme is monotone
    by construction (see :meth:`certified_monotone`).
    """

    donors: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if self.donors and self.donors[0]:
            raise InvalidInputError("the first group of slots cannot receive transfers")
        for k, ds in enumerate(self.donors):
            if len(set(ds)) != len(ds):
                raise InvalidInputError(f"group {k}: duplicate donor entries {ds}")
            if any(d < 0 or d >= k for d in ds):
                raise InvalidInputError(f"group {k}: donors {ds} must be earlier groups")

    def capacity(self, k: int, residuals: tuple[int, ...], targets: tuple[int, ...]) -> int:
        if k == 0:
            return targets[0]
        consumed = [0] * k
        for m in range(1, k):
            dm = self.donors[m]
            if not dm:
                continue
            inflow = sum(residuals[j] - consumed[j] for j in dm)
            spent = max(0, inflow - residuals[m])
            for j in sorted(dm):
                take = min(spent, residuals[j] - consumed[j])
                consumed[j] += take
                spent -= take
        return targets[k] + sum(residuals[j] - consumed[j] for j in self.donors[k])

    def certified_monotone(self) -> bool:
        """True when no group donates to more than one recipient, a shape for
        which both monotonicity conditions hold for every residual vector."""
        seen: set[int] = set()
        for ds in self.donors:
            for d in ds:
                if d in seen:
                    return False
                seen.add(d)
        return True


@dataclass(frozen=True)
class TableScheme:
    """Transfer scheme given pointwise as residual-vector -> capacity tables.

    ``entries[k]`` overrides group ``k``'s capacity for the listed residual
    vectors; any vector not listed falls back to the group's target capacity.
    """

    entries: Mapping[int, Mapping[tuple[int, ...], int]]

    def __post_init__(self):
        for k, table in self.entries.items():
            if k <= 0:
                raise InvalidInputError("table entries start at the second group")
            for vec, cap in table.items():
                if len(vec) != k:
                    raise InvalidInputError(
                        f"group {k}: residual vector {vec} must have length {k}"
                    )
                if any(r < 0 for r in vec) or cap < 0:
                    raise InvalidInputError(f"group {k}: negative entry in {vec} -> {cap}")

    @classmethod
    def pinned(
        cls, table: Mapping[tuple[int, ...], int], targets: tuple[int, ...]
    ) -> TableScheme:
        """The scheme granting a :func:`capacity_table`, listing only the
        entries that differ from the group's target."""
        entries: dict[int, dict[tuple[int, ...], int]] = {}
        for vec, cap in table.items():
            if cap != targets[len(vec)]:
                entries.setdefault(len(vec), {})[vec] = cap
        return cls(entries)

    def capacity(self, k: int, residuals: tuple[int, ...], targets: tuple[int, ...]) -> int:
        if k == 0:
            return targets[0]
        return self.entries.get(k, {}).get(tuple(residuals), targets[k])

    def certified_monotone(self) -> bool:
        return False


CapacityTransferScheme = Union[ForwardSumScheme, TableScheme]


@dataclass(frozen=True)
class SchoolConfig:
    """Everything a school needs to run its dynamic reserves choice."""

    school: str
    capacity: int
    priority: PriorityOrder
    precedence: tuple[str, ...]
    targets: tuple[int, ...]
    scheme: CapacityTransferScheme

    def __post_init__(self):
        if len(self.precedence) != len(self.targets):
            raise InvalidInputError(
                f"school {self.school}: {len(self.precedence)} groups but "
                f"{len(self.targets)} targets"
            )
        if not self.precedence:
            raise InvalidInputError(f"school {self.school}: needs at least one group")

    @property
    def group_count(self) -> int:
        return len(self.precedence)

    def dynamic_capacity(self, k: int, residuals: tuple[int, ...]) -> int:
        return self.scheme.capacity(k, residuals, self.targets)


@dataclass(frozen=True)
class GroupRecord:
    """One group's step in a choice run: what it saw, took, and left vacant."""

    group: int
    privilege: str
    available: frozenset
    capacity: int
    chosen: frozenset
    residual: int


@dataclass(frozen=True)
class ChoiceTrace:
    """Group-by-group evidence of a single choice-function evaluation."""

    school: str
    groups: tuple[GroupRecord, ...]
    chosen: frozenset

    @property
    def residuals(self) -> tuple[int, ...]:
        return tuple(g.residual for g in self.groups)

    @property
    def capacities(self) -> tuple[int, ...]:
        return tuple(g.capacity for g in self.groups)


@dataclass(frozen=True)
class MonotonicityReport:
    """Verdict of :func:`check_monotonic`. On failure, ``low`` and ``high``
    are the first violating unit step (``high`` raises one coordinate of
    ``low`` by one) for ``group``, and ``condition`` names the condition
    that fails there."""

    ok: bool
    group: Optional[int] = None
    low: Optional[tuple[int, ...]] = None
    high: Optional[tuple[int, ...]] = None
    condition: Optional[int] = None

    def __bool__(self) -> bool:
        return self.ok


def capacity_table(
    scheme: CapacityTransferScheme, targets: tuple[int, ...], bound: int
) -> dict[tuple[int, ...], int]:
    """The scheme read over its bounded residual domain.

    Maps every residual vector ``v`` in ``[0, bound]^k`` to the capacity of
    group ``k = len(v)``, for groups 1 to G-1 (group 0 always runs at its
    target). Keys run in group order, then lexicographically, so every
    vector's prefixes come before it.
    """
    return {
        vec: scheme.capacity(k, vec, targets)
        for k in range(1, len(targets))
        for vec in itertools.product(range(bound + 1), repeat=k)
    }


def _require_steps(groups: int, bound: int, cap: int = 2_000_000) -> None:
    """Refuse a check of more than ``cap`` unit steps ``(v, v + e_i)``
    inside ``[0, bound]^k``, over groups 1 to G-1."""
    needed = sum(k * bound * (bound + 1) ** (k - 1) for k in range(1, groups))
    if needed > cap:
        raise SearchCapExceededError(needed, cap, "monotonicity step enumeration")


def _table_report(table: Mapping[tuple[int, ...], int], bound: int) -> MonotonicityReport:
    """Check both monotonicity conditions on a :func:`capacity_table`, one
    unit step at a time, and return the first violating step.
    ``cumulative[v]`` is ``sum_{m<=len(v)} cap_m(v[:m])``."""
    cumulative = {(): 0}
    for vec, cap in table.items():
        cumulative[vec] = cumulative[vec[:-1]] + cap
    for low, cap in table.items():
        for i, r in enumerate(low):
            if r == bound:
                continue
            high = low[:i] + (r + 1,) + low[i + 1 :]
            if table[high] < cap:
                return MonotonicityReport(False, len(low), low, high, condition=1)
            if cumulative[high] - cumulative[low] > 1:
                return MonotonicityReport(False, len(low), low, high, condition=2)
    return MonotonicityReport(True)


def check_monotonic(
    scheme: CapacityTransferScheme,
    targets: tuple[int, ...],
    bound: int,
    pair_cap: int = 2_000_000,
) -> MonotonicityReport:
    """Exhaustively verify both monotonicity conditions over ``[0, bound]``.

    For every group ``k`` and every componentwise-ordered pair ``low <= high``
    of residual vectors, (1) the dynamic capacity ``cap_k`` must not shrink,
    and (2) the cumulative capacity gain ``sum_{m<=k} cap_m`` must not exceed
    the extra vacancies ``sum(high) - sum(low)`` feeding it.

    It suffices to check the unit steps ``(v, v + e_i)`` inside the box.
    Condition 1 says ``cap_k`` is non-decreasing on the grid, and condition 2
    says ``g_k(v) = sum_{m<=k} cap_m(v[:m]) - sum(v)`` is non-increasing.
    Any ``low <= high`` in the box is joined by a chain of unit steps that
    stays in the box (raise one coordinate at a time), and the change of
    either function along the chain telescopes into the sum of its step
    changes, so a function that moves the right way on every step moves the
    right way between every ordered pair. On a step that raises coordinate
    ``i`` the groups ``m <= i`` see the same prefix, so condition 2 reads
    ``sum_{m=i+1..k} (cap_m(high[:m]) - cap_m(low[:m])) <= 1``.

    Returns the first violating unit step as the witness (``low`` and
    ``high = low + e_i``), scanning groups in order, vectors in lexicographic
    order and coordinates left to right. Raises
    :class:`SearchCapExceededError` rather than sampling when there are more
    than ``pair_cap`` steps to check.
    """
    if bound < 0:
        raise InvalidInputError("bound must be non-negative")
    _require_steps(len(targets), bound, pair_cap)
    return _table_report(capacity_table(scheme, targets, bound), bound)


def sub_choice(
    offers: Iterable[Contract],
    capacity: int,
    privilege: str,
    ranking: Union[DerivedTypePriority, PriorityOrder],
) -> frozenset:
    """Pick up to ``capacity`` contracts naming ``privilege``, best-ranked
    students first; contracts of other schools, other types, or unranked
    students are filtered out. ``ranking`` is read only for its ``school``
    and ``ranked``, so a school's whole priority order serves too."""
    pos = {s: n for n, s in enumerate(ranking.ranked)}
    keyed = sorted(
        (pos[c.student], c)
        for c in offers
        if c.privilege == privilege and c.school == ranking.school and c.student in pos
    )
    return frozenset(c for _, c in keyed[: max(capacity, 0)])


def _run_groups(
    offers: Iterable[Contract], config: SchoolConfig, remove_whole_student: bool
) -> tuple[frozenset, ChoiceTrace]:
    available = {c for c in offers if c.school == config.school}
    residuals: list[int] = []
    records: list[GroupRecord] = []
    chosen_union: set = set()
    for k, privilege in enumerate(config.precedence):
        capacity = config.dynamic_capacity(k, tuple(residuals))
        snapshot = frozenset(available)
        picks = sub_choice(available, capacity, privilege, config.priority)
        records.append(
            GroupRecord(k, privilege, snapshot, capacity, picks, capacity - len(picks))
        )
        residuals.append(capacity - len(picks))
        chosen_union.update(picks)
        if remove_whole_student:
            taken = {c.student for c in picks}
            available = {c for c in available if c.student not in taken}
        else:
            available.difference_update(picks)
    chosen = frozenset(chosen_union)
    return chosen, ChoiceTrace(config.school, tuple(records), chosen)


def dynamic_reserves_choice(
    offers: Iterable[Contract], config: SchoolConfig
) -> tuple[frozenset, ChoiceTrace]:
    """The school's overall choice: run the groups in precedence order and,
    whenever a contract is chosen, drop the student's remaining contracts for
    the rest of the run. At most one contract per student is ever selected."""
    return _run_groups(offers, config, remove_whole_student=True)


def completion_choice(
    offers: Iterable[Contract], config: SchoolConfig
) -> tuple[frozenset, ChoiceTrace]:
    """Like :func:`dynamic_reserves_choice` except a chosen student's other
    contracts stay available to later groups, so two contracts of one student
    may be selected. Agrees with the overall choice whenever that happens not
    to occur, and satisfies rejection irrelevance, substitutability, and the
    law of aggregate demand."""
    return _run_groups(offers, config, remove_whole_student=False)


@dataclass(frozen=True)
class SlotSpecificSchool:
    """A school whose seats are individual slots with their own contract
    rankings, filled one slot at a time in precedence order."""

    school: str
    contracts: tuple[Contract, ...]
    slots: tuple[tuple[Contract, ...], ...]

    def __post_init__(self):
        universe = set(self.contracts)
        if len(universe) != len(self.contracts):
            raise InvalidInputError(f"school {self.school}: duplicate contracts")
        for c in self.contracts:
            if c.school != self.school:
                raise InvalidInputError(f"contract {c} does not belong to {self.school}")
        for n, slot in enumerate(self.slots):
            if len(set(slot)) != len(slot):
                raise InvalidInputError(f"slot {n}: duplicate entries")
            if not universe.issuperset(slot):
                raise InvalidInputError(f"slot {n}: ranks contracts outside the school")


def slot_specific_choice(offers: Iterable[Contract], school: SlotSpecificSchool) -> frozenset:
    """Fill each slot with its top-ranked remaining contract, skipping
    contracts of students already seated; unfillable slots stay empty."""
    pool = set(offers)
    taken_students: set = set()
    out: set = set()
    for slot in school.slots:
        for c in slot:
            if c in pool and c.student not in taken_students:
                out.add(c)
                taken_students.add(c.student)
                break
    return frozenset(out)


@dataclass(frozen=True)
class ConvertedSlotSpecific:
    """A dynamic reserves rule equivalent to some slot-specific rule.

    Each original contract gets its own artificial privilege type, so the
    converted config's sub-choices see exactly one contract each. ``mapping``
    rewrites original contracts into the artificial type space;
    :meth:`choice` does the round trip for you.
    """

    config: SchoolConfig
    profile: TypeProfile
    mapping: Mapping[Contract, Contract]
    inverse: Mapping[Contract, Contract]

    def choice(self, offers: Iterable[Contract]) -> frozenset:
        translated = [self.mapping[c] for c in offers if c in self.mapping]
        chosen, _ = dynamic_reserves_choice(translated, self.config)
        return frozenset(self.inverse[c] for c in chosen)


def convert_slot_specific(school: SlotSpecificSchool) -> ConvertedSlotSpecific:
    """Rebuild a slot-specific rule as a dynamic reserves rule.

    Every slot becomes a run of single-contract groups: the first group in
    the run holds the slot's one seat, and each later group inherits the
    seat exactly when the previous group left it vacant, i.e. when the more
    preferred contract was unavailable. Contracts no slot finds acceptable
    get trailing zero-capacity groups so every artificial type is covered.
    The resulting choice function selects the same set as the original on
    every offer set.
    """
    xs = sorted(school.contracts)
    if not xs:
        raise InvalidInputError(f"school {school.school}: no contracts to convert")
    tau = {c: f"v{n}" for n, c in enumerate(xs)}

    precedence: list[str] = []
    targets: list[int] = []
    donors: list[tuple[int, ...]] = []
    for slot in school.slots:
        for pos, c in enumerate(slot):
            precedence.append(tau[c])
            targets.append(1 if pos == 0 else 0)
            donors.append(() if pos == 0 else (len(precedence) - 2,))
    covered = set(precedence)
    for c in xs:
        if tau[c] not in covered:
            precedence.append(tau[c])
            targets.append(0)
            donors.append(())
            covered.add(tau[c])

    students = tuple(sorted({c.student for c in xs}))
    config = SchoolConfig(
        school=school.school,
        capacity=sum(targets),
        priority=PriorityOrder(school.school, students),
        precedence=tuple(precedence),
        targets=tuple(targets),
        scheme=ForwardSumScheme(tuple(donors)),
    )
    profile = TypeProfile(
        types=tuple(tau[c] for c in xs),
        claims={s: frozenset(tau[c] for c in xs if c.student == s) for s in students},
    )
    mapping = {c: Contract(c.student, c.school, tau[c]) for c in xs}
    inverse = {v: k for k, v in mapping.items()}
    return ConvertedSlotSpecific(config, profile, mapping, inverse)
