"""Bitmask execution core.

Instances are compiled once into dense integer indices: contracts become bit
positions, contract sets become ints, and school choices become straight-line
loops over precomputed priority arrays. The public modules keep the readable
set-based semantics; everything that runs a choice function or the cumulative
offer process thousands of times goes through here. An equivalence test pins
this engine to the reference implementation in :mod:`reservematch.choice`.
"""

from __future__ import annotations

from typing import Iterable, Mapping, Optional, Sequence

from .choice import SchoolConfig, SlotSpecificSchool
from .errors import InvalidInputError
from .instance import ProblemInstance
from .model import Contract, PreferenceOrder


def bits(mask: int):
    """Yield set bit positions, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CompiledSchool:
    """A dynamic reserves choice function over contract bitmasks."""

    __slots__ = ("config", "mask", "groups", "targets", "scheme", "student_bit", "student_mask")

    def __init__(self, config: SchoolConfig, owner: "Compiled"):
        self.config = config
        self.targets = config.targets
        self.scheme = config.scheme
        self.student_bit = owner.student_bit
        self.student_mask = owner.student_mask
        mask = 0
        by_type: dict[str, list[tuple[int, int]]] = {}
        for ci, c in enumerate(owner.contracts):
            if c.school != config.school:
                continue
            mask |= 1 << ci
            rank = config.priority.rank(c.student)
            if rank is not None:
                by_type.setdefault(c.privilege, []).append((rank, ci))
        self.mask = mask
        self.groups = []
        for privilege in config.precedence:
            ranked = tuple(ci for _, ci in sorted(by_type.get(privilege, ())))
            self.groups.append(ranked)

    def choose(self, mask: int, completion: bool = False) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        """Return (chosen mask, residuals, realized capacities)."""
        avail = mask & self.mask
        residuals: list[int] = []
        caps: list[int] = []
        chosen = 0
        for k, ranked in enumerate(self.groups):
            cap = self.targets[0] if k == 0 else self.scheme.capacity(k, tuple(residuals), self.targets)
            picked = 0
            taken = 0
            if cap > 0:
                for ci in ranked:
                    if (avail >> ci) & 1:
                        picked |= 1 << ci
                        taken += 1
                        if taken >= cap:
                            break
            residuals.append(cap - taken)
            caps.append(cap)
            chosen |= picked
            if completion:
                avail &= ~picked
            else:
                for ci in bits(picked):
                    avail &= ~self.student_mask[self.student_bit[ci]]
        return chosen, tuple(residuals), tuple(caps)


class CompiledSlotSchool:
    """A slot-specific choice function over contract bitmasks."""

    __slots__ = ("school", "mask", "slots", "student_bit", "student_mask")

    def __init__(self, school: SlotSpecificSchool, owner: "Compiled"):
        self.school = school
        self.student_bit = owner.student_bit
        self.student_mask = owner.student_mask
        index = owner.index
        self.mask = 0
        for c in school.contracts:
            self.mask |= 1 << index[c]
        self.slots = tuple(tuple(index[c] for c in slot) for slot in school.slots)

    def choose(self, mask: int, completion: bool = False) -> tuple[int, tuple[int, ...], tuple[int, ...]]:
        avail = mask & self.mask
        chosen = 0
        residuals: list[int] = []
        for slot in self.slots:
            pick = -1
            for ci in slot:
                if (avail >> ci) & 1:
                    pick = ci
                    break
            if pick >= 0:
                chosen |= 1 << pick
                avail &= ~self.student_mask[self.student_bit[pick]]
                residuals.append(0)
            else:
                residuals.append(1)
        return chosen, tuple(residuals), (1,) * len(self.slots)


class Compiled:
    """A problem instance lowered to integer indices and bitmasks."""

    def __init__(
        self,
        contracts: Sequence[Contract],
        students: Sequence[str],
        schools: Sequence,
        preferences: Mapping[str, PreferenceOrder],
    ):
        self.contracts = tuple(sorted(contracts))
        self.index = {c: n for n, c in enumerate(self.contracts)}
        self.students = tuple(students)
        self.student_index = {s: n for n, s in enumerate(self.students)}
        self.student_bit = tuple(self.student_index[c.student] for c in self.contracts)
        masks = [0] * len(self.students)
        for ci, c in enumerate(self.contracts):
            masks[self.student_bit[ci]] |= 1 << ci
        self.student_mask = tuple(masks)
        self.schools = []
        self.school_index: dict[str, int] = {}
        for cfg in schools:
            self.school_index[cfg.school] = len(self.schools)
            if isinstance(cfg, SlotSpecificSchool):
                self.schools.append(CompiledSlotSchool(cfg, self))
            else:
                self.schools.append(CompiledSchool(cfg, self))
        self.school_of = tuple(self.school_index[c.school] for c in self.contracts)
        self._set_preferences(preferences)

    @classmethod
    def from_instance(cls, instance: ProblemInstance) -> "Compiled":
        return cls(sorted(instance.contracts), instance.students, instance.schools, instance.preferences)

    def _set_preferences(self, preferences: Mapping[str, PreferenceOrder]) -> None:
        acc: list[tuple[int, ...]] = []
        for s in self.students:
            pref = preferences.get(s)
            ranked = pref.ranked if pref is not None else ()
            acc.append(tuple(self.index[c] for c in ranked if c in self.index))
        self.acceptable = tuple(acc)

    def with_preferences(self, preferences: Mapping[str, PreferenceOrder]) -> "Compiled":
        clone = object.__new__(Compiled)
        clone.__dict__.update(self.__dict__)
        clone._set_preferences(preferences)
        return clone

    # ------------------------------------------------------------------
    # set <-> mask helpers

    def to_mask(self, contracts: Iterable[Contract]) -> int:
        mask = 0
        for c in contracts:
            mask |= 1 << self.index[c]
        return mask

    def to_set(self, mask: int) -> frozenset:
        return frozenset(self.contracts[ci] for ci in bits(mask))

    def default_order_rank(self) -> tuple[int, ...]:
        """Proposal ranks for the canonical order: students sorted by id and,
        within a student, acceptable contracts best first, then the rest."""
        order: list[int] = []
        for s in sorted(self.students):
            si = self.student_index[s]
            listed = self.acceptable[si]
            rest = self.student_mask[si]
            for ci in listed:
                rest &= ~(1 << ci)
            order.extend(listed)
            order.extend(bits(rest))  # index order is contract order
        # every contract is in some student's mask, so only a preference that
        # lists another student's contract can make the order too long
        if len(order) != len(self.contracts):
            raise InvalidInputError("proposal order must be a permutation of all contracts")
        rank = [0] * len(order)
        for pos, ci in enumerate(order):
            rank[ci] = pos
        return tuple(rank)

    def order_rank(self, order: Sequence[Contract]) -> tuple[int, ...]:
        if sorted(order) != list(self.contracts):
            raise InvalidInputError("proposal order must be a permutation of all contracts")
        rank = [0] * len(self.contracts)
        for pos, c in enumerate(order):
            rank[self.index[c]] = pos
        return tuple(rank)

    # ------------------------------------------------------------------
    # cumulative offer process

    def cop(self, order_rank: Sequence[int], transcript: Optional[list] = None) -> int:
        """Run the cumulative offer process; returns the held-contract mask.

        Each step proposes the order-minimal contract among every unheld
        student's best not-yet-proposed acceptable contract, then lets the
        proposee school re-choose from everything it has accumulated.
        """
        n_students = len(self.students)
        available = 0
        held_by_school = [0] * len(self.schools)
        held_students_by_school = [0] * len(self.schools)
        held_students = 0
        ptr = [0] * n_students
        acceptable = self.acceptable
        while True:
            best = -1
            best_rank = len(self.contracts) + 1
            for si in range(n_students):
                if (held_students >> si) & 1:
                    continue
                lst = acceptable[si]
                p = ptr[si]
                while p < len(lst) and (available >> lst[p]) & 1:
                    p += 1
                ptr[si] = p
                if p < len(lst):
                    ci = lst[p]
                    r = order_rank[ci]
                    if r < best_rank:
                        best_rank = r
                        best = ci
            if best < 0:
                break
            available |= 1 << best
            s = self.school_of[best]
            school = self.schools[s]
            held = school.choose(available)[0]
            held_by_school[s] = held
            stu = 0
            for ci in bits(held):
                stu |= 1 << self.student_bit[ci]
            held_students_by_school[s] = stu
            held_students = 0
            for m in held_students_by_school:
                held_students |= m
            if transcript is not None:
                transcript.append((best, available, tuple(held_by_school)))
        out = 0
        for m in held_by_school:
            out |= m
        return out

    def proposable(self, available: int, held_students: int) -> int:
        """Mask of contracts currently proposable (used for transcripts)."""
        out = 0
        for si in range(len(self.students)):
            if (held_students >> si) & 1:
                continue
            for ci in self.acceptable[si]:
                if not (available >> ci) & 1:
                    out |= 1 << ci
                    break
        return out
