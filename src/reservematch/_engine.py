"""Bitmask execution core.

Instances are compiled once into dense integer indices. Every contract has a
global index, its position in contract order, and each school gives its own
contracts local bits as well: a dynamic reserves school orders them by
(privilege type, priority rank) with unranked contracts last, and a
slot-specific school keeps contract order. A school's ``choose`` reads and
returns local masks, so a group's picks are the lowest set bits of
``offered & type_mask`` and a choice never touches another school's
contracts. ``Compiled.to_local`` and ``Compiled.to_global`` translate between
the two spaces; ``local_bit`` (indexed by global index) and each school's
``global_index`` (indexed by local bit) are the flat tables behind them.

A dynamic reserves school reads group ``k``'s capacity from its
``cap_table``, keyed by the residuals of groups ``0..k-1`` (the key's length
names the group), so a choice returns only its chosen mask and residuals:
the capacity group ``k`` ran at is ``cap_table[residuals[:k]]``. An entry is
read from the transfer scheme the first time a choice reaches its prefix and
kept, so a scheme is called once per prefix rather than once per group per
choice. The table is a memo of the scheme, which is a pure function of the
residuals, so it assumes nothing about monotonicity, and the order in which
it fills cannot change a choice. It is filled lazily because a market's
choices reach few of the prefixes in ``[0, capacity]^k``. Clones made by ``Compiled.with_preferences`` and
``Compiled.with_acceptable`` share the schools, and so their tables.

The cumulative offer process is event-driven. It keeps each school's offered
and held local masks, a held-contract count per student, and a heap of
``(order rank, student, pointer)`` entries for the students who may propose.
A step pops the order-minimal entry, skipping stale ones, offers that
contract, and lets only the proposee school re-choose. The counts change by
the bits of ``old ^ new`` of that school's held mask. A student goes back on
the heap when their proposal leaves them unheld or their count drops to 0,
not on every rejection: the overall choice is not substitutable, so a school
can take back a contract it rejected earlier, and only the count says
whether some school still holds the student. The process also returns its
dry set, the students who at some step stood unheld with their list used
up; the misreport search prunes on it.

A proposal is rejected without a re-choice when the school's last choice
shows it cannot change (``CompiledSchool.keeps``): every group of the
offered contract's type is full and the contract ranks below every held
contract of that type, or no group admits the contract at all. The process
keeps each school's residuals from its last ``choose`` for this test.
Slot-specific schools always re-choose. ``Compiled.cop`` gives the proof.

The public modules keep the readable set-based semantics; everything that
runs a choice function or the cumulative offer process thousands of times
goes through here. Equivalence tests pin the choices to the reference
implementation in :mod:`reservematch.choice`, and the process to a full-scan
oracle written over it.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from heapq import heapify, heappop, heappush
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


def _local_space(owner: "Compiled", order: Sequence[int]):
    """Give a school's contracts, listed by global index in ``order``, the
    local bits 0, 1, ... and record each in the owner's ``local_bit``.

    Returns the school's ``global_index`` (local bit -> global index),
    ``student_of`` (local bit -> student index) and ``peer`` (local bit ->
    local mask of that student's contracts at the school).
    """
    student_bit = owner.student_bit
    peers: dict[int, int] = {}
    for lb, ci in enumerate(order):
        owner.local_bit[ci] = lb
        peers[student_bit[ci]] = peers.get(student_bit[ci], 0) | 1 << lb
    student_of = tuple(student_bit[ci] for ci in order)
    return tuple(order), student_of, tuple(peers[si] for si in student_of)


class CompiledSchool:
    """A dynamic reserves choice function over the school's local bits."""

    __slots__ = (
        "groups", "targets", "scheme", "global_index", "student_of", "peer", "start",
        "type_masks", "type_groups", "cap_table",
    )

    def __init__(self, config: SchoolConfig, owner: "Compiled", members: Sequence[int]):
        self.targets = config.targets
        self.scheme = config.scheme
        # one position per privilege type, in order of first precedence; a
        # type can head several groups, and each of them reads the same mask
        position = {p: t for t, p in enumerate(dict.fromkeys(config.precedence))}
        last = len(position)
        contracts = owner.contracts
        keyed = []
        for ci in members:
            c = contracts[ci]
            rank = config.priority.rank(c.student)
            t = position.get(c.privilege)
            keyed.append((last, 0, ci) if rank is None or t is None else (t, rank, ci))
        keyed.sort()
        self.global_index, self.student_of, self.peer = _local_space(
            owner, [ci for _, _, ci in keyed]
        )
        # each type's ranked contracts are a run of consecutive local bits
        self.start = tuple(bisect_left(keyed, (t,)) for t in range(last + 1))
        self.type_masks = tuple(
            (1 << self.start[t + 1]) - (1 << self.start[t]) for t in range(last)
        )
        self.groups = tuple(self.type_masks[position[p]] for p in config.precedence)
        self.type_groups = tuple(
            tuple(k for k, p in enumerate(config.precedence) if position[p] == t)
            for t in range(last)
        )
        # group k's capacity keyed by the residuals of groups 0..k-1, read
        # from the scheme the first time a choice reaches that prefix
        self.cap_table: dict[tuple[int, ...], int] = {(): config.targets[0]}

    def choose(self, mask: int, completion: bool = False) -> tuple[int, tuple[int, ...]]:
        """Return (chosen local mask, residuals) for a local offer mask.
        Group ``k`` runs at ``cap_table[residuals[:k]]``, which this call
        fills if it is the first to reach that prefix."""
        avail = mask
        peer = self.peer
        table = self.cap_table
        residuals: tuple[int, ...] = ()
        chosen = 0
        for type_mask in self.groups:
            cap = table.get(residuals)
            if cap is None:
                k = len(residuals)
                cap = table[residuals] = self.scheme.capacity(k, residuals, self.targets)
            pool = avail & type_mask
            taken = 0
            while pool and taken < cap:
                low = pool & -pool
                pool ^= low
                chosen |= low
                taken += 1
                # one contract per student and type, so ``pool`` keeps no peer
                avail &= ~low if completion else ~peer[low.bit_length() - 1]
            residuals += (cap - taken,)
        return chosen, residuals

    def keeps(self, bit: int, held: int, residuals: Sequence[int]) -> bool:
        """True when the offer of local bit ``bit`` is rejected and changes
        nothing: ``choose(mask | 1 << bit)`` equals ``held``, the choice from
        ``mask``, whose residuals are ``residuals``. It holds when no group
        admits the bit (an unranked student, or a type outside the
        precedence), or when every group of the bit's type is full and the
        bit ranks below every contract of that type held. See ``Compiled.cop``
        for the proof."""
        t = bisect_right(self.start, bit) - 1
        if t == len(self.type_masks):
            return True
        above = bit > (held & self.type_masks[t]).bit_length() - 1
        return above and not any(residuals[k] for k in self.type_groups[t])


class CompiledSlotSchool:
    """A slot-specific choice function over the school's local bits, which
    follow contract order."""

    __slots__ = ("slots", "global_index", "student_of", "peer")

    def __init__(self, school: SlotSpecificSchool, owner: "Compiled", members: Sequence[int]):
        self.global_index, self.student_of, self.peer = _local_space(owner, members)
        index, local_bit = owner.index, owner.local_bit
        self.slots = tuple(tuple(local_bit[index[c]] for c in slot) for slot in school.slots)

    def choose(self, mask: int, completion: bool = False) -> tuple[int, tuple[int, ...]]:
        """Return (chosen local mask, residuals); every slot has capacity 1."""
        avail = mask
        chosen = 0
        residuals: list[int] = []
        for slot in self.slots:
            for lb in slot:
                if (avail >> lb) & 1:
                    chosen |= 1 << lb
                    avail &= ~self.peer[lb]
                    residuals.append(0)
                    break
            else:
                residuals.append(1)
        return chosen, tuple(residuals)

    def keeps(self, bit: int, held: int, residuals: Sequence[int]) -> bool:
        """Never: a slot-specific school always re-chooses."""
        return False


class Compiled:
    """A problem instance lowered to integer indices and bitmasks."""

    def __init__(
        self,
        contracts: Iterable[Contract],
        students: Sequence[str],
        schools: Sequence,
        preferences: Mapping[str, PreferenceOrder],
    ):
        self.contracts = tuple(sorted(contracts))
        self.index = {c: n for n, c in enumerate(self.contracts)}
        self.students = tuple(students)
        self.student_index = {s: n for n, s in enumerate(self.students)}
        self.student_bit = tuple(self.student_index[c.student] for c in self.contracts)
        own: list[list[int]] = [[] for _ in self.students]
        members: dict[str, list[int]] = {}
        for ci, c in enumerate(self.contracts):
            own[self.student_bit[ci]].append(ci)
            members.setdefault(c.school, []).append(ci)
        self.student_contracts = tuple(map(tuple, own))
        self.local_bit = [0] * len(self.contracts)
        self.schools = []
        self.school_index: dict[str, int] = {}
        for cfg in schools:
            self.school_index[cfg.school] = len(self.schools)
            cls = CompiledSlotSchool if isinstance(cfg, SlotSpecificSchool) else CompiledSchool
            self.schools.append(cls(cfg, self, members.get(cfg.school, ())))
        self.local_bit = tuple(self.local_bit)
        self.school_of = tuple(self.school_index[c.school] for c in self.contracts)
        self.acceptable = self._acceptable(preferences)

    @classmethod
    def from_instance(cls, instance: ProblemInstance) -> "Compiled":
        return cls(instance.contracts, instance.students, instance.schools, instance.preferences)

    def _acceptable(self, preferences: Mapping[str, PreferenceOrder]) -> tuple:
        acc: list[tuple[int, ...]] = []
        for s in self.students:
            pref = preferences.get(s)
            ranked = map(self.index.get, pref.ranked) if pref is not None else ()
            acc.append(tuple(ci for ci in ranked if ci is not None))
        return tuple(acc)

    def with_preferences(self, preferences: Mapping[str, PreferenceOrder]) -> "Compiled":
        return self.with_acceptable(self._acceptable(preferences))

    def with_acceptable(self, acceptable: tuple[tuple[int, ...], ...]) -> "Compiled":
        """A clone whose students report ``acceptable``: per student index,
        global contract indices, best first. Everything else, the schools'
        capacity tables included, is shared."""
        clone = object.__new__(Compiled)
        clone.__dict__.update(self.__dict__)
        clone.acceptable = acceptable
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

    def to_local(self, mask: int) -> list[int]:
        """Split a global mask into one local mask per school."""
        out = [0] * len(self.schools)
        school_of, local_bit = self.school_of, self.local_bit
        for ci in bits(mask):
            out[school_of[ci]] |= 1 << local_bit[ci]
        return out

    def to_global(self, school: int, local: int) -> int:
        """The global mask of a local mask of school number ``school``."""
        index = self.schools[school].global_index
        out = 0
        for lb in bits(local):
            out |= 1 << index[lb]
        return out

    def default_order_rank(self) -> tuple[int, ...]:
        """Proposal ranks for the canonical order: students sorted by id and,
        within a student, acceptable contracts best first, then the rest."""
        order: list[int] = []
        for s in sorted(self.students):
            si = self.student_index[s]
            listed = self.acceptable[si]
            order.extend(listed)
            listed_set = set(listed)
            order.extend(ci for ci in self.student_contracts[si] if ci not in listed_set)
        # every contract is some student's, so only a preference that lists
        # another student's contract can make the order too long
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

    def cop(self, order_rank: Sequence[int], transcript: Optional[list] = None) -> tuple[int, int]:
        """Run the cumulative offer process; returns ``(held, dry)``: the
        global held mask and the dry set, a mask over student indices.

        Each step offers the order-minimal contract among every unheld
        student's best not-yet-proposed acceptable contract, then lets the
        proposee school re-choose from everything it has been offered.

        The loop is event-driven. The heap holds ``(order rank, student,
        pointer)`` for students who may propose; a popped entry is stale, and
        skipped, when the student's pointer has moved on or the student holds
        a contract. Only the proposee school re-chooses, and each student's
        held-contract count changes by the bits of ``old ^ new`` of its held
        mask. A student is pushed again when their own proposal leaves them
        unheld, or when their count drops to 0.

        A rejection alone does not free a student. The overall choice is not
        substitutable, so a school can take back a contract it rejected
        earlier, even while the student is held elsewhere or has a pending
        heap entry; a student is unheld exactly when no school holds any
        contract of theirs, which is what the count tracks. (No take-back
        has shown up on generated markets, whose schemes are monotone; a
        scheme that grants a later group a seat as an earlier group fills
        makes one happen, and the count keeps the loop equal to the full
        scan there too.)

        The full-group guard. The loop keeps, per school, the residuals of
        its last ``choose``, and skips the re-choice when ``school.keeps``
        holds for the offered contract's local bit ``b``: every group whose
        type mask covers ``b`` has residual 0, and ``b`` lies above every
        held bit of that type, or no group covers ``b``. Then
        ``choose(offered | b)`` equals ``held``. Proof: run both choices
        group by group. Before group ``k`` both have the same residuals
        and the same available bits, apart from ``b``. A group of another
        type reads the same pool, so it takes the same picks and removes
        the same peers. A group of ``b``'s type takes the lowest ``cap``
        bits of ``avail & type_mask``; it was full, so those ``cap`` bits
        exist without ``b``, and they are held bits, all below ``b``. So
        adding ``b`` to the pool changes neither its picks, nor its
        residual, nor its peer removals. No group picks ``b``, so the
        chosen masks, and every residual, are equal. The argument reads
        only the one choice at hand, so it needs no monotone scheme; the
        held mask and residuals kept after a skip are still those of
        ``choose(offered)``.

        The dry set. A student runs dry when they stand unheld with their
        list used up: at the start when their list is empty, after their own
        proposal leaves them unheld on their last contract, or when their
        count drops to 0 with their pointer past their last contract. These
        are exactly the moments the loop would push the student's next
        contract if the list went on, so a student who is not in the dry set
        never asked for a contract beyond their list, even if a school later
        takes them back and they end held. The misreport search reads it
        (``incentives._search_misreports`` gives the argument).

        With ``transcript``, appends ``(proposed, offered, held by school)``
        per step, all as global masks (the proposal as its global index).
        """
        acceptable = self.acceptable
        schools = self.schools
        school_of = self.school_of
        local_bit = self.local_bit
        offered = [0] * len(schools)
        held = [0] * len(schools)
        residuals: list = [None] * len(schools)
        count = [0] * len(self.students)
        ptr = [0] * len(self.students)
        heap = []
        dry = 0
        for si, lst in enumerate(acceptable):
            if lst:
                heap.append((order_rank[lst[0]], si, 0))
            else:
                dry |= 1 << si
        heapify(heap)
        if transcript is not None:
            available = 0
            held_global = [0] * len(schools)
        while heap:
            _, si, p = heappop(heap)
            if count[si] or ptr[si] != p:
                continue
            lst = acceptable[si]
            ci = lst[p]
            p += 1
            ptr[si] = p
            s = school_of[ci]
            school = schools[s]
            b = local_bit[ci]
            offer = offered[s] | 1 << b
            offered[s] = offer
            old = held[s]
            last = residuals[s]
            if last is not None and school.keeps(b, old, last):
                new = old
            else:
                new, residuals[s] = school.choose(offer)
            if new != old:
                held[s] = new
                student_of = school.student_of
                for lb in bits(old ^ new):
                    t = student_of[lb]
                    if (new >> lb) & 1:
                        count[t] += 1
                        continue
                    count[t] -= 1
                    if not count[t]:
                        q = ptr[t]
                        if q < len(acceptable[t]):
                            heappush(heap, (order_rank[acceptable[t][q]], t, q))
                        else:
                            dry |= 1 << t
            if not count[si]:
                if p < len(lst):
                    heappush(heap, (order_rank[lst[p]], si, p))
                else:
                    dry |= 1 << si
            if transcript is not None:
                available |= 1 << ci
                held_global[s] = self.to_global(s, new)
                transcript.append((ci, available, tuple(held_global)))
        out = 0
        for s, mask in enumerate(held):
            out |= self.to_global(s, mask)
        return out, dry

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
