"""Bitmask execution core.

A market is compiled once into dense integer indices, from its flat index
form (``instance.FlatMarket``): the loader parses a file straight into that
form, and ``Compiled.from_instance`` flattens a ``ProblemInstance`` into it,
so both build the engine through one path. Every contract has a global
index, its position in contract order, and each school gives its own
contracts local bits as well. A slot-specific school keeps contract order. A
dynamic reserves school lays its bits out in blocks: its ``R`` ranked
students who hold contracts there get positions ``0..R-1`` in priority
order, and its contract of precedence type ``t`` sits at local bit
``t*R + position``. Unranked contracts and types outside the precedence
come after the blocks. A student's contracts share one offset in every
block, and a bit that no contract owns (a gap: a ranked student without a
contract of that type) is never set. A choice works a group at a time:
group ``k``'s pool is its block of the offered mask, shifted down, less the
positions already chosen; the group takes the whole pool when it fits its
capacity, else the pool's ``cap`` lowest bits; and dropping the chosen
students from every later group is one XOR out of the mask of free
positions. ``choose`` is the overall choice only; the completion, which
drops only the chosen bits, runs in ``verification._tabulate``, the one
place that tabulates it. A school's ``choose`` reads and returns local
masks, so a choice never touches another school's contracts.
``Compiled.to_global`` translates a local mask back; ``local_bit`` (indexed
by global index) and each school's ``global_index`` (indexed by local bit,
``None`` at gaps) are the flat tables between the two spaces.

A dynamic reserves school reads group ``k``'s capacity from its
``cap_table``, keyed by the residuals of groups ``0..k-1`` (the key's length
names the group), so a choice returns only its chosen mask and residuals:
the capacity group ``k`` ran at is ``cap_table[residuals[:k]]``. An entry is
read from the transfer scheme the first time a choice reaches its prefix and
kept, so a scheme is called once per prefix rather than once per group per
choice. The table is a memo of the scheme, which is a pure function of the
residuals, so it assumes nothing about monotonicity, and the order in which
it fills cannot change a choice. It is filled lazily because a market's
choices reach few of the prefixes in ``[0, capacity]^k``. Clones made by
``Compiled.with_preferences`` and ``Compiled.with_acceptable`` share the
schools, and so every table. ``Compiled.with_school`` gives one school a
changed configuration and a fresh table, and shares the others: a new
scheme keeps the school's layout, as the layout depends only on its
priority, precedence and contracts, and a new priority rebuilds it.

The cumulative offer process is event-driven. It keeps each school's offered
and held local masks, a held-contract count per student, and a heap of
``(order rank, student, pointer)`` entries for the students who may propose.
A step pops the order-minimal entry, skipping stale ones, offers that
contract, and lets only the proposee school re-choose. The counts change by
the bits of ``old ^ new`` of that school's held mask. A student goes back on
the heap when their proposal leaves them unheld or their count drops to 0,
not on every rejection: the overall choice is not substitutable, so a school
can take back a contract it rejected earlier, and only the count says
whether some school still holds the student.

A proposal is rejected without a re-choice when the school's last choice
shows it cannot change (``CompiledSchool.keeps``): every group of the
offered contract's type is full and the contract ranks below every held
contract of that type, or no group admits the contract at all. The process
keeps each school's residuals from its last ``choose`` for this test.
Slot-specific schools always re-choose. ``Compiled.cop`` gives the proof.
``CompiledSchool.pickable`` applies the same test to whole blocks at once:
the stability check tries as blocking candidates only the bits it leaves.

The public modules keep the readable set-based semantics; everything that
runs a choice function or the cumulative offer process thousands of times
goes through here. Equivalence tests pin the choices to the reference
implementation in :mod:`reservematch.choice`, and the process to a full-scan
oracle written over it.
"""

from __future__ import annotations

from copy import copy
from heapq import heapify, heappop, heappush
from itertools import groupby, repeat
from operator import itemgetter
from typing import Iterable, Mapping, Optional, Sequence

from .choice import SchoolConfig, SlotSpecificSchool
from .errors import InvalidInputError
from .instance import FlatMarket, ProblemInstance
from .model import Contract, PreferenceOrder


def bits(mask: int):
    """Yield set bit positions, lowest first."""
    while mask:
        low = mask & -mask
        yield low.bit_length() - 1
        mask ^= low


class CompiledSchool:
    """A dynamic reserves choice function over the school's local bits, laid
    out in one block per privilege type (see the module docstring)."""

    __slots__ = (
        "offsets", "targets", "scheme", "global_index", "student_of", "span", "block",
        "block_end", "type_groups", "cap_table", "capacity", "priority", "precedence",
    )

    def __init__(self, config: SchoolConfig, owner: "Compiled", members: Sequence[int]):
        self.capacity = config.capacity
        self.targets = config.targets
        self.scheme = config.scheme
        # the layout below is a function of these two and the members alone
        self.priority = config.priority
        self.precedence = config.precedence
        # one block per privilege type, in order of first precedence; a type
        # can head several groups, and each of them reads the same block
        block_of = {p: t for t, p in enumerate(dict.fromkeys(config.precedence))}
        mine = list(map(owner.contracts.__getitem__, members))
        ranks = list(map(config.priority.rank, map(itemgetter(0), mine)))
        # the ranked students holding contracts here, in priority order
        ranked = set(ranks)
        ranked.discard(None)
        position = dict(zip(sorted(ranked), range(len(ranked))))
        span = len(position)
        end = span * len(block_of)
        # gap bits (a ranked student without a contract of the block's
        # type) have no contract and no student
        index: list[Optional[int]] = [None] * end
        student_of: list[Optional[int]] = [None] * end
        local_bit, student_bit = owner.local_bit, owner.student_bit
        for ci, r, t in zip(members, ranks, map(block_of.get, map(itemgetter(2), mine))):
            if r is None or t is None:  # no group admits it: after the blocks
                lb = len(index)
                index.append(None)
                student_of.append(None)
            else:
                lb = t * span + position[r]
            index[lb] = ci
            student_of[lb] = student_bit[ci]
            local_bit[ci] = lb
        self.global_index = tuple(index)
        self.student_of = tuple(student_of)
        self.span = span
        self.block = (1 << span) - 1
        self.block_end = end
        self.offsets = tuple(block_of[p] * span for p in config.precedence)
        self.type_groups = tuple(
            tuple(k for k, p in enumerate(config.precedence) if block_of[p] == t)
            for t in range(len(block_of))
        )
        # group k's capacity keyed by the residuals of groups 0..k-1, read
        # from the scheme the first time a choice reaches that prefix
        self.cap_table: dict[tuple[int, ...], int] = {(): config.targets[0]}

    def choose(self, mask: int) -> tuple[int, tuple[int, ...]]:
        """Return (chosen local mask, residuals) for a local offer mask.
        Group ``k`` runs at ``cap_table[residuals[:k]]``, which this call
        fills if it is the first to reach that prefix."""
        table = self.cap_table
        free = self.block  # positions of the students not yet chosen
        residuals: tuple[int, ...] = ()
        chosen = 0
        for off in self.offsets:
            cap = table.get(residuals)
            if cap is None:
                k = len(residuals)
                cap = table[residuals] = self.scheme.capacity(k, residuals, self.targets)
            if cap > 0 and (pool := mask >> off & free):
                n = pool.bit_count()
                if n > cap:  # over-demanded: keep the pool's ``cap`` lowest bits
                    rest = pool
                    for _ in range(cap):
                        rest &= rest - 1
                    pool ^= rest
                    n = cap
                residuals += (cap - n,)
                chosen |= pool << off
                free ^= pool
            else:  # no seat, or no claimant left
                residuals += (cap,)
        return chosen, residuals

    def keeps(self, bit: int, held: int, residuals: Sequence[int]) -> bool:
        """True when the offer of local bit ``bit`` is rejected and changes
        nothing: ``choose(mask | 1 << bit)`` equals ``held``, the choice from
        ``mask``, whose residuals are ``residuals``. It holds when no group
        admits the bit (an unranked student, or a type outside the
        precedence), or when every group of the bit's type is full and the
        bit ranks below every contract of that type held. See ``Compiled.cop``
        for the proof."""
        if bit >= self.block_end:
            return True
        t, pos = divmod(bit, self.span)
        for k in self.type_groups[t]:
            if residuals[k]:
                return False
        # no held bit of the block at ``bit``'s position or after it
        return not held >> bit & self.block >> pos

    def pickable(self, held: int, residuals: Sequence[int]) -> int:
        """The local bits whose offer could change the choice ``held`` (with
        ``residuals``): every bit for which :meth:`keeps` is false, a block at
        a time. A block is open in full when some group of its type has a
        residual seat, else up to its highest held bit; no bit after the
        blocks is pickable."""
        out = 0
        span, block = self.span, self.block
        for t, groups in enumerate(self.type_groups):
            off = t * span
            if any(residuals[k] for k in groups):
                out |= block << off
            else:
                out |= (1 << (held >> off & block).bit_length()) - 1 << off
        return out


class CompiledSlotSchool:
    """A slot-specific choice function over the school's local bits, which
    follow contract order."""

    __slots__ = ("slots", "global_index", "student_of", "peer", "capacity")

    def __init__(self, school: SlotSpecificSchool, owner: "Compiled", members: Sequence[int]):
        self.capacity = len(school.slots)
        student_bit, local_bit = owner.student_bit, owner.local_bit
        peers: dict[int, int] = {}
        for lb, ci in enumerate(members):
            local_bit[ci] = lb
            peers[student_bit[ci]] = peers.get(student_bit[ci], 0) | 1 << lb
        self.global_index = tuple(members)
        self.student_of = tuple(student_bit[ci] for ci in members)
        # local bit -> local mask of that student's contracts at the school
        self.peer = tuple(peers[si] for si in self.student_of)
        index = owner.index
        self.slots = tuple(tuple(local_bit[index[c]] for c in slot) for slot in school.slots)

    def choose(self, mask: int) -> tuple[int, tuple[int, ...]]:
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

    def pickable(self, held: int, residuals: Sequence[int]) -> int:
        """Every local bit, as :meth:`keeps` is never true."""
        return (1 << len(self.global_index)) - 1


def _acceptable(market: FlatMarket) -> tuple[tuple[int, ...], ...]:
    """Each student's ranked global indices, in student order, less any
    contract ranked outside the universe."""
    listed = map(market.ranked.get, market.students, repeat(()))
    if not market.strays:
        return tuple(listed)
    return tuple(tuple(ci for ci in lst if ci < len(market.contracts)) for lst in listed)


class Compiled:
    """A market lowered to integer indices and bitmasks."""

    def __init__(self, market: FlatMarket):
        """Compile ``market``: its contract order and ranked global indices
        become the engine's own."""
        self.students = market.students
        self.student_index = {s: n for n, s in enumerate(self.students)}
        self.contracts = contracts = market.contracts
        self.index = dict(zip(contracts, range(len(contracts))))
        self.student_bit = tuple(map(self.student_index.__getitem__, map(itemgetter(0), contracts)))
        # contract order sorts by student, so each student's contracts are one run
        own: list[tuple[int, ...]] = [()] * len(self.students)
        for si, run in groupby(range(len(contracts)), self.student_bit.__getitem__):
            own[si] = tuple(run)
        self.student_contracts = tuple(own)
        self.school_index = {cfg.school: n for n, cfg in enumerate(market.schools)}
        self.school_of = tuple(map(self.school_index.__getitem__, map(itemgetter(1), contracts)))
        members: list[list[int]] = [[] for _ in market.schools]
        for ci, s in enumerate(self.school_of):
            members[s].append(ci)
        self.local_bit = [0] * len(contracts)
        self.schools = []
        for cfg, mine in zip(market.schools, members):
            cls = CompiledSlotSchool if isinstance(cfg, SlotSpecificSchool) else CompiledSchool
            self.schools.append(cls(cfg, self, mine))
        self.local_bit = tuple(self.local_bit)
        self.acceptable = _acceptable(market)

    @classmethod
    def from_instance(cls, instance: ProblemInstance) -> "Compiled":
        return cls(instance.flat())

    def with_preferences(self, preferences: Mapping[str, PreferenceOrder]) -> "Compiled":
        market = FlatMarket.of(self.contracts, self.students, (), preferences)
        return self.with_acceptable(_acceptable(market))

    def with_acceptable(self, acceptable: tuple[tuple[int, ...], ...]) -> "Compiled":
        """A clone whose students report ``acceptable``: per student index,
        global contract indices, best first. Everything else, the schools'
        capacity tables included, is shared."""
        clone = object.__new__(Compiled)
        clone.__dict__.update(self.__dict__)
        clone.acceptable = acceptable
        return clone

    def with_school(self, config: SchoolConfig) -> "Compiled":
        """A clone with school ``config.school`` compiled from ``config``,
        with a fresh capacity table; the other schools and everything else
        are shared. A config that keeps the school's priority and precedence
        (a changed scheme, as in the flexibility checks) keeps its layout:
        the new :class:`CompiledSchool` shares its local bits, blocks and
        groups, and the clone shares ``local_bit``. Any other config (a
        changed priority) is rebuilt, with its own local bits in a copy of
        ``local_bit``."""
        s = self.school_index[config.school]
        old = self.schools[s]
        clone = object.__new__(Compiled)
        clone.__dict__.update(self.__dict__)
        clone.schools = list(self.schools)
        if isinstance(old, CompiledSchool) and (old.priority, old.precedence) == (
            config.priority, config.precedence
        ):
            school = copy(old)
            school.capacity, school.targets = config.capacity, config.targets
            school.scheme, school.cap_table = config.scheme, {(): config.targets[0]}
        else:
            clone.local_bit = list(self.local_bit)
            members = sorted(ci for ci in old.global_index if ci is not None)
            school = CompiledSchool(config, clone, members)
            clone.local_bit = tuple(clone.local_bit)
        clone.schools[s] = school
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

    def to_global(self, school: int, local: int) -> int:
        """The global mask of a local mask of school number ``school``."""
        index = self.schools[school].global_index
        out = 0
        while local:
            low = local & -local
            out |= 1 << index[low.bit_length() - 1]
            local ^= low
        return out

    def default_order_rank(self) -> tuple[int, ...]:
        """Proposal ranks for the canonical order: students sorted by id and,
        within a student, acceptable contracts best first, then the rest.
        Every caller's market is validated, and validation refuses a list
        holding another student's contract, so the order is a permutation of
        the contracts."""
        order: list[int] = []
        for s in sorted(self.students):
            si = self.student_index[s]
            listed = self.acceptable[si]
            order.extend(listed)
            listed_set = set(listed)
            order.extend(ci for ci in self.student_contracts[si] if ci not in listed_set)
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
        """Run the cumulative offer process; returns the global held mask.

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
        contract of theirs, which is what the count tracks. (A certified
        school, as every validated one is, never takes back: its choice has
        a substitutable completion that the process follows, proof in the
        :mod:`reservematch.cop` docstring and ``instance._scheme_violations``.
        A compile that skips validation can hold a scheme that grants a
        later group a seat as an earlier group fills, which makes a
        take-back happen, and the count keeps the loop equal to the full
        scan there too.)

        The full-group guard. The loop keeps, per school, the residuals of
        its last ``choose``, and skips the re-choice when ``school.keeps``
        holds for the offered contract's local bit ``b``: every group whose
        type's block holds ``b`` has residual 0, and ``b`` lies above every
        held bit of that block, or ``b`` lies after the blocks, where no
        group reads. Then ``choose(offered | b)`` equals ``held``. Proof:
        run both choices group by group. Before group ``k`` both have the
        same residuals and the same chosen positions, and their offered
        masks differ only in ``b``. A group of another type reads another
        block, so it reads the same pool, takes the same picks and chooses
        the same positions. A group of ``b``'s type takes its pool's lowest
        ``cap`` bits; it was full, so those ``cap`` bits exist without
        ``b``, and they are held bits, all below ``b``. So adding ``b`` to
        the pool changes neither its picks, nor its residual, nor the
        positions it chooses. No group picks ``b``, so the chosen masks,
        and every residual, are equal. The argument reads only the one
        choice at hand, so it needs no monotone scheme; the held mask and
        residuals kept after a skip are still those of ``choose(offered)``.

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
        heap = [(order_rank[lst[0]], si, 0) for si, lst in enumerate(acceptable) if lst]
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
                    if not count[t] and (q := ptr[t]) < len(acceptable[t]):
                        heappush(heap, (order_rank[acceptable[t][q]], t, q))
            if not count[si] and p < len(lst):
                heappush(heap, (order_rank[lst[p]], si, p))
            if transcript is not None:
                available |= 1 << ci
                held_global[s] = self.to_global(s, new)
                transcript.append((ci, available, tuple(held_global)))
        out = 0
        for s, mask in enumerate(held):
            out |= self.to_global(s, mask)
        return out

    def proposable(self, available: int, held: int) -> int:
        """Mask of contracts currently proposable: the first listed contract
        not in ``available`` of each student with no contract in the global
        mask ``held`` (used for transcripts, and by the order walk that the
        tests keep as the oracle of order independence)."""
        held_students = 0
        for ci in bits(held):
            held_students |= 1 << self.student_bit[ci]
        out = 0
        for si in range(len(self.students)):
            if (held_students >> si) & 1:
                continue
            for ci in self.acceptable[si]:
                if not (available >> ci) & 1:
                    out |= 1 << ci
                    break
        return out
