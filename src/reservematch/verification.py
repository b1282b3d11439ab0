"""Stability checking and choice-function axiom verification.

``is_stable`` tests the three stability conditions: students hold acceptable
contracts, schools would re-choose exactly what they hold, and no school can
assemble a blocking set of contracts that it would accept and whose students
would all take; ``find_blocking_set`` searches one school for a blocking
set. Both run on the engine's masks, and both take the market as a
``ProblemInstance``, which they compile, or as a caller's ``Compiled``, so
``verify`` and ``audit`` check on the compile they already hold. The axiom
checkers read a choice function's table over every subset of a contract
pool and verify substitutability and the law of aggregate demand.
``audit`` certifies the two axioms of each school's completion from its
scheme, at any pool size (``instance._scheme_violations``, which proves
them), and cross-checks the certificate on every pool of at most
``--max-contracts`` contracts, where a certified school that fails its
table is an internal error. The cross-check builds one table, the
completion's, and reads it in one sweep for substitutability and the law
of aggregate demand (``_completion_axioms_hold``, which proves the rest):
the completion that ``_tabulate`` builds completes the overall choice for
every transfer scheme, and rejection irrelevance follows from the two
axioms. The checkers read a :class:`ChoiceTable`, built once per choice
function and pool, and the builders are exhaustive or they refuse, never
sampled. A dynamic reserves school's table is built a group at a time:
each group step runs once per distinct prefix of the blocks the groups so
far read, rather than once per subset, and each choice is copied over the
bits no group reads (``_tabulate``). That is also the engine's one
completion choice: ``CompiledSchool.choose`` runs the overall choice only.
"""

from __future__ import annotations

import struct
from collections import Counter
from dataclasses import dataclass
from typing import Callable, Iterable, Optional, Union

from ._engine import Compiled, bits
from .choice import SchoolConfig
from .errors import InvalidInputError, SearchCapExceededError
from .instance import FlatMarket, ProblemInstance
from .model import Contract

__all__ = [
    "StabilityReport",
    "is_stable",
    "find_blocking_set",
    "PropertyCheck",
    "check_substitutability",
    "check_lad",
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


def is_stable(y: Iterable[Contract], market: Union[ProblemInstance, Compiled]) -> StabilityReport:
    """Evaluate all three stability conditions for allocation ``y``, each
    with its first witness in contract and school order: the contracts
    their students do not find acceptable, the first school that would not
    choose exactly what it holds (with what it holds and what it would
    choose), and the first school at which :func:`find_blocking_set` finds
    a blocking set. A set that is not an allocation (a contract outside the
    market, a student with several contracts, a school over capacity)
    raises :class:`InvalidInputError`. ``market`` is a ``ProblemInstance``,
    compiled here, or a ``Compiled`` the caller already holds; the one
    compile serves every school's search."""
    compiled = market if isinstance(market, Compiled) else Compiled.from_instance(market)
    y = frozenset(y)
    _require_allocation(compiled, y, True)
    local, current = _held(compiled, y)
    acceptable, student_bit = compiled.acceptable, compiled.student_bit
    held_ci = sorted(current.values())
    bad = tuple(compiled.contracts[ci] for ci in held_ci if ci not in acceptable[student_bit[ci]])
    names = tuple(compiled.school_index)
    mismatch = None
    for s, held in enumerate(local):
        chosen = compiled.schools[s].choose(held)[0]
        if chosen != held:
            held_set, chosen_set = (compiled.to_set(compiled.to_global(s, m)) for m in (held, chosen))
            mismatch = (names[s], held_set, chosen_set)
            break
    blocking = None
    for name in names:
        z = find_blocking_set(y, name, compiled)
        if z is not None:
            blocking = (name, z)
            break
    return StabilityReport(bad, mismatch, blocking)


def find_blocking_set(
    y: Iterable[Contract], school: str, market: Union[ProblemInstance, Compiled]
) -> Optional[frozenset]:
    """Search for a blocking set at one school; ``None`` when no set blocks
    there. An unknown school is refused with :class:`InvalidInputError`
    before anything is compiled. A set holding a contract outside the market
    or a student with several contracts is refused the same way, as by
    :func:`is_stable`; capacities are not checked. ``market`` is taken as by
    :func:`is_stable`.

    A blocking set is a nonempty set of the school's contracts from outside
    ``y``, at most one per student, that the school would keep in full when
    offered on top of ``y`` and that every involved student strictly prefers
    to their current assignment. (Equivalently: the school's re-chosen
    portfolio would differ from its current one and be chosen by everyone in
    it. Allowing the set to overlap ``y`` would make any subset of a school's
    own held contracts "block", so blocking contracts must be new.) Call a
    contract a candidate when it could be in a blocking set: the school's,
    its student ranked by the school and strictly preferring it (so not in
    ``y``).

    A blocking set exists exactly when a single candidate blocks, so the
    candidates are tried one at a time in contract order and the first that
    blocks is returned as ``frozenset({c})``. Proof: let ``Z`` block and run
    the overall choice on ``y | Z``. Let ``z`` be a contract of ``Z`` picked
    by the earliest group that picks any contract of ``Z``. The groups
    before it pick no contract of ``Z``, and dropping contracts a group does
    not pick changes neither its picks nor its residual, so on ``y | {z}``
    those groups pick the same contracts, remove the same students and leave
    the same residuals. ``z``'s group then has the same capacity and faces a
    subset of the competitors that ``z`` beat on ``y | Z``, which priority
    ranks strictly (a school has at most one contract per student and type),
    so it picks ``z``. ``z`` is a candidate because ``Z`` is, so ``{z}``
    blocks; the converse is trivial. The argument uses neither the
    school-choice condition nor monotonicity of the scheme, so it holds for
    every allocation ``y``. (It has the shape of Hatfield and Milgrom's
    (2005) singleton argument without their substitutability.)

    The block guard. The school chooses once from what it holds, ``(chosen,
    residuals) = choose(held)``, and only candidates in
    ``pickable(chosen, residuals)`` are tried. A bit outside it satisfies
    ``keeps(bit, chosen, residuals)``: it lies after the blocks, where no
    group admits it (an unranked student, or a type outside the
    precedence), or every group of its type has residual 0 and it lies above
    every chosen bit of its block. ``Compiled.cop`` proves that then
    ``choose(held | bit)`` equals ``chosen``, so the bit is not picked and
    does not block. That proof reads only the one choice at hand, the choice
    from ``held``, and neither its agreement with ``held`` nor a monotone
    scheme, so the guard holds on every allocation. A slot-specific school
    has no guard: every bit is pickable.
    """
    is_compiled = isinstance(market, Compiled)
    if school not in (market.school_index if is_compiled else [c.school for c in market.schools]):
        raise InvalidInputError(f"unknown school {school!r}")
    compiled = market if is_compiled else Compiled.from_instance(market)
    s = compiled.school_index[school]
    y = frozenset(y)
    _require_allocation(compiled, y, False)
    local, current = _held(compiled, y)
    here, held = compiled.schools[s], local[s]
    chosen, residuals = here.choose(held)
    acceptable, student_bit = compiled.acceptable, compiled.student_bit
    candidates = []
    for lb in bits(here.pickable(chosen, residuals) & ~held):
        ci = here.global_index[lb]
        if ci is None:
            continue
        # listed, and above the student's current contract if that is listed
        listed = acceptable[student_bit[ci]]
        now = current.get(student_bit[ci])
        if ci in listed and (now not in listed or listed.index(ci) < listed.index(now)):
            candidates.append(ci)
    for ci in sorted(candidates):
        bit = 1 << compiled.local_bit[ci]
        if here.choose(held | bit)[0] & bit:
            return frozenset({compiled.contracts[ci]})
    return None


def _require_allocation(compiled: Compiled, y: frozenset, capacities: bool) -> None:
    """Raise :class:`InvalidInputError` naming every way ``y`` is not an
    allocation: contracts outside the market, students with several
    contracts and, with ``capacities``, schools holding more contracts than
    their capacity."""
    problems = []
    stray = y.difference(compiled.index)
    if stray:
        problems.append(f"unknown contracts {sorted(stray)}")
    doubled = sorted(s for s, n in Counter(c.student for c in y).items() if n > 1)
    if doubled:
        problems.append(f"students with several contracts: {doubled}")
    if capacities:
        loads = Counter(c.school for c in y)
        for name, school in zip(compiled.school_index, compiled.schools):
            if loads[name] > school.capacity:
                problems.append(f"school {name} over capacity ({loads[name]} > {school.capacity})")
    if problems:
        raise InvalidInputError("not an allocation: " + "; ".join(problems))


def _held(compiled: Compiled, y: frozenset) -> tuple[list[int], dict[int, int]]:
    """Each school's local mask of allocation ``y``, and each student's
    held contract as student index -> global index. No global mask is
    built: on a large market every step over one costs its whole length."""
    local = [0] * len(compiled.schools)
    current = {}
    school_of, local_bit, student_bit = compiled.school_of, compiled.local_bit, compiled.student_bit
    for ci in map(compiled.index.__getitem__, y):
        local[school_of[ci]] |= 1 << local_bit[ci]
        current[student_bit[ci]] = ci
    return local, current


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
    """Tabulate a dynamic reserves school's overall choice (or, with
    ``completion``, its completion) over every subset of ``contracts`` on
    the bitmask engine: the pool is compiled as a market of one school.
    Any other choice function goes to :func:`tabulate`."""
    if not isinstance(config, SchoolConfig):
        raise InvalidInputError(f"school {config.school}: not a dynamic reserves school")
    pool = _sorted_pool(contracts, cap)
    if any(c.school != config.school for c in pool):
        raise InvalidInputError(f"pool holds contracts of schools other than {config.school}")
    market = FlatMarket.of(pool, sorted({c.student for c in pool}), [config], {})
    return _tabulate(Compiled(market), 0, completion)


def _tabulate(compiled: Compiled, s: int, completion: bool) -> ChoiceTable:
    """The choice table of dynamic reserves school ``s`` of a compiled
    market over all of that school's contracts. The caller bounds the pool.

    The table is built a group at a time rather than a subset at a time.
    ``choose`` runs its groups in precedence order, and group ``k`` reads
    only the block of its type and what the earlier groups leave: the
    offered mask (less what they chose, for the completion), the free
    positions, the residuals and the chosen mask. A prefix carries that
    state over the blocks read so far, with its pool index, the pool mask
    of the offered bits it fixes. The first group that reads a block
    expands the prefix into every sub-pattern of the block; a type that
    heads several groups is expanded once. Each group step runs once per
    prefix, as ``choose`` runs it, reading and filling ``cap_table`` at the
    prefix's residuals, so the capacity table ends with the keys that
    ``choose`` on every subset would leave. After the last group a prefix
    holds ``choose(m)[0]`` for every subset ``m`` that agrees with it on
    the blocks. No group reads the bits after the blocks (an unranked
    student, a type outside the precedence), so that choice is written for
    every subset of them. The prefixes are walked depth first, nesting
    only at the groups that expand a block holding contracts, so few
    prefixes are alive at a time, and the depth is bounded by the pool, not
    by the number of groups.
    """
    school = compiled.schools[s]
    members = sorted(ci for ci in school.global_index if ci is not None)
    pool_bit = {compiled.local_bit[ci]: 1 << i for i, ci in enumerate(members)}

    def patterns(local_bits: Iterable[int]) -> list[tuple[int, int]]:
        """Every subset of ``local_bits``, as (local mask, pool mask)."""
        out = [(0, 0)]
        for lb in local_bits:
            out += [(m | 1 << lb, p | pool_bit[lb]) for m, p in out]
        return out

    span, offsets, table = school.span, school.offsets, school.cap_table
    # the groups that expand a block holding contracts; every other group
    # runs once per prefix with nothing to expand
    heads = {}
    for t, groups in enumerate(school.type_groups):
        found = [lb for lb in range(t * span, (t + 1) * span) if lb in pool_bit]
        if found:
            heads[groups[0]] = patterns(found)
    last = len(offsets) - 1
    after = [at for _, at in patterns(range(school.block_end, len(school.global_index)))]
    chosen_table = [0] * (1 << len(members))
    to_pool: dict[int, int] = {}

    def descend(k: int, offered: int, index: int, free: int, residuals: tuple, chosen: int):
        """Extend one prefix by each sub-pattern of the block group ``k``
        expands, run the groups from ``k`` up to the next that expands a
        block, and descend there, or write the leaves after the last."""
        for block, at in heads.get(k, ((0, 0),)):
            mask, left, pick, rest, g = offered | block, free, chosen, residuals, k
            while True:
                off = offsets[g]
                cap = table.get(rest)
                if cap is None:
                    cap = table[rest] = school.scheme.capacity(g, rest, school.targets)
                n = 0
                if cap > 0 and (pool := mask >> off & left):
                    n = pool.bit_count()
                    if n > cap:  # over-demanded: keep the pool's ``cap`` lowest bits
                        over = pool
                        for _ in range(cap):
                            over &= over - 1
                        pool ^= over
                        n = cap
                    pick |= pool << off
                    if completion:
                        mask ^= pool << off
                    else:
                        left ^= pool
                g += 1
                if g > last:
                    break
                rest += (cap - n,)
                if g in heads:
                    descend(g, mask, index | at, left, rest, pick)
                    break
            if g > last:
                picked = to_pool.get(pick)
                if picked is None:
                    picked = to_pool[pick] = sum(map(pool_bit.__getitem__, bits(pick)))
                for extra in after:
                    chosen_table[index | at | extra] = picked

    descend(0, 0, 0, school.block, (), 0)
    # descend's closure holds descend: clearing the name breaks that cycle,
    # so the list is freed on return rather than at the next collection
    del descend
    pool = tuple(compiled.contracts[ci] for ci in members)
    return ChoiceTable(pool, tuple(chosen_table))


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


def check_substitutability(table: ChoiceTable) -> PropertyCheck:
    """A contract rejected from an offer set stays rejected when the set
    grows. Counterexample: (Y, z, z2) with z rejected from Y + z but chosen
    from Y + z + z2; the first such triple by offer set, then z, then z2.

    A set fails exactly when one of its one-contract extensions chooses some
    contract the set rejects, so each extension is tested against all the
    rejected contracts at once; the first set that fails is scanned again a
    rejected contract at a time for the counterexample."""
    chosen, pool = table.chosen, table.pool
    full = len(chosen) - 1
    for mask, picked in enumerate(chosen):
        rejected = mask & ~picked
        if not rejected:
            continue
        free = full ^ mask
        while free:
            low = free & -free
            if chosen[mask | low] & rejected:
                break
            free ^= low
        else:
            continue
        for z in bits(rejected):
            for extra in bits(full ^ mask):
                if chosen[mask | 1 << extra] >> z & 1:
                    y = table.subset(mask & ~(1 << z))
                    return PropertyCheck(False, (y, pool[z], pool[extra]))
    return PropertyCheck(True)


def check_lad(table: ChoiceTable) -> PropertyCheck:
    """Law of aggregate demand: larger offer sets never yield fewer chosen
    contracts. Single-element extensions are checked, which covers every
    nested pair by chaining. Counterexample: (Y, Y + z)."""
    sizes = [picked.bit_count() for picked in table.chosen]
    full = len(sizes) - 1
    for mask, size in enumerate(sizes):
        free = full ^ mask
        while free:
            low = free & -free
            if sizes[mask | low] < size:
                y = table.subset(mask)
                return PropertyCheck(False, (y, y | {table.pool[low.bit_length() - 1]}))
            free ^= low
    return PropertyCheck(True)


# The sweep of ``_completion_axioms_hold`` packs at most 2**_CHUNK_BITS offer
# sets into one int, so that a 20-contract table is swept in ints of 16 KB.
_CHUNK_BITS = 12
# the number of set bits of each byte value
_POPCOUNT = bytes(map(int.bit_count, range(256)))


def _completion_axioms_hold(compiled: Compiled, s: int) -> bool:
    """Whether school ``s`` of a compiled market meets the hypotheses of the
    paper's theorems: its choice has a completion that is substitutable and
    satisfies the law of aggregate demand (LAD). The caller bounds the pool.
    The completion is the one ``_tabulate`` builds, which completes the
    overall choice by construction (below), so only its table is built, and
    it is read in one sweep over its one-contract extensions that stops at
    the first failing extension bit: an extension ``m + j`` that chooses a
    contract ``m`` rejected breaks substitutability, and one that chooses
    fewer contracts breaks LAD. These are the tests ``check_substitutability``
    and ``check_lad`` run on every offer set ``m`` and every bit ``j`` not in
    it, so the verdict is theirs.

    The sweep reads many offer sets per operation. It packs the table, in
    chunks of ``F = 2**min(n, _CHUNK_BITS)`` offer sets of the ``n``-contract
    pool, into ints of aligned fields: field ``i`` of chunk ``a`` holds
    ``chosen[m]`` for ``m = a*F + i`` in bits ``[i*w, (i+1)*w)``, where ``w``
    is 8, 16 or 32, the narrowest that holds ``n`` bits (``struct`` packs
    the fields little-endian, so this holds on every host). The rejected
    sets ``m ^ chosen[m]`` (``chosen[m]`` lies in ``m``) are derived per
    chunk from its packed indices, and each choice's size sits in an 8-bit
    field of a second int: the popcount of each byte of the packed picks,
    read from a table, summed over the bytes of its field. Extension bit
    ``j`` pairs ``m`` with ``m | 1 << j`` for each ``m`` without bit ``j``.

    - A bit below ``low = log2(F)`` pairs fields of one chunk ``2**j``
      apart. Shifting the picks right by ``2**j`` whole fields puts
      ``chosen[m | 1 << j]`` in field ``i``, and an AND with the rejected
      sets and with a mask of the fields whose index lacks bit ``j`` is
      nonzero exactly when some such ``m`` fails substitutability. For those
      ``m``, ``i + 2**j < F``, so the partner lies in the chunk, and the
      fields the mask drops may hold anything.
    - A bit ``j >= low`` pairs chunk ``a`` with chunk ``a | 2**(j - low)``,
      for each ``a`` without that bit, field for field, with no shift and
      no mask.

    LAD on the sizes is one subtraction, aligned as the picks are. A size
    is at most ``n <= 20 < 128``, so setting the guard bit 128 of every
    field of the partner sizes makes each field of the minuend at least 128
    and at most 148, and each field of the subtrahend at most 20: no field
    borrows from the next, the int subtraction is a subtraction per field,
    and field ``i`` of the difference keeps its guard bit exactly when the
    partner's size is at least ``m``'s. For a low bit the subtrahend is
    ``m``'s sizes under the mask of 8-bit fields, so a field the mask drops
    subtracts 0 and keeps its guard bit. So LAD fails exactly when some
    guard bit of the difference is clear. Every ``m`` lacks every bit ``j``
    not in it, and each such pair is in exactly one chunk-and-bit test (the
    chunk of ``m``, at bit ``j``), so the sweep tests every pair that the
    two checks test, and no other.

    The completion completes the overall choice. The completion relation,
    which the tests' oracle checks table against table (the completion
    check of ``tests/helpers.py``), asks that on every offer set ``m`` the
    completion either picks two contracts of one student or picks what the
    overall choice picks. So let the completion pick at most one contract
    per student from ``m``, and compare the two runs of ``_tabulate`` on
    ``m`` group by group. Induct on the claim that before group ``g`` both
    runs have made the same picks and left the same residuals, which holds
    before group 0. Both runs then read group ``g``'s capacity ``cap`` at
    the same residuals. The overall
    choice's pool is its block of ``m`` less the positions of the students
    picked so far; the completion's is the same block less the contracts
    picked so far. A contract in the first pool is in the second, since it
    was not picked: its student was not. So the completion's pool contains
    the overall choice's, and the extra contracts belong to students already
    picked, in another block, as a contract picked from this block is no
    longer offered. The completion picks none of them, or it would end with
    two contracts of one student, since picks are never dropped. If the
    group fits its capacity, the completion picks its whole pool, so there
    were no extras, the pools are equal, and both runs pick it. Otherwise
    the completion picks the ``cap`` lowest bits of its pool, all in the
    smaller pool, and every bit of the smaller pool below one of them is
    also in the larger pool, so they are the ``cap`` lowest bits of the
    smaller pool too, which the overall choice picks (or, if that pool holds
    only ``cap`` bits, all of it). Either way both runs pick the same bits
    and leave the same residual ``cap - n``. A type that heads several
    groups is covered, since each group's pool is its own step; a gap bit
    is never offered; and no group reads the bits after the blocks, so both
    runs copy the same choice over them. The argument reads neither the
    scheme's shape nor the monotonicity of its capacities, so it holds for
    every scheme, and the completion relation of the two tables need not be
    checked.

    Irrelevance of rejected contracts (IRC) follows from substitutability
    and LAD (Aygun & Sonmez 2013, "Matching with contracts: comment", Prop.
    1), so it is not scanned. Let ``z`` be rejected from ``Y + z``. Then ``C(Y + z)`` lies in
    ``Y``, and a contract of it rejected from ``Y`` would stay rejected from
    ``Y + z`` by substitutability, so ``C(Y + z)`` is a subset of ``C(Y)``.
    LAD makes the two the same size, so they are equal.
    """
    chosen = _tabulate(compiled, s, completion=True).chosen
    n = (len(chosen) - 1).bit_length()
    low = min(n, _CHUNK_BITS)
    step = 1 << low
    # fields of 8, 16 or 32 bits, the narrowest that holds a mask of the pool
    wide = (n > 8) + (n > 16)
    width, fmt = 8 << wide, f"<{step}{'BHI'[wide]}"
    picks, sizes = [], []
    for lo in range(0, len(chosen), step):
        packed = struct.pack(fmt, *chosen[lo : lo + step])
        picks.append(int.from_bytes(packed, "little"))
        counts = packed.translate(_POPCOUNT)
        if wide:
            # each field's low byte gathers its bytes' counts: a byte sums at
            # most four counts of at most 8, so none carries
            total = int.from_bytes(counts, "little")
            for r in range(wide):
                total += total >> (8 << r)
            counts = total.to_bytes(len(packed), "little")[:: 1 << wide]
        sizes.append(int.from_bytes(counts, "little"))

    def lacking(bits: int) -> tuple[list[int], int]:
        """Per low bit ``j``, the fields of ``bits`` bits whose offer set
        lacks ``j``, all ones; and the int with each field at 1. Before step
        ``j``, ``ones`` is 1 in the first field of each run of ``2**(j+1)``,
        and the subtraction fills the run's first ``2**j`` fields."""
        masks, ones = [0] * low, 1
        for j in reversed(range(low)):
            masks[j] = (ones << (bits << j)) - ones
            ones += ones << (bits << j)
        return masks, ones

    lacks, ones = lacking(width)
    short, guard = (lacks, ones) if width == 8 else lacking(8)
    guard <<= 7
    index = int.from_bytes(struct.pack(fmt, *range(step)), "little")
    for a, (pick, size) in enumerate(zip(picks, sizes)):
        # field i: offer set a*F + i, less what it chooses
        rejected = (index | a * step * ones) ^ pick
        for j in range(low):
            if (pick >> (width << j)) & rejected & lacks[j]:
                return False
            if ((size >> (8 << j) | guard) - (size & short[j])) & guard != guard:
                return False
        for h in range(n - low):
            if not a >> h & 1:
                b = a | 1 << h
                if picks[b] & rejected or ((sizes[b] | guard) - size) & guard != guard:
                    return False
    return True
