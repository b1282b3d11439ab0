"""Seeded random generation of instances and experiment variations.

Everything here is deterministic in its seed. Generated instances always
pass validation: transfer schemes are built monotone by construction (each
donor group feeds at most one recipient) and re-verified anyway. The unit
flexibility pair is monotone by construction too, proved in
:func:`_unit_tables`, and is not checked again where it is drawn.

A draw that builds a whole capacity table (a ``table`` scheme, which the
``mixed`` family may pick too, and the flexibility pair) refuses with
:class:`~reservematch.errors.SearchCapExceededError` before it builds a
table spanning more than 2 000 000 unit steps, as every reader of a whole
table does (:func:`~reservematch.choice.capacity_table`).
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass, replace
from typing import Optional

from .choice import (
    ForwardSumScheme,
    SchoolConfig,
    SlotSpecificSchool,
    TableScheme,
    _require_steps,
    capacity_table,
)
from .errors import InvalidInputError
from .instance import FlatMarket, ProblemInstance
from .model import Contract, PreferenceOrder, PriorityOrder, TypeProfile

__all__ = [
    "GeneratorParams",
    "generate_random_instance",
    "generate_school_pool",
    "generate_slot_specific_school",
    "single_swap_improvement",
    "unit_flexibility_pair",
]

SCHEME_FAMILIES = ("forward_sum", "table", "constant", "mixed")


@dataclass(frozen=True)
class GeneratorParams:
    """Knobs for random instance generation; the seed is mandatory."""

    students: int
    schools: int
    types: int
    seed: int
    capacity_range: tuple[int, int] = (1, 3)
    claim_range: tuple[int, int] = (1, 2)
    scheme_family: str = "forward_sum"
    acceptability: float = 0.8

    def __post_init__(self):
        if min(self.students, self.schools, self.types) < 1:
            raise InvalidInputError("student, school, and type counts must be at least 1")
        if self.scheme_family not in SCHEME_FAMILIES:
            raise InvalidInputError(f"unknown scheme family {self.scheme_family!r}")
        if not 0.0 <= self.acceptability <= 1.0:
            raise InvalidInputError("acceptability must be a probability")
        for name, least in (("capacity_range", 0), ("claim_range", 1)):
            low, high = getattr(self, name)
            if not least <= low <= high:
                raise InvalidInputError(f"{name} must satisfy {least} <= low <= high")


def _random_scheme(rng: random.Random, groups: int, targets: tuple[int, ...], family: str):
    if family == "mixed":
        family = rng.choice(("forward_sum", "table", "constant"))
    if family == "constant":
        return ForwardSumScheme(((),) * groups)
    donors: list[list[int]] = [[] for _ in range(groups)]
    for donor in range(groups - 1):
        if rng.random() < 0.7:
            recipient = rng.randrange(donor + 1, groups)
            donors[recipient].append(donor)
    scheme = ForwardSumScheme(tuple(tuple(sorted(d)) for d in donors))
    if family == "forward_sum":
        return scheme
    return TableScheme.pinned(capacity_table(scheme, targets, sum(targets)), targets)


def _random_precedence(rng: random.Random, types: tuple[str, ...]) -> list[str]:
    """Every type once, in random order, plus at most one extra group."""
    seq = list(types)
    rng.shuffle(seq)
    for _ in range(rng.randint(0, 1)):
        seq.insert(rng.randrange(len(seq) + 1), rng.choice(types))
    return seq


def _split_capacity(rng: random.Random, capacity: int, groups: int) -> tuple[int, ...]:
    targets = [0] * groups
    for _ in range(capacity):
        targets[rng.randrange(groups)] += 1
    return tuple(targets)


def _random_school(
    rng: random.Random,
    school_id: str,
    students: tuple[str, ...],
    types: tuple[str, ...],
    capacity_range: tuple[int, int],
    scheme_family: str,
) -> SchoolConfig:
    capacity = rng.randint(*capacity_range)
    acceptable = [s for s in students if rng.random() < 0.9]
    rng.shuffle(acceptable)
    precedence = _random_precedence(rng, types)
    targets = _split_capacity(rng, capacity, len(precedence))
    scheme = _random_scheme(rng, len(precedence), targets, scheme_family)
    return SchoolConfig(
        school=school_id,
        capacity=capacity,
        priority=PriorityOrder(school_id, tuple(acceptable)),
        precedence=tuple(precedence),
        targets=targets,
        scheme=scheme,
    )


def generate_random_instance(params: GeneratorParams) -> ProblemInstance:
    """Draw a valid instance; identical params produce identical instances."""
    rng = random.Random(params.seed)
    width = len(str(params.students))
    students = tuple(f"i{n + 1:0{width}d}" for n in range(params.students))
    schools = tuple(f"s{n + 1}" for n in range(params.schools))
    types = tuple(f"t{n + 1}" for n in range(params.types))

    lo, hi = params.claim_range
    claims = {}
    for s in students:
        size = min(rng.randint(lo, hi), params.types)
        claims[s] = frozenset(rng.sample(types, size))
    profile = TypeProfile(types, claims)

    own = {s: sorted(Contract(s, sc, t) for sc in schools for t in claims[s]) for s in students}
    # in sorted order, since the ids are zero-padded
    ordered = [c for s in students for c in own[s]]

    configs = tuple(
        _random_school(rng, sc, students, types, params.capacity_range, params.scheme_family)
        for sc in schools
    )

    preferences = {}
    for s in students:
        liked = [c for c in own[s] if rng.random() < params.acceptability]
        rng.shuffle(liked)
        preferences[s] = PreferenceOrder(s, tuple(liked))

    # generation is monotone by construction; this is a self-test, and the
    # flat form sorts the contracts already in order in one pass
    violations = FlatMarket.of(ordered, students, configs, preferences, profile).violations()
    if violations:
        raise RuntimeError(f"generator produced an invalid instance: {violations}")
    return ProblemInstance(students, profile, configs, frozenset(ordered), preferences)


def _random_pool(
    rng: random.Random, max_contracts: int
) -> tuple[tuple[str, ...], tuple[str, ...], tuple[Contract, ...]]:
    """Types, students and a sorted pool of at most ``max_contracts`` of
    their contracts (one or two per student) at the single school ``s``."""
    n_types = rng.randint(2, 3)
    types = tuple(f"t{n + 1}" for n in range(n_types))
    n_students = rng.randint(3, 5)
    students = tuple(f"i{n + 1}" for n in range(n_students))
    pool = [Contract(s, "s", t) for s in students for t in rng.sample(types, rng.randint(1, 2))]
    rng.shuffle(pool)
    return types, students, tuple(sorted(pool[:max_contracts]))


def generate_school_pool(
    seed: int, max_contracts: int = 8
) -> tuple[SchoolConfig, tuple[Contract, ...]]:
    """A single random school plus a contract pool of bounded size, for
    exhaustive choice-function audits."""
    rng = random.Random(seed)
    types, students, contracts = _random_pool(rng, max_contracts)
    cfg = _random_school(rng, "s", students, types, (1, 3), "mixed")
    return cfg, contracts


def generate_slot_specific_school(seed: int, max_contracts: int = 8) -> SlotSpecificSchool:
    """A random slot-specific school with a bounded contract universe."""
    rng = random.Random(seed)
    _, _, pool = _random_pool(rng, max_contracts)
    slots = []
    for _ in range(rng.randint(1, 3)):
        ranked = [c for c in pool if rng.random() < 0.7]
        rng.shuffle(ranked)
        slots.append(tuple(ranked))
    return SlotSpecificSchool("s", pool, tuple(slots))


def single_swap_improvement(
    instance: ProblemInstance, seed: int
) -> Optional[tuple[str, dict[str, PriorityOrder]]]:
    """Pick a student somewhere below the top of one school's priority list
    and swap them one position up; returns the beneficiary and the improved
    priority profile, or ``None`` when no list has two students."""
    rng = random.Random(seed)
    options = [cfg for cfg in instance.schools if len(cfg.priority.ranked) >= 2]
    if not options:
        return None
    cfg = rng.choice(options)
    pos = rng.randrange(1, len(cfg.priority.ranked))
    ranked = list(cfg.priority.ranked)
    student = ranked[pos]
    ranked[pos - 1], ranked[pos] = ranked[pos], ranked[pos - 1]
    improved = {c.school: c.priority for c in instance.schools}
    improved[cfg.school] = PriorityOrder(cfg.school, tuple(ranked))
    return student, improved


def unit_flexibility_pair(
    instance: ProblemInstance, seed: int
) -> Optional[tuple[ProblemInstance, ProblemInstance]]:
    """Replace one school's scheme with a (rigid, rigid-plus-one-seat) pair.

    The rigid side forwards upstream vacancies to one receiving group but
    loses the first vacancy; the flexible side forgives that loss at exactly
    one residual vector, so the two schemes differ by a unit increment at a
    single point. Both sides are monotone by construction (see
    :func:`_unit_tables`). Returns ``None`` when no school has at least two
    groups of slots, and raises :class:`SearchCapExceededError`, as a
    comparison of the pair would, when the drawn school's capacity table
    would span more than 2 000 000 unit steps.
    """
    draw = _flexibility_draw(instance, seed)
    return None if draw is None else tuple(map(instance.with_school, draw))


def _flexibility_draw(
    instance: ProblemInstance, seed: int
) -> Optional[tuple[SchoolConfig, SchoolConfig]]:
    """The draw of :func:`unit_flexibility_pair`: the school's rigid and
    flexible configurations, whose pinned table schemes grant the two
    tables of :func:`_unit_tables`; ``None`` when no school qualifies.

    Three shuffles pick the school, its receiving group and the donor
    coordinate of the bump; every pick yields a monotone pair
    (:func:`_unit_tables`), so the first of each is taken. The step cap
    is applied where :func:`_unit_tables` builds the tables.
    """
    rng = random.Random(seed)
    schools = [cfg for cfg in instance.schools if cfg.group_count >= 2 and cfg.capacity >= 1]
    if not schools:
        return None
    rng.shuffle(schools)
    cfg = schools[0]
    receivers = list(range(1, cfg.group_count))
    rng.shuffle(receivers)
    donors = list(range(receivers[0]))
    rng.shuffle(donors)
    rigid, flexible = _unit_tables(cfg.targets, cfg.capacity, receivers[0], donors[0])
    return tuple(replace(cfg, scheme=TableScheme.pinned(t, cfg.targets)) for t in (rigid, flexible))


def _unit_tables(
    targets: tuple[int, ...], bound: int, receiver: int, donor: int
) -> tuple[dict, dict]:
    """The rigid and flexible capacity tables over ``[0, bound]``, for
    ``bound >= 1``, of one school with these group ``targets``.

    The rigid table grants every group its target, except the ``receiver``,
    which gets ``t + max(0, sum(v) - 1)`` at residuals ``v``: every upstream
    vacancy but the first. It is built from the targets, in the key order
    of :func:`capacity_table`. The flexible table adds one seat at the unit
    vector ``e_donor``, where the rigid one grants ``t``.

    Both are monotone for every choice of targets, bound, receiver and
    donor (:func:`choice.check_monotonic` names the unit steps that decide
    it). Rigid: a unit step raises ``max(0, sum(v) - 1)`` by 0 or 1 and
    leaves every other group at its target, so no capacity shrinks and the
    capacity gained over the groups past the raised coordinate is at most 1.
    Flexible: the bump changes the receiver's capacity only where the
    residuals before it are ``e_donor``. A step that raises them from the
    zero vector to ``e_donor`` gains exactly that seat (1); a step that
    raises them from ``e_donor`` reaches a sum of 2, where the rigid table
    already grants ``t + 1`` (gain 0, no shrink); every other step gains
    what it gains in the rigid table.

    Like :func:`capacity_table`, it raises :class:`SearchCapExceededError`
    before it builds a table spanning more than 2 000 000 unit steps.
    """
    _require_steps(len(targets), bound)
    rigid = {
        vec: targets[k] + (max(0, sum(vec) - 1) if k == receiver else 0)
        for k in range(1, len(targets))
        for vec in itertools.product(range(bound + 1), repeat=k)
    }
    bump = tuple(1 if i == donor else 0 for i in range(receiver))
    return rigid, {**rigid, bump: rigid[bump] + 1}
