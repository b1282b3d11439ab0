"""The cumulative offer process.

Students propose contracts one at a time; schools accumulate every offer they
have ever received and hold their choice from that growing set. The process
stops when no student can propose, and the held contracts are the outcome.
A proposal order decides who moves at each step; with dynamic reserves choice
functions the outcome does not depend on it, and ``check_order_independence``
verifies that empirically on any given instance.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ._engine import Compiled, bits
from .errors import ValidationError
from .instance import ProblemInstance, validate_instance
from .model import Contract

__all__ = [
    "CopStep",
    "CopResult",
    "default_proposal_order",
    "run_cop",
    "run_cop_default",
    "OrderIndependenceResult",
    "check_order_independence",
]


@dataclass(frozen=True)
class CopStep:
    """One step of the process: who proposed what, and the state afterwards.

    ``proposable`` is the set of contracts eligible for the next proposal:
    unproposed contracts of unheld students that are their owner's best
    remaining acceptable option. The process has terminated exactly when it
    is empty.
    """

    step: int
    proposed: Contract
    available: frozenset
    held: Mapping[str, frozenset]
    proposable: frozenset


@dataclass(frozen=True)
class CopResult:
    allocation: frozenset
    steps: tuple[CopStep, ...]


def _check(instance: ProblemInstance) -> None:
    violations = validate_instance(instance)
    if violations:
        raise ValidationError(violations)


def _validated(instance: ProblemInstance) -> Compiled:
    _check(instance)
    return Compiled.from_instance(instance)


def default_proposal_order(instance: ProblemInstance) -> tuple[Contract, ...]:
    """The canonical proposal order: students sorted by id, each student's
    contracts in preference order with unranked contracts trailing."""
    compiled = Compiled.from_instance(instance)
    rank = compiled.default_order_rank()
    return tuple(sorted(compiled.contracts, key=lambda c: rank[compiled.index[c]]))


def _run(
    instance: ProblemInstance, order: Optional[Sequence[Contract]], transcript: bool
) -> CopResult:
    """Compile a valid instance once and run the process under ``order``, or
    under the canonical order when it is None. The steps are built only with
    ``transcript``; otherwise they are empty. The public functions that
    call this validate first."""
    compiled = Compiled.from_instance(instance)
    if order is None:
        order_rank = compiled.default_order_rank()
    else:
        order_rank = compiled.order_rank(order)
    if not transcript:
        return CopResult(compiled.to_set(compiled.cop(order_rank)[0]), ())
    raw_steps: list = []
    held_mask, _ = compiled.cop(order_rank, transcript=raw_steps)
    steps = []
    school_ids = [s.school for s in instance.schools]
    for n, (proposed, available, held_by_school) in enumerate(raw_steps, start=1):
        held = {
            school_ids[si]: compiled.to_set(mask)
            for si, mask in enumerate(held_by_school)
            if mask
        }
        held_students = 0
        for mask in held_by_school:
            for ci in bits(mask):
                held_students |= 1 << compiled.student_bit[ci]
        proposable = compiled.to_set(compiled.proposable(available, held_students))
        steps.append(
            CopStep(
                n, compiled.contracts[proposed], compiled.to_set(available), held, proposable
            )
        )
    return CopResult(compiled.to_set(held_mask), tuple(steps))


def run_cop(instance: ProblemInstance, order: Sequence[Contract]) -> CopResult:
    """Run the cumulative offer process under an explicit proposal order.

    ``order`` must be a permutation of the instance's contract set; at every
    step the order-minimal proposable contract (the lowest rank) is offered. Returns the final
    allocation together with a step-by-step transcript.
    """
    _check(instance)
    return _run(instance, order, transcript=True)


def run_cop_default(instance: ProblemInstance) -> frozenset:
    """The cumulative offer mechanism: the process under the canonical order.

    Fully deterministic given the instance.
    """
    _check(instance)
    return _run(instance, None, transcript=False).allocation


@dataclass(frozen=True)
class OrderIndependenceResult:
    ok: bool
    trials: int
    baseline: frozenset
    divergent_order: Optional[tuple[Contract, ...]] = None
    divergent_outcome: Optional[frozenset] = None

    def __bool__(self) -> bool:
        return self.ok


def check_order_independence(
    instance: ProblemInstance, trials: int, seed: int
) -> OrderIndependenceResult:
    """Run the process under ``trials`` random proposal orders plus the
    canonical one and report the first order whose outcome differs."""
    if trials < 2:
        raise ValueError("need at least two trials to compare")
    compiled = _validated(instance)
    baseline, _ = compiled.cop(compiled.default_order_rank())
    return _order_independence(compiled, baseline, trials, seed)


def _order_independence(
    compiled: Compiled, baseline: int, trials: int, seed: int
) -> OrderIndependenceResult:
    """:func:`check_order_independence` on a compiled valid market whose
    canonical-order outcome is the held mask ``baseline``."""
    rng = random.Random(seed)
    n = len(compiled.contracts)
    for _ in range(trials):
        perm = list(range(n))
        rng.shuffle(perm)
        rank = [0] * n
        for pos, ci in enumerate(perm):
            rank[ci] = pos
        outcome, _ = compiled.cop(rank)
        if outcome != baseline:
            order = tuple(compiled.contracts[ci] for ci in perm)
            return OrderIndependenceResult(
                False, trials, compiled.to_set(baseline), order, compiled.to_set(outcome)
            )
    return OrderIndependenceResult(True, trials, compiled.to_set(baseline))

