"""The cumulative offer process.

Students propose contracts one at a time; schools accumulate every offer they
have ever received and hold their choice from that growing set. The process
stops when no student can propose, and the held contracts are the outcome.
A proposal order decides who moves at each step; with dynamic reserves choice
functions the outcome does not depend on it, by the theorem below.

The completion theorem. Let every school's choice ``C`` have a completion
``C'`` (equal to ``C`` on every offer set from which ``C'`` takes at most
one contract per student) that is substitutable and satisfies the law of
aggregate demand (LAD). Every school that validation certifies
(``instance._scheme_violations``, whose docstring proves it) meets these
hypotheses, and so does every school of a market that ``audit`` accepts;
``verification._completion_axioms_hold`` proves that the completion
completes ``C`` and that the two axioms imply irrelevance of rejected
contracts, IRC, and checks the axioms on a tabulated pool. Then, for
every preference profile:

1. The process under ``C`` equals the process under ``C'``, step by step,
   under any proposal order. By induction, let both have made the same
   offers so far. Suppose ``C'`` held two contracts of one student at one
   school, ``y`` offered after ``x``. The student offered ``y`` only while
   no school held a contract of theirs, so ``x`` had been rejected from
   that school's offers by then, and under a substitutable ``C'`` a
   rejected contract stays rejected as the offer set grows. So ``C'``
   holds at most one contract per student, each school holds the same
   contracts in both processes, and both make the same next offer
   (Hatfield & Kominers, "Hidden substitutes").
2. Under a substitutable ``C'`` that satisfies IRC, that process ends at
   the student-optimal stable allocation under ``C'``, whatever the
   proposal order (Hatfield & Milgrom 2005, Thm 3, which needs IRC for
   choice functions, Aygun & Sonmez 2013; Hirata & Kasuya 2014).

So such a market is order independent: every market that validation
accepts, under every preference profile, since the certificate reads only
the schools. ``audit`` reads that off the certificate it gives each school,
with no walk of the states the process can reach, and a library caller
needs only :func:`run_cop_default`. The tests keep that walk, which covers
every order at once, as the oracle that checks the theorem on small
markets. ``incentives._truncation_misreport`` builds on the same two steps,
and it and ``incentives._reseat`` run changed preference lists under the
truthful proposal order for the same reason.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Sequence

from ._engine import Compiled
from .errors import ValidationError
from .instance import ProblemInstance
from .model import Contract

__all__ = [
    "CopStep",
    "CopResult",
    "default_proposal_order",
    "run_cop",
    "run_cop_default",
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


def _validated(instance: ProblemInstance) -> Compiled:
    market = instance.flat()
    violations = market.violations()
    if violations:
        raise ValidationError(violations)
    return Compiled(market)


def default_proposal_order(instance: ProblemInstance) -> tuple[Contract, ...]:
    """The canonical proposal order: students sorted by id, each student's
    contracts in preference order with unranked contracts trailing. An
    invalid instance raises ``ValidationError``, as the process does."""
    compiled = _validated(instance)
    rank = compiled.default_order_rank()
    return tuple(sorted(compiled.contracts, key=lambda c: rank[compiled.index[c]]))


def run_cop(instance: ProblemInstance, order: Sequence[Contract]) -> CopResult:
    """Run the cumulative offer process under an explicit proposal order.

    ``order`` must be a permutation of the instance's contract set; at every
    step the order-minimal proposable contract (the lowest rank) is offered. Returns the final
    allocation together with a step-by-step transcript.
    """
    compiled = _validated(instance)
    raw_steps: list = []
    held_mask = compiled.cop(compiled.order_rank(order), transcript=raw_steps)
    steps = []
    school_ids = [s.school for s in instance.schools]
    for n, (proposed, available, held_by_school) in enumerate(raw_steps, start=1):
        held = {
            school_ids[si]: compiled.to_set(mask)
            for si, mask in enumerate(held_by_school)
            if mask
        }
        # schools hold disjoint masks, so their sum is their union
        proposable = compiled.to_set(compiled.proposable(available, sum(held_by_school)))
        steps.append(
            CopStep(
                n, compiled.contracts[proposed], compiled.to_set(available), held, proposable
            )
        )
    return CopResult(compiled.to_set(held_mask), tuple(steps))


def run_cop_default(instance: ProblemInstance) -> frozenset:
    """The cumulative offer mechanism: the process under the canonical order.

    Fully deterministic given the instance. Validation certifies every
    school, so every proposal order gives this outcome (the completion
    theorem in the module docstring).
    """
    compiled = _validated(instance)
    return compiled.to_set(compiled.cop(compiled.default_order_rank()))

