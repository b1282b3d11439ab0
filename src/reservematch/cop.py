"""The cumulative offer process.

Students propose contracts one at a time; schools accumulate every offer they
have ever received and hold their choice from that growing set. The process
stops when no student can propose, and the held contracts are the outcome.
A proposal order decides who moves at each step; with dynamic reserves choice
functions the outcome does not depend on it, and ``check_order_independence``
decides that on a given instance by walking every state the process can
reach, under every order at once.

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

So such a market is order independent, and its walk need not run: each
path the walk explores is the process under some proposal order (the
witness construction in ``_order_independence``), so steps 1 and 2 hold
along it, and every terminal state holds the same allocation. ``audit``
certifies every school of each market it audits and reads
``order_independent: true`` off that certificate, with no walk;
``check_order_independence`` always walks, as the library API and the
test oracle. ``incentives._truncation_misreport`` builds on the same two
steps.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Mapping, Optional, Sequence

from ._engine import Compiled, bits
from .errors import SearchCapExceededError, ValidationError
from .instance import ProblemInstance
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


def _validated(instance: ProblemInstance) -> Compiled:
    market = instance.flat()
    violations = market.violations()
    if violations:
        raise ValidationError(violations)
    return Compiled(market)


def default_proposal_order(instance: ProblemInstance) -> tuple[Contract, ...]:
    """The canonical proposal order: students sorted by id, each student's
    contracts in preference order with unranked contracts trailing."""
    compiled = Compiled.from_instance(instance)
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

    Fully deterministic given the instance.
    """
    compiled = _validated(instance)
    return compiled.to_set(compiled.cop(compiled.default_order_rank()))


# The most process states the order-independence walk visits; a market
# with more is refused, not sampled.
ORDER_STATE_CAP = 100_000


@dataclass(frozen=True)
class OrderIndependenceResult:
    ok: bool
    baseline: frozenset
    divergent_order: Optional[tuple[Contract, ...]] = None
    divergent_outcome: Optional[frozenset] = None

    def __bool__(self) -> bool:
        return self.ok


def check_order_independence(instance: ProblemInstance) -> OrderIndependenceResult:
    """Decide whether every proposal order gives the canonical order's
    outcome, by walking every state the process can reach. Reports a
    proposal order whose outcome differs, if one exists; raises
    ``SearchCapExceededError`` when the market has more than
    ``ORDER_STATE_CAP`` states."""
    compiled = _validated(instance)
    baseline = compiled.cop(compiled.default_order_rank())
    return _order_independence(compiled, baseline)


def _order_independence(compiled: Compiled, baseline: int) -> OrderIndependenceResult:
    """:func:`check_order_independence` on a compiled market whose
    canonical-order outcome is the held mask ``baseline``.

    A state of the process is the global mask of the contracts proposed so
    far: each school holds ``choose`` of what it was offered, and each
    student no school holds can propose their first listed contract not yet
    proposed. A proposal order picks one of these moves at each step, so the
    outcome is order independent exactly when every terminal state (one
    with no move left) holds ``baseline``. The walk is a depth-first search
    from the empty state that visits each state once, with one ``choose``
    per new state, at the school proposed to. Each state carries every
    school's offered local mask, so a move reads its school's offers with
    one OR instead of splitting the whole state.

    The witness needs no constraint solving. Take the path ``c_1, ..., c_T``
    by which the walk first reached a divergent terminal state, and put its
    contracts first, in path order, then the rest in contract order. Under
    that order the process follows the path: before step ``t`` it stands
    at the path's state ``t - 1``, where ``c_t`` is proposable and every
    other proposable contract is a later path contract or off the path, so
    ranks after ``c_t``. After step ``T`` nothing is proposable, and the
    process stops at the divergent state.
    """
    schools = compiled.schools
    school_of, local_bit = compiled.school_of, compiled.local_bit
    seen = {0}
    # a state, each school's offered local mask and held global mask there,
    # and the path that first reached it as a linked ``(last move, rest)``
    # pair, so that a state costs one pair rather than a copy of its path
    empty = (0,) * len(schools)
    stack: list = [(0, empty, empty, None)]
    while stack:
        proposed, offered, held, path = stack.pop()
        holding = sum(held)  # schools hold disjoint masks
        moves = compiled.proposable(proposed, holding)
        if not moves and holding != baseline:
            steps = []
            while path:
                ci, path = path
                steps.append(ci)
            steps.reverse()
            rest = sorted(set(range(len(compiled.contracts))) - set(steps))
            order = tuple(compiled.contracts[ci] for ci in steps + rest)
            return OrderIndependenceResult(
                False, compiled.to_set(baseline), order, compiled.to_set(holding)
            )
        for ci in bits(moves):
            state = proposed | 1 << ci
            if state in seen:
                continue
            if len(seen) >= ORDER_STATE_CAP:
                raise SearchCapExceededError(
                    len(seen) + 1, ORDER_STATE_CAP, "proposal-order states"
                )
            seen.add(state)
            s = school_of[ci]
            offer = offered[s] | 1 << local_bit[ci]
            chosen, _ = schools[s].choose(offer)
            offered_now = offered[:s] + (offer,) + offered[s + 1 :]
            held_now = held[:s] + (compiled.to_global(s, chosen),) + held[s + 1 :]
            stack.append((state, offered_now, held_now, (ci, path)))
    return OrderIndependenceResult(True, compiled.to_set(baseline))
