"""Matching with contracts under dynamic reserves.

Schools fill groups of reserved seats in a precedence order, transferring
otherwise-vacant seats to later groups through monotone capacity transfer
schemes; students rank (school, privilege) contracts; the cumulative offer
mechanism computes the match. The package also ships the verification
toolkit: stability and blocking-set search, choice-function axiom checkers,
priority-improvement checks, flexibility comparisons with the vacancy-chain
algorithm, and slot-specific rule conversion; the ``audit`` command also
decides each student's strategy-proofness from one-contract reports.
"""

from .choice import (
    CapacityTransferScheme,
    ChoiceTrace,
    ConvertedSlotSpecific,
    ForwardSumScheme,
    GroupRecord,
    MonotonicityReport,
    SchoolConfig,
    SlotSpecificSchool,
    TableScheme,
    capacity_table,
    check_monotonic,
    completion_choice,
    convert_slot_specific,
    dynamic_reserves_choice,
    slot_specific_choice,
    sub_choice,
)
from .cop import (
    CopResult,
    CopStep,
    default_proposal_order,
    run_cop,
    run_cop_default,
)
from .errors import (
    InstanceFormatError,
    InvalidInputError,
    ReserveMatchError,
    SearchCapExceededError,
    ValidationError,
)
from .fileio import (
    ex1_path,
    load_allocation,
    load_instance,
    load_slot_market,
    save_allocation,
    save_instance,
    save_slot_market,
)
from .generator import (
    GeneratorParams,
    generate_random_instance,
    generate_school_pool,
    generate_slot_specific_school,
    single_swap_improvement,
    unit_flexibility_pair,
)
from .incentives import (
    FlexibilityComparison,
    ImprovementCheck,
    Misreport,
    allocation_waste,
    check_flexibility_pareto,
    check_respects_improvements,
    improvement_chains,
    is_more_flexible,
    is_unambiguous_improvement,
)
from .instance import ProblemInstance, validate_instance
from .model import (
    Allocation,
    Contract,
    DerivedTypePriority,
    PreferenceOrder,
    PriorityOrder,
    TypeProfile,
    assignments,
    derive_type_priority,
    pareto_dominates,
    student_choice,
)
from .verification import (
    ChoiceTable,
    PropertyCheck,
    StabilityReport,
    check_lad,
    check_substitutability,
    find_blocking_set,
    is_stable,
    tabulate,
    tabulate_school,
)

__version__ = "0.1.0"
