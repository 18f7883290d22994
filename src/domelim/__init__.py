"""Exact iterated elimination of dominated strategies in finite games."""

from .errors import (
    AssumptionViolated,
    BudgetExceeded,
    CyclicSystem,
    DomelimError,
    GameParseError,
    InvalidCertificate,
    StructuralError,
    UnsupportedConfiguration,
)
from .game import (
    BeliefMode,
    CorrelatedBelief,
    Game,
    MixedStrategy,
    Restriction,
    restriction_leq,
)
from .lp import (
    LinearProgram,
    LpOutcome,
    best_response_feasible,
    max_min_advantage,
    solve,
)
from .dominance import (
    Inherent,
    Intersection,
    NeverBestResponse,
    Relation,
    StrictMixed,
    StrictPure,
    certify,
    dominated_set,
    is_dominated,
    parse_relation,
    strictly_dominates_pure,
    verify_certificate,
    weakly_dominates_pure,
)
from .reduction import (
    FullSpeed,
    OrderPolicy,
    ReductionStep,
    SingleLex,
    SingleRandom,
    Trace,
    all_outcomes,
    check_hereditary_step,
    check_monotonic_pair,
    check_proof_shape,
    normal_form,
    successors,
)
from .ars import (
    FiniteArs,
    ars_is_weakly_confluent,
    ars_normal_forms,
    ars_unique_nf,
    newman_experiment,
    random_dag,
)
from .gamefile import parse_game, write_game

__all__ = [name for name in dir() if not name.startswith("_")]
