"""Simulation relations, reach-avoid synthesis, and controller concretization
for finite transition control systems, with exact 1-D interval abstractions."""

from .core import (
    Controller,
    ContractError,
    ControllerUndefinedError,
    DomainError,
    FiniteTransitionSystem,
    ReachAvoidSpec,
    SymcretError,
    Trajectory,
)
from .relations import (
    ExtendedRelation,
    Interface,
    Relation,
    RelationCheckError,
    RelationKind,
    RelationVerdict,
    RelationWitness,
    StrictnessError,
    check_asr,
    check_frr,
    check_mcr,
    check_relation,
    extended_relation,
    maximal_interface,
    mcr_extension,
    replay_witness,
    translate_spec,
    validate_interface,
)
from .synthesis import (
    SpecVerdict,
    SynthesisResult,
    check_spec,
    controller_count,
    is_sub_controller,
    synthesize_reach_avoid,
    winning_region,
)
from .concretize import (
    BrokenCertificateError,
    DynamicConcretizer,
    DynamicConcretizerState,
    closed_loop_run,
    count_dynamic_runs,
    memoryless_controller,
    scripted,
)
from .oracle import (
    AllControllersVerdict,
    BudgetExceededError,
    PropertyVerdict,
    PropertyWitness,
    check_controlled_simulability,
    check_memoryless_concretization,
    check_memoryless_concretization_all_controllers,
    replay_memoryless_witness,
)
from .interval import (
    AbstractInput,
    AffineMap,
    CellCover,
    Fig8Case,
    Fig8Report,
    IntervalCell,
    OutOfDomainError,
    build_abstraction,
    fig8_affine_inputs,
    fig8_constant_inputs,
    fig8_cover,
    fig8_target_spec,
    prove_frr_infeasible_fig8,
    quantize,
    verify_asr_interval,
    verify_mcr_interval,
)

__version__ = "0.1.0"
