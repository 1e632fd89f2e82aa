"""The names ``symcret`` exports.  Adding an export, or bringing back a
removed one, changes this list, so the change shows in the diff."""
import types
from importlib.util import find_spec

import symcret
from symcret import jsonio, oracle, relations, synthesis

PUBLIC = [
    "AbstractInput", "AffineMap", "AllControllersVerdict", "BrokenCertificateError",
    "BudgetExceededError", "CellCover", "ContractError", "Controller",
    "ControllerUndefinedError", "DomainError", "DynamicConcretizer",
    "DynamicConcretizerState", "ExtendedRelation",
    "Fig8Case", "Fig8Report", "FiniteTransitionSystem", "Interface", "IntervalCell",
    "OutOfDomainError", "PropertyVerdict", "PropertyWitness", "ReachAvoidSpec",
    "Relation", "RelationCheckError", "RelationKind", "RelationVerdict",
    "RelationWitness", "SpecVerdict", "StrictnessError", "SymcretError",
    "SynthesisResult", "Trajectory", "build_abstraction", "check_asr",
    "check_controlled_simulability", "check_frr", "check_mcr",
    "check_memoryless_concretization",
    "check_memoryless_concretization_all_controllers", "check_relation", "check_spec",
    "closed_loop_run", "controller_count",
    "count_dynamic_runs",
    "extended_relation", "fig8_affine_inputs", "fig8_constant_inputs",
    "fig8_cover", "fig8_target_spec", "is_sub_controller",
    "maximal_interface", "mcr_extension", "memoryless_controller",
    "prove_frr_infeasible_fig8", "quantize",
    "replay_memoryless_witness", "replay_witness", "scripted",
    "synthesize_reach_avoid", "translate_spec", "validate_interface",
    "verify_asr_interval", "verify_mcr_interval",
    "winning_region",
]


def test_public_names_are_pinned():
    # Submodules become attributes of the package once anything imports
    # them, so they are not names the package exports.
    names = sorted(
        name for name, value in vars(symcret).items()
        if not name.startswith("_") and not isinstance(value, types.ModuleType)
    )
    assert names == PUBLIC


def test_test_only_methods_stay_out():
    # Their references live in the tests.
    assert not hasattr(symcret.Relation, "inverse")
    assert not hasattr(symcret.Trajectory, "is_valid_for")
    assert not hasattr(symcret.CellCover, "covers")
    for method in ("contains", "intersects", "is_subset_of"):
        assert not hasattr(symcret.IntervalCell, method)
    assert not hasattr(jsonio, "trajectory_from_obj")
    for name in ("run_crosscheck", "random_system", "induced_abstraction"):
        assert not hasattr(oracle, name)
    assert not hasattr(relations, "compose")
    assert not hasattr(synthesis, "enumerate_controllers")
    # The fig5 scenario is defined by its packaged bundle alone.
    assert find_spec("symcret.fixtures") is None
