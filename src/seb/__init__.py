"""SeB: parse, validate, compile and analyze orchestration activities."""

from .compiler import build_raw_cg, enabled_steps, state_upper_bound
from .control import ControlGraph, LinkMap, eval_join, initial_link_map
from .parser import parse_activity, parse_activity_file
from .syntax import pred_pairs, subacts, to_source
from .transforms import (
    build_stages,
    compile_stages,
    minimize,
    run_to_completion,
    tau_compress,
    tau_prioritize,
)
from .variables import check_deployable, classify_occurrences, free_vars, open_for_reception
from .wellformed import desugar_seq, validate_well_formed

__version__ = "0.1.0"

__all__ = [
    "ControlGraph",
    "LinkMap",
    "build_raw_cg",
    "build_stages",
    "check_deployable",
    "classify_occurrences",
    "compile_stages",
    "desugar_seq",
    "enabled_steps",
    "eval_join",
    "free_vars",
    "initial_link_map",
    "minimize",
    "open_for_reception",
    "parse_activity",
    "parse_activity_file",
    "pred_pairs",
    "run_to_completion",
    "state_upper_bound",
    "subacts",
    "tau_compress",
    "tau_prioritize",
    "to_source",
    "validate_well_formed",
]
