"""Hierarchical business process nets: modeling, refinement, and simulation.

The package models acyclic nets of processes wired by typed dataflow
channels, arranged in a tree of glass-box decompositions.  It validates
well-formedness, executes the refinement rule calculus (decompose,
add-channel, assign-sort, split-port, fold, unfold) with replayable
scripts, checks refinement between models, and runs nets under greedy
piecewise dataflow semantics.
"""

from .check import (
    Isomorphism,
    Verdict,
    brute_force_derivable,
    check_refinement,
    model_isomorphic,
)
from .core import (
    AtomicSort,
    Channel,
    CollectionSort,
    FiringRule,
    InterfaceBinding,
    Model,
    Port,
    Process,
    ProcessNet,
    RecordSort,
    Sort,
    Violation,
    abstract_net,
    serialize_order,
    sorts_compatible,
    validate_model,
    validate_net,
)
from .errors import BpnError
from .refine import (
    RefinementScript,
    Trace,
    apply_script,
)
from .sim import (
    Fragment,
    check_confluence,
    flatten,
    simulate_greedy,
)
from .textio import export_dot, parse_model, parse_script, print_model

__version__ = "0.1.0"

__all__ = [
    "AtomicSort",
    "BpnError",
    "Channel",
    "CollectionSort",
    "FiringRule",
    "Fragment",
    "InterfaceBinding",
    "Isomorphism",
    "Model",
    "Port",
    "Process",
    "ProcessNet",
    "RecordSort",
    "RefinementScript",
    "Sort",
    "Trace",
    "Verdict",
    "Violation",
    "abstract_net",
    "apply_script",
    "brute_force_derivable",
    "check_confluence",
    "check_refinement",
    "export_dot",
    "flatten",
    "model_isomorphic",
    "parse_model",
    "parse_script",
    "print_model",
    "serialize_order",
    "simulate_greedy",
    "sorts_compatible",
    "validate_model",
    "validate_net",
]
