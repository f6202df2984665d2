"""Kernelization toolkit for red/blue domination on planar graphs."""

from .graph import GraphError, Instance, RBGraph
from .kernelizer import (
    KernelResult,
    KernelTrace,
    RuleApplication,
    apply_rule,
    kernelize,
    lift_solution,
    replay_trace,
    sanitize,
)
from .planar import (
    PlanarityResult,
    PlaneGraph,
    bipartite_euler_bound,
    is_planar,
    planar_verdict,
)
from .solver import InstanceTooLargeError, SolveOutcome, min_rbds, verify_solution
from .transforms import face_cover_to_rbds
from .generators import gen_grid, gen_matching, gen_random_planar

__version__ = "0.1.0"

__all__ = [
    "RBGraph", "Instance",
    "GraphError",
    "KernelResult", "KernelTrace", "RuleApplication",
    "sanitize", "apply_rule", "kernelize", "lift_solution", "replay_trace",
    "SolveOutcome", "verify_solution", "min_rbds", "InstanceTooLargeError",
    "PlaneGraph", "PlanarityResult",
    "is_planar", "planar_verdict", "bipartite_euler_bound",
    "face_cover_to_rbds",
    "gen_grid", "gen_matching", "gen_random_planar",
]
