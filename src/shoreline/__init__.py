"""Multi-robot shoreline search: simulation, certification, optimization.

n unit-speed robots start at the origin and must reach an adversarial line.
The package evaluates the competitive ratio (worst-case hit time divided by
line distance) of concrete trajectory fleets, numerically certifies
snapshot lower bounds, and tunes logarithmic spiral searchers.

The top level re-exports only the quick-start names; everything else lives
in its submodule (geometry, trajectory, evaluator, certifier, optimizer,
report, cli).
"""

from .certifier import snapshot_lower_bound
from .evaluator import evaluate_cr
from .trajectory import Fleet, Ray

__all__ = ["Fleet", "Ray", "evaluate_cr", "snapshot_lower_bound"]
