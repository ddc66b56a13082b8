"""floqlab: a desk-scale numerical laboratory for one-dimensional two-band
periodically driven (Floquet) topological phases.

Simulates the two-step drive exp(-i tx cos k sx) * exp(-i ty sin k sy),
computes the 0- and pi-gap invariants from the static Bloch-axis winding
and from simulated quantum-quench dynamics, cross-checks bulk-edge
correspondence on open lattices, and compiles pulse schedules.
"""

__version__ = "0.1.0"

from .model import Frame, ModelParams, floquet_operator, quasienergy
from .quench import QuenchSpec, evolve_polarizations, winding_from_quench
from .topology import InvariantPair, gap_invariants, min_gap, phase_diagram, winding_number

__all__ = [
    "Frame",
    "InvariantPair",
    "ModelParams",
    "QuenchSpec",
    "evolve_polarizations",
    "floquet_operator",
    "gap_invariants",
    "min_gap",
    "phase_diagram",
    "quasienergy",
    "winding_from_quench",
    "winding_number",
]
