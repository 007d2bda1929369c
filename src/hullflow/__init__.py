"""Finite set-system hulls, invariant topologies of permutation flows,
coherence-based attractors, Cantor-continuity, and an exhaustive
claim-sweeping harness."""

__version__ = "0.1.0"

__all__ = ["__version__"]
