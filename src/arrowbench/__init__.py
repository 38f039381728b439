"""arrowbench: a workbench for partition properties of finite relational structures.

Decides, with independently re-checkable certificates: classical
embedding-Ramsey arrows, pattern-constant (definable) and
stability-restricted arrows, joint-embedding-pattern counts, witness
searches in union structures, proximal coloring checks, convex arrows via
zero-sum games, unstable-sequence detection, automorphism orbits, and
amalgamation probes — all at desk scale with brute-force oracles.
"""

__version__ = "0.1.0"

from arrowbench.structures import (  # noqa: F401
    CanonicalCode,
    Signature,
    Structure,
    canonical_form,
    embedding_maps,
    induced_substructure,
    is_embedding,
    parse_structure,
    serialize_structure,
)
