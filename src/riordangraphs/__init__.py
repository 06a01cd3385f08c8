"""Riordan graphs over GF(2): series, matrices, graphs, verifiers, scans.

The layers, bottom up:

- binseries: truncated formal power series over GF(2);
- riordan:   Riordan matrices mod 2, A-sequences, the Bell recurrence;
- rgraph:    Riordan graphs, distances, cliques, colorings, relabellings;
- analysis:  each structural/diameter claim as an executable verifier;
- search:    A-sequence enumeration, conjecture scans, table reproduction;
- cli:       the `riordangraphs` command.
"""

from .binseries import BinarySeries, from_bitstring, named_series
from .errors import (
    CompositionError,
    DisconnectedError,
    InvertibilityError,
    IoViolationError,
    LengthError,
    PatternError,
    PrecisionError,
    RiordanError,
    ScaleError,
    UsageError,
)
from .riordan import (
    ASequence,
    BinaryTriangle,
    RiordanPair,
    a_sequence,
    bell_matrix_from_aseq,
    catalan_bit,
    catalan_pair,
    g_from_aseq,
    io_pattern_extend,
    is_io_pattern,
    pascal_pair,
    riordan_matrix,
)
from .rgraph import (
    DistanceReport,
    Graph,
    build,
    build_bell_aseq,
    catalan_graph,
    pascal_graph,
    reverse_formula,
)

__version__ = "1.0.0"

__all__ = [
    "ASequence",
    "BinarySeries",
    "BinaryTriangle",
    "CompositionError",
    "DisconnectedError",
    "DistanceReport",
    "Graph",
    "InvertibilityError",
    "IoViolationError",
    "LengthError",
    "PatternError",
    "PrecisionError",
    "RiordanError",
    "RiordanPair",
    "ScaleError",
    "UsageError",
    "a_sequence",
    "bell_matrix_from_aseq",
    "build",
    "build_bell_aseq",
    "catalan_bit",
    "catalan_graph",
    "catalan_pair",
    "from_bitstring",
    "g_from_aseq",
    "io_pattern_extend",
    "is_io_pattern",
    "named_series",
    "pascal_graph",
    "pascal_pair",
    "reverse_formula",
    "riordan_matrix",
]
