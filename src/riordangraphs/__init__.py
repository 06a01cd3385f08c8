"""Riordan graphs over GF(2): series, matrices, graphs, verifiers, scans.

The layers, bottom up:

- binseries: truncated formal power series over GF(2);
- riordan:   Riordan matrices mod 2, A-sequences, the Bell recurrence;
- rgraph:    Riordan graphs, distances, cliques, colorings, relabellings;
- analysis:  each structural/diameter claim as an executable verifier;
- search:    A-sequence enumeration, conjecture scans, table reproduction;
- cli:       the `riordangraphs` command.

The package re-exports the `__all__` of the four lower layers; `analysis`
and `search` are imported by name.
"""

from . import binseries, errors, riordan, rgraph
from .binseries import *
from .errors import *
from .riordan import *
from .rgraph import *

__version__ = "1.0.0"

__all__ = [*binseries.__all__, *errors.__all__, *riordan.__all__, *rgraph.__all__]
