"""Degree sequences that admit a realization containing a bowtie.

A bowtie is two triangles sharing one vertex — equivalently the complete
graph on five vertices minus the edges of a 4-cycle; its degree sequence is
(4, 2, 2, 2, 2).  This package decides, for a graphic degree sequence,
whether some realization contains a bowtie subgraph; constructs such a
realization explicitly whenever the answer is yes; and exhaustively
cross-checks both the decision rules and the extremal degree-sum threshold
4n - 4 against a rules-free search over bowtie placements.

The package exports what a caller of those three jobs needs; the one-step
lay-off API, the rule matchers, the family vocabulary and the enumeration
internals are imported from their own modules.
"""

from .characterize import (
    CheckReport,
    Failure,
    SigmaReport,
    check_potentially,
    sigma_closed_form,
)
from .graphs import (
    BowtieWitness,
    SimpleGraph,
    ZeroDegreeVertex,
    contains_bowtie,
    degree_sequence,
    dot_text,
    edge_list_text,
)
from .realizer import InternalExhaustion, NotPotentially, realize_with_bowtie
from .sequences import (
    DegreeSequence,
    ParseError,
    format_sequence,
    is_graphic,
    parse_sequence,
    sigma,
)
from .verify import (
    CharacterizationMismatch,
    Mismatch,
    VerificationSummary,
    sigma_empirical,
    verify_characterization,
)

__version__ = "0.1.0"

__all__ = [
    "BowtieWitness",
    "CharacterizationMismatch",
    "CheckReport",
    "DegreeSequence",
    "Failure",
    "InternalExhaustion",
    "Mismatch",
    "NotPotentially",
    "ParseError",
    "SigmaReport",
    "SimpleGraph",
    "VerificationSummary",
    "ZeroDegreeVertex",
    "check_potentially",
    "contains_bowtie",
    "degree_sequence",
    "dot_text",
    "edge_list_text",
    "format_sequence",
    "is_graphic",
    "parse_sequence",
    "realize_with_bowtie",
    "sigma",
    "sigma_closed_form",
    "sigma_empirical",
    "verify_characterization",
    "__version__",
]
