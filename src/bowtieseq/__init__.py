"""Degree sequences that admit a realization containing a bowtie.

A bowtie is two triangles sharing one vertex — equivalently the complete
graph on five vertices minus the edges of a 4-cycle; its degree sequence is
(4, 2, 2, 2, 2).  This package decides, for a graphic degree sequence,
whether some realization contains a bowtie subgraph; constructs such a
realization explicitly whenever the answer is yes; and exhaustively
cross-checks both the decision rules and the extremal degree-sum threshold
4n - 4 against a brute-force search over labelled realizations.
"""

from .characterize import (
    CheckReport,
    Failure,
    SigmaReport,
    check_potentially,
    matches_cond3,
    matches_cond4,
    sigma_closed_form,
    sigma_witness,
)
from .graphs import (
    ENUMERATION_LIMIT,
    BowtieWitness,
    NotGraphic,
    SimpleGraph,
    TooLarge,
    TraceMismatch,
    ZeroDegreeVertex,
    attach_by_degrees,
    contains_bowtie,
    degree_sequence,
    dot_text,
    edge_list_text,
    enumerate_realizations,
    oracle_has_bowtie_realization,
)
from .realizer import (
    BadParams,
    FamilyId,
    FamilyPattern,
    InternalExhaustion,
    NotPotentially,
    construct_family,
    family_sequence,
    match_family,
    realize_with_bowtie,
    reattach,
)
from .sequences import (
    DegreeSequence,
    LayoffImpossible,
    LayoffTrace,
    ParseError,
    format_sequence,
    is_graphic,
    lay_off,
    parse_sequence,
    sigma,
)
from .verify import (
    CharacterizationMismatch,
    Mismatch,
    VerificationSummary,
    enumerate_graphic_sequences,
    sigma_empirical,
    verify_characterization,
)

__version__ = "0.1.0"

__all__ = [
    "BadParams",
    "BowtieWitness",
    "CharacterizationMismatch",
    "CheckReport",
    "DegreeSequence",
    "ENUMERATION_LIMIT",
    "Failure",
    "FamilyId",
    "FamilyPattern",
    "InternalExhaustion",
    "LayoffImpossible",
    "LayoffTrace",
    "Mismatch",
    "NotGraphic",
    "NotPotentially",
    "ParseError",
    "SigmaReport",
    "SimpleGraph",
    "TooLarge",
    "TraceMismatch",
    "VerificationSummary",
    "ZeroDegreeVertex",
    "attach_by_degrees",
    "check_potentially",
    "construct_family",
    "contains_bowtie",
    "degree_sequence",
    "dot_text",
    "edge_list_text",
    "enumerate_realizations",
    "enumerate_graphic_sequences",
    "family_sequence",
    "format_sequence",
    "is_graphic",
    "lay_off",
    "match_family",
    "matches_cond3",
    "matches_cond4",
    "oracle_has_bowtie_realization",
    "parse_sequence",
    "realize_with_bowtie",
    "reattach",
    "sigma",
    "sigma_closed_form",
    "sigma_empirical",
    "sigma_witness",
    "verify_characterization",
    "__version__",
]
