"""Finite stochastic transducers: construction, reduction, beliefs, reversal.

The package is organized around one immutable machine type (``Transducer``)
and a brute-force probability oracle; every transformation (quotienting,
rank reduction, belief presentations, reversal, retrodiction) is checked
against that oracle in the test suite.
"""

from .core import (
    Alphabet,
    GeneralizedTransducer,
    History,
    MooreClass,
    Policy,
    Transducer,
    ValidationReport,
    classify_moore,
    from_pomdp,
    is_input_moore,
    is_output_moore,
    make_card_deck,
    validate,
)
from .errors import (
    BudgetExceededError,
    ImpossibleHistoryError,
    MspClosureError,
    PartitionError,
    SingularDiagonalError,
    StructureError,
    VatworldError,
)
from .fixtures import delay_channel, mixture_hmm, parity_flip, parity_flip_redundant

__version__ = "0.1.0"

__all__ = [
    "Alphabet",
    "GeneralizedTransducer",
    "History",
    "MooreClass",
    "Policy",
    "Transducer",
    "ValidationReport",
    "classify_moore",
    "from_pomdp",
    "is_input_moore",
    "is_output_moore",
    "make_card_deck",
    "validate",
    "BudgetExceededError",
    "ImpossibleHistoryError",
    "MspClosureError",
    "PartitionError",
    "SingularDiagonalError",
    "StructureError",
    "VatworldError",
    "delay_channel",
    "mixture_hmm",
    "parity_flip",
    "parity_flip_redundant",
    "__version__",
]
