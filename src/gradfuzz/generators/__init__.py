"""The four input-generation analyses and their session plumbing."""
from .base import AnalysisKind, AnalysisSession, DescentSession
from .binary import BinaryDescentSession, binary_seeds
from .bitshare import BitshareSession, BitshareStore, bitshare_compose
from .sensitivity import SensitivitySession, sensitivity_mutations
from .typed import (
    TypedDescentSession,
    identify_typed_variables,
    lambda_step,
    typed_seed_value,
)

__all__ = [
    "AnalysisKind", "AnalysisSession", "DescentSession",
    "BinaryDescentSession", "binary_seeds",
    "BitshareSession", "BitshareStore", "bitshare_compose",
    "SensitivitySession", "sensitivity_mutations",
    "TypedDescentSession", "identify_typed_variables", "lambda_step",
    "typed_seed_value",
]
