"""Error-correcting codes for the DNA-synthesis-defect channel.

The channel synthesises quaternary strands against the fixed 1234-repeat
template; a defective machine cycle deletes the scheduled symbol from every
strand that needed it.  This package implements the channel model, codes
correcting known and unknown defective cycles, the binary bounded-deletion
machinery behind them, a clique-cover bound on what any such code can
achieve, and brute-force verification drivers for all of it.
"""

from .core import (
    ALPHABET,
    ConstructionError,
    DecodeFailure,
    ParameterError,
    all_strands,
    apply_defects,
    apply_defects_tuple,
    confusable_ball,
    cycles,
    defect_ball,
    diff,
    inverse_diff,
    is_regular,
    run_sequence,
    signature,
    smod4,
    symbol_positions,
)

__all__ = [
    "ALPHABET",
    "ConstructionError",
    "DecodeFailure",
    "ParameterError",
    "all_strands",
    "apply_defects",
    "apply_defects_tuple",
    "confusable_ball",
    "cycles",
    "defect_ball",
    "diff",
    "inverse_diff",
    "is_regular",
    "run_sequence",
    "signature",
    "smod4",
    "symbol_positions",
]
