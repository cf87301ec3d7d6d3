"""Square variation of partial-sum sequences: exact computation, certified
bounds, interval-family machinery, and a reproducible Monte Carlo lab."""

from .seqcore import DistributionSpec, PrefixSums, mix_seed, prefix_sums, sample_sequence
from .variation import (
    Partition,
    VariationResult,
    p_variation_exact,
    sq_variation_blocked,
    sq_variation_bruteforce,
    sq_variation_exact,
    sq_variation_upper_dyadic,
)

__all__ = [
    "DistributionSpec",
    "PrefixSums",
    "Partition",
    "VariationResult",
    "mix_seed",
    "prefix_sums",
    "sample_sequence",
    "p_variation_exact",
    "sq_variation_blocked",
    "sq_variation_bruteforce",
    "sq_variation_exact",
    "sq_variation_upper_dyadic",
]

__version__ = "0.1.0"
