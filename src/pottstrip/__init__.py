"""Exact cluster transfer matrices for the Q-state Potts model on cyclic strips.

The package computes, in exact integer arithmetic (rationals only where a
value is one, such as a spin sum at rational v):

* connectivity states (non-crossing partitions with marked blocks) and the
  transfer matrices the strip's bonds induce on them;
* the characters K(l) = trace(T_l ** N) as polynomials in (Q, v);
* the decompositions of the partition function, its winding-cluster
  sectors, boundary-reweighted variants and fixed-boundary strips onto
  those characters, including minimal characters at the rational Beraha
  points Q = 0, 1, 2, 3;
* exhaustive cluster and spin enumerations that serve as independent
  ground truth for every identity above.
"""

from .polynomial import (
    ONE,
    Q,
    Q0,
    VARIABLES,
    ZERO,
    MultiPoly,
    v,
)
from .connectivity import (
    ConnectivityState,
    DetachTag,
    catalan,
    count_states,
    enumerate_states,
    enumerate_two_slice,
    noncrossing_partitions,
)
from .lattice import (
    CyclicStrip,
    EdgeOp,
    horizontal,
    parse_lattice,
    square_strip,
    vertical,
)
from .transfer import (
    BlockStructureReport,
    TransferBlock,
    character_K,
    column_transfer,
    edge_operator,
    verify_block_structure,
)
from .bruteforce import (
    DualityWitness,
    NtcSpectrum,
    dual_boundary_z,
    duality_witness_check,
    duality_witnesses,
    fixed_boundary_spin_z,
    fk_spectrum,
    fk_z,
    spin_z,
)
from .characters import (
    BerahaParam,
    DecompositionResult,
    amplitude_b,
    amplitude_c,
    amplitude_c_term,
    character_F,
    character_from_sectors,
    dual_boundary_decomposition,
    minimal_character,
    z1_minimal_alternating,
    z_fixed_boundary,
    z_fixed_boundary_minimal,
    z_from_characters,
    z_minimal,
    z_sector_from_characters,
)
from .suites import SUITES, CheckResult, run_suite

__version__ = "0.1.0"

__all__ = [
    "MultiPoly",
    "Q",
    "v",
    "Q0",
    "ZERO",
    "ONE",
    "VARIABLES",
    "ConnectivityState",
    "DetachTag",
    "catalan",
    "count_states",
    "enumerate_states",
    "enumerate_two_slice",
    "noncrossing_partitions",
    "CyclicStrip",
    "EdgeOp",
    "horizontal",
    "parse_lattice",
    "square_strip",
    "vertical",
    "TransferBlock",
    "BlockStructureReport",
    "character_K",
    "column_transfer",
    "edge_operator",
    "verify_block_structure",
    "NtcSpectrum",
    "DualityWitness",
    "fk_spectrum",
    "fk_z",
    "spin_z",
    "dual_boundary_z",
    "duality_witnesses",
    "duality_witness_check",
    "fixed_boundary_spin_z",
    "BerahaParam",
    "DecompositionResult",
    "amplitude_b",
    "amplitude_c",
    "amplitude_c_term",
    "character_F",
    "character_from_sectors",
    "dual_boundary_decomposition",
    "minimal_character",
    "z1_minimal_alternating",
    "z_fixed_boundary",
    "z_fixed_boundary_minimal",
    "z_from_characters",
    "z_minimal",
    "z_sector_from_characters",
    "CheckResult",
    "run_suite",
    "SUITES",
]
