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
* exhaustive cluster enumerations and spin sums that serve as
  independent ground truth for every identity above.
"""

import importlib

__version__ = "0.1.0"

#: The public names, by defining module.  ``import pottstrip`` loads no
#: submodule: a name's module is imported on first access (PEP 562).
_EXPORTS = {
    "polynomial": ("MultiPoly", "Q", "v", "Q0", "ZERO", "ONE", "VARIABLES"),
    "connectivity": (
        "ConnectivityState",
        "catalan",
        "count_states",
        "enumerate_states",
        "enumerate_two_slice",
    ),
    "lattice": (
        "CyclicStrip",
        "EdgeOp",
        "horizontal",
        "parse_lattice",
        "square_strip",
        "vertical",
    ),
    "transfer": (
        "TransferBlock",
        "BlockStructureReport",
        "character_K",
        "column_transfer",
        "edge_operator",
        "verify_block_structure",
    ),
    "bruteforce": (
        "NtcSpectrum",
        "fk_spectrum",
        "fk_z",
        "spin_z",
        "dual_boundary_z",
        "duality_witness_check",
        "fixed_boundary_spin_z",
    ),
    "characters": (
        "DecompositionResult",
        "amplitude_b",
        "amplitude_c",
        "amplitude_c_term",
        "beraha_q",
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
    ),
    "suites": ("CheckResult", "run_suite", "SUITES"),
}
_MODULE_OF = {name: module for module, names in _EXPORTS.items() for name in names}

__all__ = list(_MODULE_OF)


def __getattr__(name: str):
    module = _MODULE_OF.get(name)
    if module is None:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    value = getattr(importlib.import_module(f".{module}", __name__), name)
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *__all__})
