"""couplekit: desk-scale machinery for Calderon couples of r.i. spaces.

Submodules load on first use: ``import couplekit`` imports none of them, and
the first read of an exported name (``couplekit.k_numeric``, ``from couplekit
import k_numeric``) or of a submodule (``couplekit.orlicz``) imports that
module and what it imports.  A caller compiles only the modules it uses: a
shift search on an Orlicz modular loads no ``kfunc``, ``transfer``,
``verdict``, ``specdsl``, ``analysis`` or ``kappa``, and a K-functional on
Lebesgue spaces no ``orlicz``, ``analysis`` or ``kappa``.  Importing a
module compiles it and builds its classes without generating code: the
records are plain classes over one base, ``measure._Record``.
"""

import importlib

# each exported name, listed under the submodule that defines it
_MODULES = {
    "analysis": ("IndexReport", "TGrid", "counter", "elasticity_report", "indices",
                 "lambda_seq", "phi_minus", "phi_plus", "rv_defect", "w_witness"),
    "errors": ("ConvergenceError", "CoupleKitError", "HypothesisError", "UsageError"),
    "kappa": ("KappaEstimate", "kappa_estimate"),
    "kfunc": ("KResult", "SeparationFit", "fit_separation", "k_block_estimate",
              "k_l1_linf_oracle", "k_numeric", "k_profile", "rho_profile"),
    "measure": ("HALFLINE", "UNIT", "SeqVec", "StepFunction", "Window", "char_fn",
                "default_unit_window", "dyadic_envelope", "rearrange", "zero_fn"),
    "orlicz": ("ConvexifiedFn", "MinimalFn", "OrliczFn", "brudnyi_pair", "brudnyi_schedule",
               "convexify", "elastic_non_lorentz", "example1", "logfactor_fn", "power",
               "pwpower", "sample_profile"),
    "shift": ("LSP", "RSP", "InterlacedFamily", "ShiftEstimate", "ShiftWitness",
              "family_ratio", "gen_interlaced", "replay_witness", "shift_constant_estimate",
              "shift_schedule"),
    "spaces": ("BoydIndices", "FromSequenceSpace", "GeometricWeighted", "InducedSeq",
               "LinftySeq", "LorentzSpace", "LpSpace", "OrderReversed", "OrliczModular",
               "OrliczSpace", "PowerWeight", "SeqSpaceSpec", "SpaceSpec", "WeightedLp",
               "dyadic_lp", "linf_space"),
    "specdsl": ("parse_any_space", "parse_generator", "parse_seq_space", "parse_space"),
    "transfer": ("PositiveMatrix", "k_transfer", "majorization_transfer", "op_norm",
                 "rank_one_shift"),
    "verdict": ("CoupleReport", "brudnyi_evidence", "classify_couple"),
}
_EXPORTS = {name: module for module, names in _MODULES.items() for name in names}
_SUBMODULES = (*_MODULES, "ascent", "cli")

__all__ = list(_EXPORTS)
__version__ = "0.1.0"


def __getattr__(name: str):
    """Import the submodule ``name``, or the one that defines the exported
    ``name``, and bind the result here as an eager import would."""
    if name in _SUBMODULES:
        value = importlib.import_module(f"{__name__}.{name}")
    elif name in _EXPORTS:
        value = getattr(importlib.import_module(f"{__name__}.{_EXPORTS[name]}"), name)
    else:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    globals()[name] = value
    return value


def __dir__() -> list[str]:
    return sorted({*globals(), *_EXPORTS, *_SUBMODULES})
