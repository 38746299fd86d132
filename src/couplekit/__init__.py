"""couplekit: desk-scale machinery for Calderon couples of r.i. spaces."""

from .errors import ConvergenceError, CoupleKitError, HypothesisError, UsageError
from .kfunc import KResult, k_block_estimate, k_l1_linf_oracle, k_numeric, k_profile
from .measure import (HALFLINE, UNIT, SeqVec, StepFunction, Window, char_fn,
                      default_unit_window, dilate, double_star,
                      dyadic_envelope, rearrange, zero_fn)
from .orlicz import (ConvexifiedFn, IndexReport, MinimalFn, TGrid,
                     OrliczFn, brudnyi_pair, brudnyi_schedule, convexify,
                     counter, elastic_non_lorentz, elasticity_report, example1,
                     indices, lambda_seq, logfactor_fn, phi_minus, phi_plus,
                     power, psi_count, pwpower, regularize, rv_defect,
                     sample_profile, w_witness)
from .shift import (LSP, RSP, InterlacedFamily, ShiftEstimate, ShiftWitness,
                    family_ratio, gen_interlaced, replay_witness,
                    shift_constant_estimate, shift_schedule)
from .spaces import (BoydIndices, FromSequenceSpace, GeometricWeighted,
                     InducedSeq, KappaEstimate, LinftySeq, LorentzSpace,
                     LpSpace, OrderReversed, OrliczModular, OrliczSpace,
                     PowerWeight, SeparationFit, SeqSpaceSpec, SpaceSpec,
                     TableLogLinear, WeightedLp, dyadic_lp, fit_separation,
                     kappa_estimate, linf_space, norming_functional,
                     rho_profile, seq_norm)
from .specdsl import (parse_any_space, parse_generator, parse_seq_space,
                      parse_space)
from .transfer import (PositiveMatrix, k_transfer, majorization_transfer,
                       op_norm, rank_one_shift)
from .verdict import CoupleReport, brudnyi_evidence, classify_couple

__version__ = "0.1.0"
