"""Verdict engine for couples of r.i. spaces.

The decision rules bundle numeric evidence behind the structure theorems:
pair-with-L_infty reduces to stretchability, separated Boyd indices to
shift properties of the dyadic sequence spaces, matching convexity ranges
to the p-concave/p-convex criterion, and Orlicz/Orlicz pairs to the
joint-elasticity necessary condition.  A positive or negative verdict is
issued only when every hypothesis in the chain is certified at the stated
evidence level (exact shift constants, or a concrete falsifier witness);
everything else is "inconclusive" with the failed hypotheses listed, since
finite searches and finite counter tables cannot prove an asymptotic
property.  A rule that reads the elasticity counters imports ``analysis``.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError
from .measure import Window, _Record, default_unit_window
from .orlicz import OrliczFn, brudnyi_schedule
from .fnspaces import SpaceSpec
from .spaces import OrliczModular, _wlp_norms

CAVEAT_EXACT = "exact shift constants"
CAVEAT_WITNESS = "inelasticity witness of the elasticity counters on their grid"
CAVEAT_NONE = "no certification"


class CoupleReport(_Record):
    _fields = ("spaces", "indices", "applicable", "verdict", "caveat_level", "evidence",
               "reasons", "seeds", "windows")

    def __init__(self, spaces: dict, indices: dict, applicable: list, verdict: str,
                 caveat_level: str, evidence: dict | None = None, reasons: list | None = None,
                 seeds: dict | None = None, windows: dict | None = None):
        self.spaces, self.indices, self.applicable = spaces, indices, applicable
        self.verdict, self.caveat_level = verdict, caveat_level
        self.evidence = {} if evidence is None else evidence
        self.reasons = [] if reasons is None else reasons
        self.seeds = {} if seeds is None else seeds
        self.windows = {} if windows is None else windows

    def to_json_dict(self):
        return {
            "spaces": self.spaces,
            "indices": self.indices,
            "theorem": self.applicable[0] if self.applicable else None,
            "applicable_theorems": self.applicable,
            "verdict": self.verdict,
            "caveat_level": self.caveat_level,
            "evidence": self.evidence,
            "reasons": self.reasons,
            "seeds": self.seeds,
            "windows": self.windows,
        }


def _stretchability_evidence(space: SpaceSpec, window: Window) -> dict:
    """Evidence record for 'E_X has RSP': exact class, elasticity counters, or
    none.

    Only certificates decide, so no RSP search runs here: a finite search
    can neither certify nor falsify a uniform constant (``shift-test`` runs
    one)."""
    if (constant := space.e_space(window).shift_upper()) is not None:
        return {"kind": "exact-weighted-lp", "constant": constant,
                "certified": True, "stretchable": True}
    F = space.generator()
    if F is None:
        return {"kind": "none", "certified": False, "stretchable": None}
    from .analysis import elasticity_report
    rep = elasticity_report(F)
    # the counter growth is the certified falsifier; elastic counters are
    # consistent with stretchability, not a proof of it
    witness = rep.classification == "inelastic-witness"
    return {"kind": "elasticity", "report": rep.to_json_dict(),
            "classification": rep.classification, "certified": witness,
            "stretchable": False if witness else None}


_OPTIONS = ("window", "seed", "p_concave_X", "p_convex_Y", "r_concave_Y")


def classify_couple(X: SpaceSpec, Y: SpaceSpec, options: dict | None = None) -> CoupleReport:
    """Apply the verdict pipeline to a couple of function spaces.

    options: window (Window), seed, assertions {"p_concave_X": p,
    "p_convex_Y": p, "r_concave_Y": r} for the convexity-route hypotheses
    that have no general numeric test; any other key is a usage error.
    """
    opts = dict(options or {})
    for key in opts:
        if key not in _OPTIONS:
            raise UsageError(f"unknown classify_couple option {key!r}; "
                             f"known: {', '.join(_OPTIONS)}")
    if X.domain != Y.domain:
        raise UsageError("couple must live on a single domain")
    window = opts.get("window") or default_unit_window()
    seed = int(opts.get("seed", 0))

    bx, by = X.boyd(), Y.boyd()
    report = CoupleReport(
        spaces={"X": X.spec_string(), "Y": Y.spec_string(), "domain": X.domain},
        indices={"X": bx.to_json_dict(), "Y": by.to_json_dict()},
        applicable=[], verdict="inconclusive", caveat_level=CAVEAT_NONE,
        seeds={"seed": seed}, windows={"window": window.to_json_dict()},
    )

    # (i) pair with L_infty (E_Y's form has p = inf): verdict by stretchability of X
    if (form := Y.e_space(window).weighted_lp_form()) and math.isinf(form[1]):
        report.applicable.append("pair-with-Linfty (stretchability criterion)")
        ev = _stretchability_evidence(X, window)
        report.evidence["stretchability_X"] = ev
        if ev.get("stretchable") is True and ev.get("certified"):
            report.verdict = "calderon"
            # only the exact-weighted-lp kind is certified stretchable
            report.caveat_level = CAVEAT_EXACT
            return report
        if ev.get("stretchable") is False and ev.get("certified"):
            report.verdict = "not-calderon-witness"
            report.caveat_level = CAVEAT_WITNESS
            report.reasons.append(
                "inelasticity witness certifies failure of stretchability")
            return report
        report.reasons.append(
            "stretchability evidence is consistency-level only")
        return report

    # (ii) separated Boyd indices
    gap_ok = by.p - by.p_err > bx.q + bx.q_err
    if gap_ok:
        report.applicable.append("separated-Boyd-indices criterion (p_Y > q_X)")
        return _verdict_from_shift_sides(report, X, Y, window)

    # (iii) p-concavity / p-convexity route
    p_cc = opts.get("p_concave_X")
    p_cv = opts.get("p_convex_Y")
    r_cc = opts.get("r_concave_Y")
    derived = _derive_convexity_p(X, Y, bx, by)
    if (p_cc is not None and p_cv is not None and p_cc == p_cv and r_cc) or derived:
        tag = "user-asserted" if p_cc is not None else "sufficient index criteria"
        report.applicable.append(f"matching convexity route ({tag})")
        return _verdict_from_shift_sides(report, X, Y, window)

    # (iv) Orlicz/Orlicz necessary condition
    Fx, Fy = X.generator(), Y.generator()
    if Fx is not None and Fy is not None:
        report.applicable.append("Orlicz-pair necessary condition (joint elasticity or equal indices)")
        mismatch = (abs(bx.p - by.p) > bx.p_err + by.p_err + 1e-9 or
                    abs(bx.q - by.q) > bx.q_err + by.q_err + 1e-9)
        from .analysis import elasticity_report
        ex, ey = elasticity_report(Fx), elasticity_report(Fy)
        report.evidence["elasticity_X"] = ex.to_json_dict()
        report.evidence["elasticity_Y"] = ey.to_json_dict()
        some_witness = "inelastic-witness" in (ex.classification, ey.classification)
        if mismatch and some_witness:
            report.verdict = "not-calderon-witness"
            report.caveat_level = CAVEAT_WITNESS
            report.reasons.append(
                "index mismatch without joint elasticity (witness attached)")
            return report
        if _is_brudnyi_pair(Fx, Fy):
            report.evidence["brudnyi"] = brudnyi_evidence(
                (Fx, Fy), Window("Z-", -max(256, window.size), -1), seed=seed)
            report.reasons.append(
                "recognized counterexample-pair construction: known Calderon "
                "couple with p_F = p_G < q_F = q_G (annotation, not certified)")
        report.reasons.append("necessary condition not violated; no certifying theorem")
        return report

    report.reasons.append("no applicable theorem: Boyd gap absent, no convexity "
                          "assertion, not an Orlicz pair")
    return report


def _derive_convexity_p(X, Y, bx, by) -> float | None:
    """Sufficient-only index criterion: q_X <= p <= p_Y with Y r-concave."""
    if not (math.isfinite(by.q)):
        return None
    lo = bx.q + bx.q_err
    hi = by.p - by.p_err
    if lo <= hi and math.isfinite(lo):
        return 0.5 * (lo + hi)
    return None


def _verdict_from_shift_sides(report, X, Y, window):
    ex, ey = (S.e_space(window).shift_upper() is not None for S in (X, Y))
    report.evidence["shift_X"] = {"exact-weighted-lp": ex}
    report.evidence["shift_Y"] = {"exact-weighted-lp": ey}
    if ex and ey:
        report.verdict = "calderon"
        report.caveat_level = CAVEAT_EXACT
        return report
    sx = _stretchability_evidence(X, window)
    report.evidence["stretchability_X"] = sx
    if sx.get("stretchable") is False and sx.get("certified"):
        report.verdict = "not-calderon-witness"
        report.caveat_level = CAVEAT_WITNESS
        report.reasons.append("X fails stretchability with certified witness")
        return report
    report.reasons.append("shift hypotheses not certified for both sides")
    return report


def _is_brudnyi_pair(Fx: OrliczFn, Fy: OrliczFn) -> bool:
    return (Fx.name.startswith("brudnyi") and Fy.name.startswith("brudnyi")
            and Fx.params == Fy.params and Fx.name != Fy.name)


# ---------------------------------------------------------------------------
# counterexample-pair evidence
# ---------------------------------------------------------------------------


def _brudnyi_samples(rng, lam: np.ndarray, J: np.ndarray, n_samples: int,
                     k_max: int = 6) -> np.ndarray:
    """n_samples rows over the window, each nonzero at 1 to k_max positions
    drawn from J without replacement: (u + 0.05) * scale * lam there, u
    uniform per position and scale log-normal per row.  Per row the draws
    are the size, the positions, the scale, then one u per position."""
    V = np.zeros((n_samples, lam.size))
    for row in V:
        idx = rng.choice(J, size=min(J.size, int(rng.integers(1, k_max + 1))), replace=False)
        scale = np.exp(rng.normal(0.0, 2.0))
        row[idx] = (rng.random(idx.size) + 0.05) * scale * lam[idx]
    return V


def brudnyi_evidence(pair, window: Window, n_samples: int = 200,
                     seed: int = 0, r: float | None = None) -> dict:
    """Norm-equivalence evidence for the counterexample pair on J0 and J1.

    J0 collects indices whose lambda-scale lands inside the widened psi
    bands [c_k/2, 2 d_k] (there F and G norms are equivalent); on the
    complement J1 both norms behave like the weighted ell_r norm with
    weights 1/lambda_n (resp. 1/nu_n), r = (p+q)/2.  Reports min/max/spread
    statistics over seeded nonnegative samples.
    """
    from .analysis import lambda_seq
    F, G = pair
    p, q = F.params["p"], F.params["q"]
    if r is None:
        r = 0.5 * (p + q)
    lam = lambda_seq(F, window)
    lam_arr = np.array(list(lam.values()))  # in window order, as nu_arr
    nu_arr = np.array(list(lambda_seq(G, window).values()))
    bands = [(c / 2.0, 2.0 * d) for (_, _, _, c, d) in brudnyi_schedule()]
    in_band = np.array([any(lo <= math.log(v) <= hi for lo, hi in bands) for v in lam.values()])
    J0, J1 = np.flatnonzero(in_band), np.flatnonzero(~in_band)  # window positions
    if not J0.size:
        raise UsageError("window too narrow: no index reaches a psi band")
    EF = OrliczModular(F, window)
    EG = OrliczModular(G, window)
    rng = np.random.default_rng(seed)

    # all samples first (J0, then J1), then one norm_rows call per set and space
    V0 = _brudnyi_samples(rng, lam_arr, J0, n_samples)
    V1 = _brudnyi_samples(rng, lam_arr, J1, n_samples) if J1.size else None
    ratios_J0 = EG.norm_rows(V0) / EF.norm_rows(V0)
    spreads_F = EF.norm_rows(V1) / _wlp_norms(V1, 1.0 / lam_arr, r) if J1.size else np.array([1.0])
    spreads_G = EG.norm_rows(V1) / _wlp_norms(V1, 1.0 / nu_arr, r) if J1.size else np.array([1.0])

    def stats(a):
        return {"min": float(np.min(a)), "max": float(np.max(a)),
                "spread": float(np.max(a) / np.min(a))}

    return {
        "r": r,
        "J0_size": int(J0.size), "J1_size": int(J1.size),
        "J0_indices_head": (J0[:16] + window.lo).tolist(),
        "J0_norm_ratio": stats(ratios_J0),
        "J1_weighted_lr_spread_F": stats(spreads_F),
        "J1_weighted_lr_spread_G": stats(spreads_G),
        "samples": n_samples, "seed": seed,
    }
