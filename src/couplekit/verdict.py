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
property.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field

import numpy as np

from .errors import UsageError, check_budget
from .measure import SeqVec, Window, default_unit_window
from .orlicz import OrliczFn, brudnyi_schedule, elasticity_report, lambda_seq
from .shift import RSP, shift_constant_estimate
from .spaces import BoydIndices, OrliczModular, OrliczSpace, SpaceSpec

CAVEAT_EXACT = "exact shift constants"
CAVEAT_SEARCH = "theorem applies; RSP/LSP certified only to search level"
CAVEAT_NONE = "no certification"


def boyd_indices(space: SpaceSpec) -> BoydIndices:
    """Boyd indices (p_X, q_X) with error bars, by the space's own route."""
    return space.boyd()


@dataclass
class CoupleReport:
    spaces: dict
    indices: dict
    applicable: list
    verdict: str
    caveat_level: str
    evidence: dict = field(default_factory=dict)
    reasons: list = field(default_factory=list)
    seeds: dict = field(default_factory=dict)
    windows: dict = field(default_factory=dict)

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


def _stretchability_evidence(space: SpaceSpec, window: Window, budget: int,
                             seed: int) -> dict:
    """Evidence record for 'E_X has RSP': exact class, witness, or consistency."""
    if space.exact_weighted_lp:
        return {"kind": "exact-weighted-lp", "constant": 1.0, "certified": True,
                "stretchable": True}
    F = space.generator()
    if F is not None:
        rep = elasticity_report(F)
        out = {"kind": "elasticity", "report": rep.to_json_dict(),
               "classification": rep.classification}
        if rep.classification == "inelastic-witness":
            # the counter growth is the certified falsifier; a bounded RSP
            # search is attached as corroboration only
            E = space.e_space(window) if isinstance(space, OrliczSpace) else space.E
            est = shift_constant_estimate(E, RSP, budget=min(budget, 2000),
                                          seed=seed)
            out["rsp_search"] = {"c_hat": est.c_hat,
                                 "witness": est.witness.to_json_dict()
                                 if est.witness else None}
            out["certified"] = True
            out["stretchable"] = False
        else:
            out["certified"] = False
            out["stretchable"] = None  # consistent, not proven
        return out
    est = shift_constant_estimate(space.e_space(window), RSP, budget=budget,
                                  seed=seed)
    return {"kind": "search", "c_hat": est.c_hat, "certified": False,
            "stretchable": None}


def classify_couple(X: SpaceSpec, Y: SpaceSpec, options: dict | None = None) -> CoupleReport:
    """Apply the verdict pipeline to a couple of function spaces.

    options: window (Window), budget (at least 1), seed, assertions
    {"p_concave_X": p, "p_convex_Y": p, "r_concave_Y": r} for the
    convexity-route hypotheses that have no general numeric test.
    """
    opts = dict(options or {})
    if X.domain != Y.domain:
        raise UsageError("couple must live on a single domain")
    window = opts.get("window") or default_unit_window()
    budget = int(opts.get("budget", 4000))
    check_budget(budget)
    seed = int(opts.get("seed", 0))

    bx, by = boyd_indices(X), boyd_indices(Y)
    report = CoupleReport(
        spaces={"X": X.spec_string(), "Y": Y.spec_string(), "domain": X.domain},
        indices={"X": bx.to_json_dict(), "Y": by.to_json_dict()},
        applicable=[], verdict="inconclusive", caveat_level=CAVEAT_NONE,
        seeds={"seed": seed}, windows={"window": window.to_json_dict()},
    )

    # (i) pair with L_infty: verdict by stretchability of X
    if Y.is_linf:
        report.applicable.append("pair-with-Linfty (stretchability criterion)")
        ev = _stretchability_evidence(X, window, budget, seed)
        report.evidence["stretchability_X"] = ev
        if ev.get("stretchable") is True and ev.get("certified"):
            report.verdict = "calderon"
            # only the exact-weighted-lp kind is certified stretchable
            report.caveat_level = CAVEAT_EXACT
            return report
        if ev.get("stretchable") is False and ev.get("certified"):
            report.verdict = "not-calderon-witness"
            report.caveat_level = CAVEAT_SEARCH
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
        return _verdict_from_shift_sides(report, X, Y, window, budget, seed)

    # (iii) p-concavity / p-convexity route
    p_cc = opts.get("p_concave_X")
    p_cv = opts.get("p_convex_Y")
    r_cc = opts.get("r_concave_Y")
    derived = _derive_convexity_p(X, Y, bx, by)
    if (p_cc is not None and p_cv is not None and p_cc == p_cv and r_cc) or derived:
        tag = "user-asserted" if p_cc is not None else "sufficient index criteria"
        report.applicable.append(f"matching convexity route ({tag})")
        return _verdict_from_shift_sides(report, X, Y, window, budget, seed)

    # (iv) Orlicz/Orlicz necessary condition
    Fx, Fy = X.generator(), Y.generator()
    if Fx is not None and Fy is not None:
        report.applicable.append("Orlicz-pair necessary condition (joint elasticity or equal indices)")
        mismatch = (abs(bx.p - by.p) > bx.p_err + by.p_err + 1e-9 or
                    abs(bx.q - by.q) > bx.q_err + by.q_err + 1e-9)
        ex, ey = elasticity_report(Fx), elasticity_report(Fy)
        report.evidence["elasticity_X"] = ex.to_json_dict()
        report.evidence["elasticity_Y"] = ey.to_json_dict()
        some_witness = "inelastic-witness" in (ex.classification, ey.classification)
        if mismatch and some_witness:
            report.verdict = "not-calderon-witness"
            report.caveat_level = CAVEAT_SEARCH
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


def _verdict_from_shift_sides(report, X, Y, window, budget, seed):
    ex = X.exact_weighted_lp
    ey = Y.exact_weighted_lp
    report.evidence["shift_X"] = {"exact-weighted-lp": ex}
    report.evidence["shift_Y"] = {"exact-weighted-lp": ey}
    if ex and ey:
        report.verdict = "calderon"
        report.caveat_level = CAVEAT_EXACT
        return report
    sx = _stretchability_evidence(X, window, budget, seed)
    report.evidence["stretchability_X"] = sx
    if sx.get("stretchable") is False and sx.get("certified"):
        report.verdict = "not-calderon-witness"
        report.caveat_level = CAVEAT_SEARCH
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


def brudnyi_evidence(pair, window: Window, n_samples: int = 200,
                     seed: int = 0, r: float | None = None) -> dict:
    """Norm-equivalence evidence for the counterexample pair on J0 and J1.

    J0 collects indices whose lambda-scale lands inside the widened psi
    bands [c_k/2, 2 d_k] (there F and G norms are equivalent); on the
    complement J1 both norms behave like the weighted ell_r norm with
    weights 1/lambda_n (resp. 1/nu_n), r = (p+q)/2.  Reports min/max/spread
    statistics over seeded nonnegative samples.
    """
    F, G = pair
    p, q = F.params["p"], F.params["q"]
    if r is None:
        r = 0.5 * (p + q)
    lam = lambda_seq(F, window)
    nu = lambda_seq(G, window)
    bands = [(c / 2.0, 2.0 * d) for (_, _, _, c, d) in brudnyi_schedule()]
    J0 = [n for n in lam
          if any(lo <= math.log(lam[n]) <= hi for lo, hi in bands)]
    J1 = [n for n in lam if n not in J0]
    if not J0:
        raise UsageError("window too narrow: no index reaches a psi band")
    EF = OrliczModular(F, window)
    EG = OrliczModular(G, window)
    rng = np.random.default_rng(seed)

    def sample_on(idx_set, k_max=6):
        idx = rng.choice(idx_set, size=min(len(idx_set), int(rng.integers(1, k_max + 1))),
                         replace=False)
        scale = np.exp(rng.normal(0.0, 2.0))
        ent = {int(n): float(rng.random() + 0.05) * scale * lam[int(n)] for n in idx}
        return SeqVec.from_entries(window, ent).values

    # all samples first (J0, then J1), then one norm_rows call per set and space
    V0 = np.array([sample_on(J0) for _ in range(n_samples)])
    V1 = np.array([sample_on(J1) for _ in range(n_samples)]) if J1 else None
    ratios_J0 = EG.norm_rows(V0) / EF.norm_rows(V0)

    lam_arr = np.array([lam[int(n)] for n in window.indices()])
    nu_arr = np.array([nu[int(n)] for n in window.indices()])

    def wlr_norms(scales: np.ndarray) -> np.ndarray:
        # the root as a scalar power per row: numpy's array ** can differ by an ulp
        sums = np.sum((np.abs(V1) / scales) ** r, axis=1).tolist()
        return np.array([s ** (1.0 / r) for s in sums])

    spreads_F = EF.norm_rows(V1) / wlr_norms(lam_arr) if J1 else np.array([1.0])
    spreads_G = EG.norm_rows(V1) / wlr_norms(nu_arr) if J1 else np.array([1.0])

    def stats(a):
        return {"min": float(np.min(a)), "max": float(np.max(a)),
                "spread": float(np.max(a) / np.min(a))}

    return {
        "r": r,
        "J0_size": len(J0), "J1_size": len(J1),
        "J0_indices_head": J0[:16],
        "J0_norm_ratio": stats(ratios_J0),
        "J1_weighted_lr_spread_F": stats(spreads_F),
        "J1_weighted_lr_spread_G": stats(spreads_G),
        "samples": n_samples, "seed": seed,
    }
