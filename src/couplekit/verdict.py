"""Verdict engine for couples of r.i. spaces.

A couple's verdict is a function of two evidence records, one per space on
the window.  ``_Evidence`` reads each per-space fact once (the spec, the
domain, ``boyd()``, ``generator()``, the E-space's weighted-lp form and shift
bound) and the elasticity report on first read, so an exact verdict loads no
``analysis``.  ``_decide``'s routes read only the two records: (i) a pair
with L_infty by X's stretchability; (ii) separated Boyd indices and (iii)
matching convexity ranges by one shift-sides rule; (iv) an Orlicz pair by
the joint-elasticity necessary condition, beside which the seeded
counterexample-pair annotation is a step of the couple.  A definite verdict
needs a certificate (exact shift constants, or a concrete falsifier
witness); everything else is "inconclusive" with the failed hypotheses
listed, since finite searches and counter tables cannot prove an
asymptotic property.
"""

from __future__ import annotations

import math

import numpy as np

from .errors import UsageError, check_seed
from .measure import Window, _Record, default_unit_window
from .orlicz import OrliczFn, brudnyi_schedule
from .fnspaces import SpaceSpec
from .spaces import OrliczModular, _wlp_norms

CAVEAT_EXACT = "exact shift constants"
CAVEAT_WITNESS = "inelasticity witness of the elasticity counters on their grid"
CAVEAT_NONE = "no certification"
_CAVEATS = {"calderon": CAVEAT_EXACT, "not-calderon-witness": CAVEAT_WITNESS,
            "inconclusive": CAVEAT_NONE}


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


class _Evidence:
    """What a verdict reads of one space on one window, each fact read once."""

    def __init__(self, space: SpaceSpec, window: Window):
        self.spec, self.domain = space.spec_string(), space.domain
        self.boyd, self.generator = space.boyd(), space.generator()
        E = space.e_space(window)
        self.shift_upper, self.form = E.shift_upper(), E.weighted_lp_form()
        self._elasticity = None

    @property
    def elasticity(self):
        """The generator's elasticity report, computed on first read."""
        if self._elasticity is None:
            from .analysis import elasticity_report
            self._elasticity = elasticity_report(self.generator)
        return self._elasticity

    @property
    def stretchability(self) -> dict:
        """'E_X has RSP': exact class, elasticity counters, or none.  Only
        certificates decide, so no RSP search runs here: a finite search can
        neither certify nor falsify a uniform constant (``shift-test`` runs one)."""
        if self.shift_upper is not None:
            return {"kind": "exact-weighted-lp", "constant": self.shift_upper,
                    "certified": True, "stretchable": True}
        if self.generator is None:
            return {"kind": "none", "certified": False, "stretchable": None}
        # the counter growth is the certified falsifier; elastic counters are
        # consistent with stretchability, not a proof of it
        rep = self.elasticity
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
    return _decide(_Evidence(X, window), _Evidence(Y, window), window, opts)


def _settle(report: CoupleReport, verdict: str, *reasons: str) -> CoupleReport:
    report.verdict, report.caveat_level = verdict, _CAVEATS[verdict]
    report.reasons.extend(reasons)
    return report


def _decide(x: _Evidence, y: _Evidence, window: Window, opts: dict) -> CoupleReport:
    """The verdict on the couple (X, Y) from its two records on the window."""
    bx, by = x.boyd, y.boyd
    seed = check_seed(int(opts.get("seed", 0)))
    report = CoupleReport(
        spaces={"X": x.spec, "Y": y.spec, "domain": x.domain},
        indices={"X": bx.to_json_dict(), "Y": by.to_json_dict()},
        applicable=[], verdict="inconclusive", caveat_level=CAVEAT_NONE,
        seeds={"seed": seed}, windows={"window": window.to_json_dict()},
    )

    # (i) pair with L_infty (E_Y's form has p = inf): verdict by stretchability of X
    if y.form and math.isinf(y.form[1]):
        report.applicable.append("pair-with-Linfty (stretchability criterion)")
        ev = report.evidence["stretchability_X"] = x.stretchability
        # only the exact-weighted-lp kind is stretchable, and only a witness is not
        if ev["stretchable"]:
            return _settle(report, "calderon")
        if ev["stretchable"] is False:
            return _settle(report, "not-calderon-witness",
                           "inelasticity witness certifies failure of stretchability")
        return _settle(report, "inconclusive", "stretchability evidence is consistency-level only")

    # (ii) separated Boyd indices; (iii) the p-concavity / p-convexity route,
    # asserted or by the sufficient-only index criterion q_X <= p <= p_Y
    lo, hi = bx.q + bx.q_err, by.p - by.p_err
    p_cc, route = opts.get("p_concave_X"), None
    asserted = p_cc is not None and p_cc == opts.get("p_convex_Y") and opts.get("r_concave_Y")
    if hi > lo:
        route = "separated-Boyd-indices criterion (p_Y > q_X)"
    elif asserted or (math.isfinite(by.q) and math.isfinite(lo) and lo <= hi):
        # named after the clause that decided: the assertion when it holds
        tag = "user-asserted" if asserted else "sufficient index criteria"
        route = f"matching convexity route ({tag})"
    if route:
        report.applicable.append(route)
        report.evidence["shift_X"] = {"exact-weighted-lp": x.shift_upper is not None}
        report.evidence["shift_Y"] = {"exact-weighted-lp": y.shift_upper is not None}
        if x.shift_upper is not None and y.shift_upper is not None:
            return _settle(report, "calderon")
        ev = report.evidence["stretchability_X"] = x.stretchability
        if ev["stretchable"] is False:
            return _settle(report, "not-calderon-witness",
                           "X fails stretchability with certified witness")
        return _settle(report, "inconclusive", "shift hypotheses not certified for both sides")

    # (iv) Orlicz/Orlicz necessary condition
    if x.generator is not None and y.generator is not None:
        report.applicable.append("Orlicz-pair necessary condition (joint elasticity or equal indices)")
        mismatch = (abs(bx.p - by.p) > bx.p_err + by.p_err + 1e-9 or
                    abs(bx.q - by.q) > bx.q_err + by.q_err + 1e-9)
        report.evidence["elasticity_X"] = x.elasticity.to_json_dict()
        report.evidence["elasticity_Y"] = y.elasticity.to_json_dict()
        if mismatch and "inelastic-witness" in (x.elasticity.classification,
                                                y.elasticity.classification):
            return _settle(report, "not-calderon-witness",
                           "index mismatch without joint elasticity (witness attached)")
        if _is_brudnyi_pair(x.generator, y.generator):
            report.evidence["brudnyi"] = brudnyi_evidence(
                (x.generator, y.generator), Window("Z-", -max(256, window.size), -1), seed=seed)
            report.reasons.append(
                "recognized counterexample-pair construction: known Calderon "
                "couple with p_F = p_G < q_F = q_G (annotation, not certified)")
        return _settle(report, "inconclusive", "necessary condition not violated; no certifying theorem")

    return _settle(report, "inconclusive", "no applicable theorem: Boyd gap absent, no "
                   "convexity assertion, not an Orlicz pair")


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
    rng = np.random.default_rng(check_seed(seed))

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
