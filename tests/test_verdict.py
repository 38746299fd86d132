import math

import numpy as np
import pytest

from couplekit import (FromSequenceSpace, LorentzSpace, LpSpace,
                       OrliczModular, OrliczSpace, PowerWeight, SpaceSpec,
                       StepFunction, TableLogLinear, UsageError, Window,
                       brudnyi_evidence, brudnyi_pair, classify_couple,
                       dyadic_lp, example1, lambda_seq, linf_space, parse_space, power,
                       pwpower)
from couplekit.orlicz import brudnyi_schedule
from couplekit.verdict import CAVEAT_EXACT, CAVEAT_NONE, CAVEAT_WITNESS, _brudnyi_samples
from conftest import reference_brudnyi_samples


# ---------------------------------------------------------------------------
# Boyd indices
# ---------------------------------------------------------------------------


def test_boyd_lp_exact():
    b = LpSpace(2).boyd()
    assert (b.p, b.q) == (2.0, 2.0) and b.p_err == 0.0


def test_boyd_lorentz_power_weight():
    b = LorentzSpace(2, PowerWeight(1.0 / 3.0)).boyd()
    assert b.p == pytest.approx(3.0, abs=0.02)
    assert b.q == pytest.approx(3.0, abs=0.02)


def test_boyd_orlicz_pwpower():
    b = OrliczSpace(pwpower(2, 3)).boyd()
    assert b.p == pytest.approx(3.0, abs=0.02)
    assert b.q == pytest.approx(3.0, abs=0.02)


def test_boyd_lorentz_weight_table():
    # slopes 0.4 and 0.3 of log w: p = 1/0.4, q = 1/0.3; a flat piece gives q = inf
    b = LorentzSpace(2, TableLogLinear([-5.0, 0.0, 5.0], [-2.0, 0.0, 1.5])).boyd()
    assert (b.p, b.q) == (pytest.approx(2.5), pytest.approx(1.0 / 0.3))
    assert (b.p_err, b.q_err, b.method) == (0.02, 0.02, "weight-table")
    b = LorentzSpace(2, TableLogLinear([-5.0, 0.0, 5.0], [-2.0, 0.0, 0.0])).boyd()
    assert (b.p, b.q) == (pytest.approx(2.5), math.inf)


def test_boyd_needs_a_route():
    class Bare(SpaceSpec):
        def spec_string(self):
            return "bare"

    with pytest.raises(UsageError, match="no Boyd-index route for Bare"):
        Bare().boyd()


def test_boyd_from_sequence():
    X = FromSequenceSpace(dyadic_lp(2, Window("Z-", -32, -1)))
    b = X.boyd()
    assert b.p == pytest.approx(2.0, rel=0.05)
    assert b.q == pytest.approx(2.0, rel=0.05)


# ---------------------------------------------------------------------------
# classify_couple
# ---------------------------------------------------------------------------


def test_l2_linf_is_calderon():
    rep = classify_couple(LpSpace(2), linf_space())
    assert rep.verdict == "calderon"
    assert "exact" in rep.caveat_level
    assert any("stretchability" in k for k in rep.evidence)


def test_orlicz_lorentz_vs_linf_witness():
    win = Window("Z-", -64, -1)
    X = FromSequenceSpace(OrliczModular(example1(), win))
    rep = classify_couple(X, linf_space(), {"seed": 3})
    assert rep.verdict == "not-calderon-witness"
    ev = rep.evidence["stretchability_X"]
    # the counters are the certificate; no RSP search is run beside them
    assert (ev["kind"], ev["classification"]) == ("elasticity", "inelastic-witness")
    assert rep.caveat_level == CAVEAT_WITNESS
    assert ev["report"]["classification"] == "inelastic-witness"
    assert "rsp_search" not in ev


def test_brudnyi_pair_inconclusive_with_annotation():
    F, G = brudnyi_pair(1.5, 3.0)
    rep = classify_couple(OrliczSpace(F), OrliczSpace(G), {"seed": 1})
    assert rep.verdict == "inconclusive"
    assert "brudnyi" in rep.evidence
    assert any("counterexample-pair" in r for r in rep.reasons)


def test_orlicz_elastic_vs_linf_stays_inconclusive():
    # consistency-level positive evidence must not certify
    rep = classify_couple(OrliczSpace(pwpower(2, 3)), linf_space())
    assert rep.verdict == "inconclusive"
    assert rep.evidence["stretchability_X"]["classification"] == "elastic-consistent"


def test_power_orlicz_vs_linf_calderon():
    rep = classify_couple(OrliczSpace(power(2)), linf_space())
    assert rep.verdict == "calderon"
    # pwpower(2, 2) is x^2 by its profile, whatever its name
    same = classify_couple(parse_space("orlicz:gen=<pwpower:p0=2,p1=2>"), linf_space())
    assert (same.verdict, same.caveat_level, same.evidence) == \
        (rep.verdict, rep.caveat_level, rep.evidence)


@pytest.mark.parametrize("X", ["lp:p=2", "orlicz:gen=<power:p=2>", "lorentz:p=2,w=pow:0.5"])
def test_exact_lp_constant_is_the_spaces_bound(X):
    # the constant is the certified bound E_X answers, whatever class E_X is
    ev = classify_couple(parse_space(X), linf_space()).evidence["stretchability_X"]
    assert (ev["kind"], ev["constant"], ev["certified"]) == ("exact-weighted-lp", 1.0, True)


def test_boyd_gap_route_both_exact():
    rep = classify_couple(LpSpace(1), LpSpace(4))
    assert "separated-Boyd" in rep.applicable[0]
    assert rep.verdict == "calderon"


def test_domain_mismatch_rejected():
    with pytest.raises(UsageError):
        classify_couple(LpSpace(2, "unit"), LpSpace(2, "halfline"))


def test_report_schema_fields():
    rep = classify_couple(LpSpace(2), linf_space(), {"seed": 5})
    d = rep.to_json_dict()
    for key in ("spaces", "indices", "theorem", "applicable_theorems", "verdict",
                "caveat_level", "evidence", "seeds", "windows"):
        assert key in d
    assert d["spaces"]["X"] == "lp:p=2"


_BOYD_GAP = "separated-Boyd-indices criterion (p_Y > q_X)"


@pytest.mark.parametrize("X, Y, options, verdict, route, caveat, reasons", [
    ("lp:p=2", "lp:p=2", {}, "calderon",
     "matching convexity route (sufficient index criteria)", CAVEAT_EXACT, []),
    ("lp:p=3", "lp:p=2", {"p_concave_X": 2, "p_convex_Y": 2, "r_concave_Y": 3},
     "calderon", "matching convexity route (user-asserted)", CAVEAT_EXACT, []),
    ("orlicz:gen=<example1>", "lp:p=4", {}, "not-calderon-witness", _BOYD_GAP,
     CAVEAT_WITNESS, ["X fails stretchability with certified witness"]),
    ("orlicz:gen=<pwpower:p0=2,p1=3>", "lp:p=4", {}, "inconclusive", _BOYD_GAP,
     CAVEAT_NONE, ["shift hypotheses not certified for both sides"]),
    ("orlicz:gen=<example1>", "orlicz:gen=<power:p=2>", {}, "not-calderon-witness",
     "Orlicz-pair necessary condition (joint elasticity or equal indices)",
     CAVEAT_WITNESS, ["index mismatch without joint elasticity (witness attached)"]),
    ("lp:p=3", "lp:p=1", {}, "inconclusive", None, CAVEAT_NONE,
     ["no applicable theorem: Boyd gap absent, no convexity assertion, not an Orlicz pair"]),
], ids=["convexity-derived", "convexity-asserted", "boyd-gap-witness",
        "boyd-gap-inconclusive", "orlicz-mismatch-witness", "no-theorem"])
def test_verdict_routes(X, Y, options, verdict, route, caveat, reasons):
    rep = classify_couple(parse_space(X), parse_space(Y), options)
    assert (rep.verdict, rep.caveat_level, rep.reasons) == (verdict, caveat, reasons)
    assert rep.applicable == ([route] if route else [])


@pytest.mark.parametrize("p, exponent, exact", [
    (1, 0.5, False), (1.5, 0.25, False), (3, 0.5, False), (2, 0.5, True), (3, 1 / 3, True),
])
def test_lorentz_exact_only_when_lp(p, exponent, exact):
    # p * exponent = 1 is the one power weight whose quasinorm is L_p itself:
    # L_p's form on the pieces, and on E_X the certified shift bound
    X = LorentzSpace(p, PowerWeight(exponent))
    f = StepFunction("unit", (0.0, 0.25, 1.0), (1.0, 0.5))
    form = X.weighted_lp_form_on(f)
    assert (form is not None) is exact
    assert (X.e_space(Window("Z-", -8, -1)).shift_upper() == 1.0) is exact
    if exact:
        assert form[1] == p and np.array_equal(form[0], f.lengths ** (1.0 / p))


def test_lorentz_not_lp_vs_linf_has_no_certificate():
    # E_X is not a weighted ell_p and X has no generator: no certificate
    # either way, and no search stands in for one
    rep = classify_couple(parse_space("lorentz:p=1,w=pow:0.5"), linf_space())
    assert rep.verdict == "inconclusive"
    assert rep.evidence["stretchability_X"] == {"kind": "none", "certified": False,
                                                "stretchable": None}
    rep = classify_couple(parse_space("lorentz:p=1,w=pow:0.5"), LpSpace(4))
    assert rep.evidence["shift_X"] == {"exact-weighted-lp": False}
    assert rep.verdict == "inconclusive"


@pytest.mark.parametrize("key", ["budget", "p_concave_x"])
def test_unknown_option_is_usage_error(key):
    # a stale or misspelt key would otherwise drop its route without a word
    with pytest.raises(UsageError, match=f"unknown classify_couple option '{key}'"):
        classify_couple(LpSpace(3), LpSpace(2), {key: 2})


def test_verdict_deterministic_under_seed():
    a = classify_couple(LpSpace(2), linf_space(), {"seed": 7}).to_json_dict()
    b = classify_couple(LpSpace(2), linf_space(), {"seed": 7}).to_json_dict()
    assert a == b


# ---------------------------------------------------------------------------
# counterexample-pair evidence
# ---------------------------------------------------------------------------


def test_brudnyi_evidence_contents():
    pair = brudnyi_pair(1.5, 3.0)
    ev = brudnyi_evidence(pair, Window("Z-", -256, -1), n_samples=60, seed=2)
    assert ev["r"] == pytest.approx(2.25)
    assert ev["J0_size"] > 0 and ev["J1_size"] > 0
    assert ev["J0_norm_ratio"]["spread"] <= 2.0
    assert ev["J1_weighted_lr_spread_F"]["spread"] <= 1.5
    assert ev["J1_weighted_lr_spread_G"]["spread"] <= 1.5


@pytest.mark.parametrize("seed", [0, 2, 11])
def test_brudnyi_samples_match_the_per_sample_reference(seed):
    # rows drawn in place equal the per-sample dicts bit for bit: J0's rows,
    # then J1's, from one generator, with J0 the indices in a widened psi band
    F, _ = brudnyi_pair(1.5, 3.0)
    window = Window("Z-", -256, -1)
    lam = lambda_seq(F, window)
    bands = [(c / 2.0, 2.0 * d) for (_, _, _, c, d) in brudnyi_schedule()]
    J0 = [n for n in lam if any(lo <= math.log(lam[n]) <= hi for lo, hi in bands)]
    J1 = [n for n in lam if n not in J0]
    assert J0 and J1
    got, ref = np.random.default_rng(seed), np.random.default_rng(seed)
    lam_arr = np.array([lam[n] for n in window.indices()])
    for J in (J0, J1):
        V = _brudnyi_samples(got, lam_arr, np.array(J) - window.lo, 200)
        assert V.tobytes() == reference_brudnyi_samples(ref, window, lam, J, 200).tobytes()


def test_brudnyi_evidence_window_too_narrow():
    pair = brudnyi_pair(1.5, 3.0)
    with pytest.raises(UsageError, match="window too narrow"):
        brudnyi_evidence(pair, Window("Z-", -4, -1), n_samples=5, seed=0)
