"""Acceptance suite: one test per criterion, each printing a PASS line.

Tolerances are pinned here, not deferred.  Constants marked "frozen" come
from pre-registered oracle runs recorded in the repository history:
  criterion 3: observed max block/K ratio 1.742 on the reference couple
               (cap required <= 8; frozen check at 2.0),
  criterion 5: witness schedule [64, 128, 256], seed 11 (witness found at
               width 64 with ratio ~1.54 >= 1.5),
  criterion 8: elastic-consistent counter bound B = 8 (observed max 7);
               example1 defect cap 1e9 at x down to 2^-16,
  criterion 9: J0 ratio-spread cap 2.0 (observed 1.0005); J1 weighted-l_r
               spread cap 1.5 (observed ~1 + 1e-9).
"""

import time

import numpy as np
import pytest

from couplekit import (FromSequenceSpace, GeometricWeighted, LinftySeq,
                       LorentzSpace, LpSpace, OrliczModular, OrliczSpace,
                       PowerWeight, SeqVec, TGrid, WeightedLp, Window,
                       brudnyi_evidence, brudnyi_pair, classify_couple,
                       dyadic_lp, elastic_non_lorentz, elasticity_report,
                       example1, fit_separation, indices, k_block_estimate,
                       k_l1_linf_oracle, k_numeric, k_transfer, linf_space,
                       majorization_transfer, op_norm, phi_minus, phi_plus,
                       power, pwpower, rearrange, rho_profile, rv_defect,
                       shift_constant_estimate, shift_schedule)
from couplekit.spaces import shift_values
from conftest import random_seqvec, random_step


def _report(n, text):
    print(f"\n[criterion {n:2d}] PASS — {text}")


def test_criterion_01_k_oracle_agreement():
    """50 seeded f on [0,1], t in {2^-8..2^4}: |K - int f*| <= 1e-5 rel."""
    rng = np.random.default_rng(101)
    L1, LINF = LpSpace(1), linf_space()
    ts = 2.0 ** np.arange(-8, 5)
    t0 = time.time()
    worst = 0.0
    for _ in range(50):
        f = random_step(rng)
        for t in ts:
            oracle = k_l1_linf_oracle(t, f)
            got = k_numeric(t, f, L1, LINF).value
            worst = max(worst, abs(got - oracle) / oracle)
    elapsed = time.time() - t0
    assert worst <= 1e-5
    assert elapsed <= 60.0
    _report(1, f"K-oracle agreement: max rel err {worst:.2e} over 650 cases "
               f"in {elapsed:.1f}s")


def test_criterion_02_sequence_function_k_equality():
    """20 seeded f in span{e_n}, three couples: relative gap <= 1e-5."""
    rng = np.random.default_rng(102)
    win = Window("Z-", -16, -1)
    couples = [
        (LpSpace(1), linf_space(), dyadic_lp(1, win), LinftySeq(win)),
        (LpSpace(1), LpSpace(2), dyadic_lp(1, win), dyadic_lp(2, win)),
        (LpSpace(2), linf_space(), dyadic_lp(2, win), LinftySeq(win)),
    ]
    ts = (0.05, 0.4, 1.0, 3.0, 12.0)
    worst = 0.0
    for _ in range(20):
        xs = random_seqvec(rng, win, k=5, scale_sigma=1.0)
        f = xs.to_step()
        for X, Y, EX, EY in couples:
            for t in ts:
                kf = k_numeric(t, f, X, Y).value
                ks = k_numeric(t, xs, EX, EY).value
                worst = max(worst, abs(kf - ks) / max(kf, 1e-300))
    assert worst <= 1e-5
    _report(2, f"sequence/function K equality: max rel gap {worst:.2e}")


def test_criterion_03_block_estimate_sandwich():
    """Block estimate >= K - 1e-9; ratio <= C_obs (frozen 2.0, cap 8)."""
    win = Window("Z", -24, 0)
    E, F = dyadic_lp(1, win), LinftySeq(win)
    fit = fit_separation(rho_profile(E, F, win))
    rng = np.random.default_rng(1234)
    worst_ratio, worst_gap = 0.0, 0.0
    for _ in range(40):
        k = int(rng.integers(3, 10))
        vals = np.zeros(win.size)
        idx = rng.choice(win.size, k, replace=False)
        vals[idx] = np.exp(rng.normal(0, 2, k))
        x = SeqVec(win, vals)
        lo, hi = min(fit.rho.values()), max(fit.rho.values())
        for t in np.geomspace(lo, hi, 13):
            kv = k_numeric(t, x, E, F).value
            bv = k_block_estimate(t, x, E, F, fit)
            worst_gap = max(worst_gap, kv - bv)
            worst_ratio = max(worst_ratio, bv / kv)
    assert worst_gap <= 1e-9
    assert worst_ratio <= 2.0      # frozen from the pre-registered run
    assert worst_ratio <= 8.0      # spec cap
    _report(3, f"block-estimate sandwich: max ratio {worst_ratio:.3f} "
               f"(frozen cap 2.0), never below K")


def test_criterion_04_weighted_lp_shift_constants():
    """Weighted lp (p in 1,2,4; 3 seeded profiles): C-hat <= 1 + 1e-6."""
    win = Window("Z", -16, 16)
    rng = np.random.default_rng(104)
    results = []
    for p in (1.0, 2.0, 4.0):
        for profile in range(3):
            w = np.exp(rng.normal(0.0, 1.0, win.size))
            E = WeightedLp(p, win, weights=w)
            for side in ("rsp", "lsp"):
                est = shift_constant_estimate(E, side, budget=10000,
                                              seed=1000 * profile + int(p))
                results.append(est.c_hat)
                assert est.c_hat <= 1.0 + 1e-6
    _report(4, f"weighted-lp shift constants: max C-hat {max(results):.9f} "
               f"over 18 searches (budget 1e4)")


def test_criterion_05_inelastic_rsp_witness():
    """Witness ratio >= 1.5 under the doubling schedule, by width 256."""

    def factory(width):
        win = Window("Z-", -width, -1)
        return GeometricWeighted(OrliczModular(example1(), win), 2.0 ** 0.5)

    t0 = time.time()
    est = shift_schedule(factory, "rsp", [64, 128, 256], budget=100000,
                         seed=11, target=1.5, n_pairs_range=(3, 10))
    elapsed = time.time() - t0
    assert est.c_hat >= 1.5
    assert est.history[-1]["width"] <= 256
    assert est.witness is not None
    _report(5, f"inelastic falsifier: RSP witness ratio {est.c_hat:.4f} at "
               f"width {est.history[-1]['width']} in {elapsed:.1f}s")


def test_criterion_06_transfer_correctness():
    """100 majorization + 50 K-transfer instances: exact, positive, bounded."""
    win = Window("Z", -12, 12)
    E, F = dyadic_lp(1, win), LinftySeq(win)
    fit = fit_separation(rho_profile(E, F, win))
    rng = np.random.default_rng(106)
    t0 = time.time()

    for trial in range(100):
        x = random_seqvec(rng, win, k=int(rng.integers(3, 9)))
        y = random_seqvec(rng, win, k=int(rng.integers(3, 9)))
        px = np.array([E.norm(x.prefix(int(a))) for a in win.indices()])
        py = np.array([E.norm(y.prefix(int(a))) for a in win.indices()])
        with np.errstate(divide="ignore", invalid="ignore"):
            c = np.nanmin(np.where(py > 0, px / py, np.inf))
        y = y.scale(0.99 * float(min(c, 1.0)))
        T = majorization_transfer(x, y, E, F)
        err = np.max(np.abs(T.apply(x).values - y.values))
        assert err <= 1e-9 * max(np.max(np.abs(y.values)), 1e-300)
        assert all(v >= 0.0 for v in T.entries.values())
        for label, space in (("E", E), ("F", F)):
            low = op_norm(T, space, "lower", budget=60, seed=trial)
            assert low <= T.certified_bounds[label] + 1e-9

    for trial in range(50):
        vals = np.zeros(win.size)
        idx = rng.choice(np.arange(1, win.size - 1), size=6, replace=False)
        vals[idx] = rng.random(6) + 0.2
        x = SeqVec(win, vals)
        y = SeqVec(win, float(rng.uniform(0.3, 0.49)) * shift_values(vals, 1))
        T = k_transfer(x, y, E, F, fit)
        err = np.max(np.abs(T.apply(x).values - y.values))
        assert err <= 1e-9 * np.max(np.abs(y.values))
        assert all(v >= 0.0 for v in T.entries.values())
        for label, space in (("E", E), ("F", F)):
            low = op_norm(T, space, "lower", budget=60, seed=trial)
            assert low <= T.certified_bounds[label] + 1e-9
    elapsed = time.time() - t0
    assert elapsed <= 120.0
    _report(6, f"transfer correctness: 150 instances exact to 1e-9, bounds "
               f"certified, in {elapsed:.1f}s")


def test_criterion_07_indices():
    """Power exact; pwpower(2,3) = 3 +- 0.02; Lorentz (q,q); Delta2 = 2^p."""
    for p in (1.0, 2.0, 3.5):
        rep = indices(power(p))
        assert rep.alpha_inf == pytest.approx(p, abs=1e-12)
        assert rep.beta_inf == pytest.approx(p, abs=1e-12)
        assert rep.delta2 == pytest.approx(2.0 ** p, abs=1e-9 * 2.0 ** p)
    rep = indices(pwpower(2, 3))
    assert rep.alpha_inf == pytest.approx(3.0, abs=0.02)
    assert rep.beta_inf == pytest.approx(3.0, abs=0.02)
    for q in (2.0, 4.0):
        b = LorentzSpace(2, PowerWeight(1.0 / q)).boyd()
        assert b.p == pytest.approx(q, abs=0.02)
        assert b.q == pytest.approx(q, abs=0.02)
    _report(7, "indices: power exact, pwpower(2,3) -> 3 +- 0.02, Lorentz "
               "power weight -> (q,q) +- 0.02, Delta2 = 2^p +- 1e-9")


def test_criterion_08_elasticity_suite():
    """Counter suite separating elastic / inelastic / regular variation."""
    rep_pow = elasticity_report(power(2))
    assert np.all(rep_pow.totals == 0)
    assert rep_pow.classification == "elastic-consistent"

    rep_nl = elasticity_report(elastic_non_lorentz())
    assert rep_nl.classification == "elastic-consistent"
    assert int(np.max(rep_nl.totals)) <= 8   # frozen bound B

    rep_1 = elasticity_report(example1())
    assert rep_1.classification == "inelastic-witness"
    grid = TGrid.span(0.0, 2048.0)
    counts = [phi_plus(example1(), 2.0 ** -k, 4.0, grid=grid)
              + phi_minus(example1(), 2.0 ** -k, 4.0, grid=grid)
              for k in range(4, 17)]
    assert all(b > a for a, b in zip(counts, counts[1:]))
    assert counts[-1] > 10

    defect = rv_defect(example1(), 2.0 ** -np.arange(4, 17, 2), grid)
    assert np.isfinite(defect) and defect <= 1e9
    _report(8, f"elasticity suite: power counters 0; elastic-nl max count "
               f"{int(np.max(rep_nl.totals))} <= 8; example1 counts "
               f"{counts[0]} -> {counts[-1]} strictly increasing with "
               f"rv defect {defect:.3g} finite")


def test_criterion_09_brudnyi_pair():
    """Index match, J0/J1 norm equivalence spreads, verdict inconclusive."""
    F, G = brudnyi_pair(1.5, 3.0)
    for H in (F, G):
        rep = indices(H)
        assert rep.alpha_inf == pytest.approx(1.5, abs=0.05)
        assert rep.beta_inf == pytest.approx(3.0, abs=0.05)
    ev = brudnyi_evidence((F, G), Window("Z-", -256, -1), n_samples=200, seed=9)
    assert ev["r"] == pytest.approx(2.25)
    assert ev["J0_norm_ratio"]["spread"] <= 2.0          # frozen
    assert ev["J1_weighted_lr_spread_F"]["spread"] <= 1.5  # frozen
    assert ev["J1_weighted_lr_spread_G"]["spread"] <= 1.5  # frozen
    rep = classify_couple(OrliczSpace(F), OrliczSpace(G), {"seed": 9})
    assert rep.verdict == "inconclusive"
    assert rep.verdict != "not-calderon-witness"
    assert "brudnyi" in rep.evidence
    _report(9, f"counterexample pair: indices (1.5, 3.0) +- 0.05 both sides, "
               f"J0 spread {ev['J0_norm_ratio']['spread']:.4f}, verdict "
               f"inconclusive with annotation")


def test_criterion_10_norm_axioms():
    """Every variant, 100 seeded f: r.i., monotone, homogeneous, modular."""
    rng = np.random.default_rng(110)
    win = Window("Z-", -40, -1)
    variants = [
        LpSpace(1), LpSpace(2), LpSpace(4), linf_space(),
        LorentzSpace(2, PowerWeight(0.5)),
        OrliczSpace(pwpower(2, 3)),
        FromSequenceSpace(dyadic_lp(2, win)),
    ]
    orlicz = variants[5]
    for X in variants:
        for _ in range(100):
            f = random_step(rng, n_pieces=8)
            n = X.fn_norm(f)
            assert X.fn_norm(rearrange(f)) == pytest.approx(n, rel=1e-9, abs=1e-12)
            c = float(rng.uniform(0.2, 4.0))
            assert X.fn_norm(f.scale(c)) == pytest.approx(c * n, rel=1e-9, abs=1e-12)
            g = f.with_values(f.vals * rng.uniform(1.0, 1.8, f.vals.size))
            assert n <= X.fn_norm(g) + 1e-12
    rngm = np.random.default_rng(111)
    for _ in range(100):
        f = random_step(rngm, n_pieces=8)
        alpha = orlicz.fn_norm(f)
        if alpha == 0.0:
            continue
        keep = np.abs(f.vals) > 0
        modular = float(np.sum(np.asarray(orlicz.F(np.abs(f.vals[keep]) / alpha))
                               * f.lengths[keep]))
        assert 1 - 1e-8 <= modular <= 1 + 1e-8
    _report(10, "norm axioms: 700 rearrangement/homogeneity/monotonicity "
                "checks at 1e-9, 100 Luxemburg modulars in [1 - 1e-8, 1 + 1e-8]")
