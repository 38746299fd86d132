import functools
import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplekit import (FromSequenceSpace, GeometricWeighted, InducedSeq, LinftySeq,
                       LorentzSpace, LpSpace, OrderReversed, OrliczModular,
                       OrliczSpace, PowerWeight, SeqSpaceSpec, SeqVec, StepFunction, TableLogLinear,
                       MinimalFn, UsageError, WeightedLp, Window, brudnyi_pair,
                       char_fn, convexify, dyadic_lp, elastic_non_lorentz, example1,
                       fit_separation, k_numeric, kappa_estimate, linf_space,
                       logfactor_fn, norming_functional, parse_any_space,
                       parse_generator, parse_seq_space, parse_space, power,
                       pwpower, rearrange, regularize, rho_profile, seq_norm)
from couplekit.spaces import _Conjugated, _luxemburg_log, shift_values
from couplekit.transfer import FUNCTIONAL_TOL
from conftest import (SEARCH_SPACE_KINDS, random_seqvec, random_step,
                      search_space)


# ---------------------------------------------------------------------------
# function-space norms
# ---------------------------------------------------------------------------


def test_lp_norm_example():
    f = char_fn(0, 0.25, height=2.0)
    assert LpSpace(2).fn_norm(f) == pytest.approx(1.0)
    assert linf_space().fn_norm(f) == pytest.approx(2.0)


def test_orlicz_square_matches_l2():
    f = char_fn(0, 0.25, height=2.0)
    assert OrliczSpace(power(2)).fn_norm(f) == pytest.approx(1.0, rel=1e-10)


def test_orlicz_char_of_reciprocal_measure():
    # ||chi_A||_{L_F} = 1/t when measure(A) = 1/F(t)
    F = pwpower(2, 3)
    for t in (1.5, 3.0, 7.0):
        A = char_fn(0, 1.0 / float(F(t)))
        assert OrliczSpace(F).fn_norm(A) == pytest.approx(1.0 / t, rel=1e-9)


def test_lorentz_power_weight_closed_form():
    # ||chi_[0,m)||_{w,p} with w = t^{1/q}: (q/p)^{1/p} m^{1/q}
    p, q = 2.0, 4.0
    X = LorentzSpace(p, PowerWeight(1.0 / q))
    for m in (0.125, 0.5, 1.0):
        expect = (q / p) ** (1 / p) * m ** (1 / q)
        assert X.fn_norm(char_fn(0, m)) == pytest.approx(expect, rel=1e-12)


def test_lorentz_table_weight_matches_power():
    p = 2.0
    grid = np.linspace(-40.0, 2.0, 85)
    table = TableLogLinear(grid, 0.25 * grid)
    Xt = LorentzSpace(p, table)
    Xp = LorentzSpace(p, PowerWeight(0.25))
    f = char_fn(0, 0.7, height=1.3)
    assert Xt.fn_norm(f) == pytest.approx(Xp.fn_norm(f), rel=1e-9)


def test_lorentz_flat_weight_diverges():
    table = TableLogLinear([-30.0, 0.0], [0.0, 0.0])
    X = LorentzSpace(2.0, table)
    assert X.fn_norm(char_fn(0, 0.5)) == math.inf


def test_finite_q_regime_flag():
    with pytest.raises(ValueError):
        TableLogLinear([-2.0, 0.0], [0.0, 0.0], assume_finite_q=True)
    TableLogLinear([-2.0, 0.0], [-1.0, 0.0], assume_finite_q=True)


def _variants():
    win = Window("Z-", -40, -1)
    return [
        LpSpace(1), LpSpace(2), LpSpace(4), linf_space(),
        LorentzSpace(2, PowerWeight(0.5)),
        OrliczSpace(pwpower(2, 3)),
        FromSequenceSpace(dyadic_lp(2, win)),
    ]


def test_rearrangement_invariance(rng):
    for X in _variants():
        for _ in range(12):
            f = random_step(rng)
            n1, n2 = X.fn_norm(f), X.fn_norm(rearrange(f))
            assert n2 == pytest.approx(n1, rel=1e-9)


def test_lattice_monotonicity(rng):
    for X in _variants():
        for _ in range(8):
            f = random_step(rng)
            g = f.with_values(f.vals * rng.uniform(1.0, 2.0, f.vals.size))
            assert X.fn_norm(f) <= X.fn_norm(g) + 1e-12


def test_homogeneity_and_triangle(rng):
    for X in _variants():
        C = X.triangle_constant
        for _ in range(6):
            f = random_step(rng, n_pieces=8)
            g = f.with_values(rng.uniform(0, 3, f.vals.size))
            c = rng.uniform(0.1, 5.0)
            assert X.fn_norm(f.scale(c)) == pytest.approx(c * X.fn_norm(f), rel=1e-9)
            lhs = X.fn_norm(f.with_values(f.vals + g.vals))
            assert lhs <= C * (X.fn_norm(f) + X.fn_norm(g)) * (1 + 1e-9)


def test_luxemburg_modular_consistency(rng):
    X = OrliczSpace(pwpower(2, 3))
    for _ in range(20):
        f = random_step(rng)
        alpha = X.fn_norm(f)
        vals, lens = np.abs(f.vals), f.lengths
        keep = vals > 0
        modular = float(np.sum(np.asarray(X.F(vals[keep] / alpha)) * lens[keep]))
        assert 1 - 1e-8 <= modular <= 1 + 1e-8


def test_double_star_domination_transfer(rng):
    # g* = D_2 f*  =>  f** <= g**  =>  ||f|| <= ||g|| for Lp and Lorentz
    from couplekit import dilate
    spaces = [LpSpace(1, "halfline"), LpSpace(2, "halfline"),
              LorentzSpace(2, PowerWeight(0.5), "halfline")]
    for _ in range(8):
        f = random_step(rng, domain="halfline")
        g = dilate(rearrange(f), 2.0)
        for X in spaces:
            assert X.fn_norm(f) <= X.fn_norm(g) * (1 + 1e-6)


# ---------------------------------------------------------------------------
# sequence-space norms
# ---------------------------------------------------------------------------


def test_seq_norm_examples():
    win = Window("Z", -8, 8)
    E1 = dyadic_lp(1, win)
    assert E1.norm(SeqVec.basis(win, 0)) == pytest.approx(1.0)
    assert LinftySeq(win).norm(SeqVec.from_entries(win, {1: -3.0, 4: 2.0})) == 3.0
    # modular space with F = x^2: single entry 2^{-n/2} at n has norm 1
    EF = OrliczModular(power(2), win)
    for n in (-6, -1, 3):
        x = SeqVec.basis(win, n, 2.0 ** (-n / 2.0))
        assert EF.norm(x) == pytest.approx(1.0, rel=1e-10)


def test_seq_norm_function_space_routing(rng):
    # seq_norm(X, x) = ||sum x(n) e_n||_X, including internal rearrangement
    win = Window("Z-", -12, -1)
    X = LorentzSpace(2, PowerWeight(0.5))
    x = random_seqvec(rng, win, k=4, scale_sigma=1.0)
    assert seq_norm(X, x) == pytest.approx(X.fn_norm(x.to_step()), rel=1e-12)


def test_order_reversed_norm():
    win = Window("Z-", -6, -1)
    E = dyadic_lp(1, win)
    R = OrderReversed(E)
    assert R.window == Window("Z+", 0, 5)
    x = SeqVec.from_entries(R.window, {0: 1.0, 3: 2.0})
    # x~(n) = x(-(n+1)): entries move to -1 and -4
    expect = E.norm(SeqVec.from_entries(win, {-1: 1.0, -4: 2.0}))
    assert R.norm(x) == pytest.approx(expect)
    # a reversed weighted ell_1 is a weighted ell_1, and reversing it again
    # gives E's weights back; a wrapper reverses back to its inner space
    RR = R.reversed_space()
    assert type(R) is type(RR) is WeightedLp and RR.window == win
    assert np.array_equal(RR.weights, E.weights) and RR.spec_string() == E.spec_string()
    vals = np.linspace(0.3, 1.8, win.size)
    assert RR.norm_values(vals) == E.norm_values(vals)
    M = OrliczModular(example1(), win)
    assert OrderReversed(M).reversed_space() is M


def test_geometric_weighted_norm():
    win = Window("Z-", -6, -1)
    E = GeometricWeighted(LinftySeq(win), 2.0)
    assert E.unit_norm(-3) == pytest.approx(2.0 ** -3)


def test_dual_weighting_identity():
    # ||e_n||_{E_Lp} * ||e_n||_{E_Lp'} = 2^n
    win = Window("Z", -10, 10)
    for p in (1.5, 2.0, 3.0):
        q = p / (p - 1.0)
        Ep, Eq = dyadic_lp(p, win), dyadic_lp(q, win)
        for n in (-7, 0, 5):
            assert Ep.unit_norm(n) * Eq.unit_norm(n) == pytest.approx(2.0 ** n)


# ---------------------------------------------------------------------------
# rho, separation, kappa
# ---------------------------------------------------------------------------


def test_rho_examples():
    win = Window("Z", -6, 6)
    E1, E2, Einf = dyadic_lp(1, win), dyadic_lp(2, win), LinftySeq(win)
    rho = rho_profile(E1, Einf, win)
    assert all(rho[n] == pytest.approx(2.0 ** n) for n in rho)
    rho_same = rho_profile(E2, E2, win)
    assert all(v == pytest.approx(1.0) for v in rho_same.values())
    rho12 = rho_profile(E1, E2, win)
    assert all(rho12[n] == pytest.approx(2.0 ** (n / 2.0)) for n in rho12)


def test_fit_separation_examples():
    ns = range(-8, 9)
    fit = fit_separation({n: 2.0 ** n for n in ns})
    assert fit.beta == pytest.approx(1.0) and fit.C0 == pytest.approx(1.0)
    assert fit.separated

    flat = fit_separation({n: 1.0 for n in ns})
    assert not flat.separated

    wob = fit_separation({n: 2.0 ** n * (1 + 0.1 * (-1) ** n) for n in ns})
    assert wob.separated
    assert wob.beta >= 1 - math.log2(11.0 / 9.0) - 1e-12
    assert wob.C0 <= 1.1 / 0.9 + 1e-12
    # exhaustive inequality holds at the fitted constants
    rho = wob.rho
    for m in rho:
        for mp in rho:
            if mp > m:
                assert rho[mp] >= rho[m] * 2.0 ** ((mp - m) * wob.beta) / wob.C0 * (1 - 1e-12)


def test_kappa_estimates():
    win = Window("Z", -12, 12)
    k2 = kappa_estimate(dyadic_lp(2, win), budget=300, seed=1)
    assert k2.plus_est == pytest.approx(2 ** 0.5, rel=0.02)
    assert k2.minus_est == pytest.approx(2 ** -0.5, rel=0.02)
    k1 = kappa_estimate(dyadic_lp(1, win), budget=300, seed=1)
    assert k1.plus_est == pytest.approx(2.0, rel=0.02)
    assert k1.minus_est == pytest.approx(0.5, rel=0.02)
    kinf = kappa_estimate(LinftySeq(win), budget=300, seed=1)
    assert kinf.plus_est == pytest.approx(1.0, rel=0.02)
    assert kinf.minus_est == pytest.approx(1.0, rel=0.02)
    # lower-bound semantics
    assert k2.plus_lb <= k2.plus_est + 1e-12


def _reference_best_shift_ratio(space, n, budget, rng):
    """kappa's step-by-step ascent: one ratio, two ``norm_values`` calls, per step."""
    def ratio(vals):
        denom, num = space.norm_values(vals), space.norm_values(shift_values(vals, n))
        if denom == 0.0:
            return 0.0
        return math.inf if num > 1e12 * denom else num / denom

    size = space.window.size
    units = space.unit_norms()
    ratios = units[n:] / units[:size - n] if n > 0 else units[:size + n] / units[-n:]
    best = float(np.max(ratios)) if ratios.size else 0.0
    for _ in range(max(1, budget)):
        vals = np.zeros(size)
        k = rng.integers(1, max(2, size // 4))
        lo_ok, hi_ok = (-n, size) if n < 0 else (0, size - n)
        idx = rng.choice(np.arange(lo_ok, hi_ok), size=min(k, hi_ok - lo_ok),
                         replace=False)
        vals[idx] = rng.random(idx.size) + 0.1
        r = ratio(vals)
        for _ in range(8):
            j = int(rng.choice(idx))
            old = vals[j]
            vals[j] = old * (2.0 if rng.random() < 0.5 else 0.5)
            r2 = ratio(vals)
            if r2 > r:
                r = r2
            else:
                vals[j] = old
        best = max(best, r)
        if math.isinf(best):
            break
    return best


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(SEARCH_SPACE_KINDS), width=st.integers(2, 12),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), base=st.floats(0.4, 3.0),
       budget=st.integers(1, 60), seed=st.integers(0, 2 ** 16))
def test_kappa_table_equals_step_by_step_ascent(kind, width, p, base, budget, seed):
    E = search_space(kind, Window("Z-", -width, -1), p, base)
    est = kappa_estimate(E, budget=budget, seed=seed)
    assert est.table == _reference_kappa_table(E, est, budget, seed)


def _reference_kappa_table(E, est, budget, seed):
    shifts = sorted(n for n in est.table if n > 0)
    per = max(4, budget // max(1, 2 * len(shifts)))
    rng = np.random.default_rng(seed)
    ref = {}
    for n in shifts:
        ref[n] = _reference_best_shift_ratio(E, n, per, rng)
        ref[-n] = _reference_best_shift_ratio(E, -n, per, rng)
    return ref


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_kappa_table_after_an_overflow_equals_step_by_step_ascent(seed):
    # a shift by 6 overflows on a base-100 geometric weight: the search stops
    # at the first start that does, and the next shift's starts (which beat
    # the unit vectors on a modular space) must be the draws a start-by-start
    # search makes
    win = Window("Z-", -24, -1)
    E = GeometricWeighted(OrliczModular(example1(), win), 100.0)
    est = kappa_estimate(E, budget=200, seed=seed)
    assert math.isinf(est.table[6]) and math.isfinite(est.table[-6])
    assert est.table == _reference_kappa_table(E, est, 200, seed)


@pytest.mark.parametrize("build", [
    lambda win: kappa_estimate(dyadic_lp(2, win)),
    lambda win: parse_space("fromseq:<seq:lpw:p=2>", window=win),
], ids=["kappa_estimate", "fromseq"])
def test_kappa_on_one_index_window_is_usage_error(build):
    with pytest.raises(UsageError, match="at least 2 indices; this one has 1"):
        build(Window("Z-", -1, -1))


@pytest.mark.parametrize("budget", [0, -5])
def test_kappa_budget_below_one_is_usage_error(budget):
    # it used to run 4 starts per shift whatever the budget
    with pytest.raises(UsageError, match=f"budget must be at least 1; got {budget}"):
        kappa_estimate(dyadic_lp(2, Window("Z-", -16, -1)), budget=budget)


def test_from_sequence_enforces_kappa():
    win = Window("Z-", -24, -1)
    E = GeometricWeighted(dyadic_lp(2, win), 2.0)  # kappa_+ = 2 sqrt2 > 2
    with pytest.raises(ValueError, match="kappa"):
        FromSequenceSpace(E)
    FromSequenceSpace(dyadic_lp(2, win))  # kappa_+ = sqrt2 < 2: fine


# ---------------------------------------------------------------------------
# norming functionals
# ---------------------------------------------------------------------------


def _dual_ball_check(E, x, g, rng, trials=40):
    # <x, g> = ||x|| and <h, g> <= ||h|| for random h (||g||* <= 1 witness)
    assert float(np.dot(x.values, g.values)) == pytest.approx(E.norm(x), rel=1e-8)
    for _ in range(trials):
        h = random_seqvec(rng, x.window, scale_sigma=1.5)
        assert float(np.dot(h.values, np.abs(g.values))) <= E.norm(h) * (1 + 1e-8)


@pytest.mark.parametrize("build", [
    lambda win: dyadic_lp(1, win),
    lambda win: dyadic_lp(2, win),
    lambda win: dyadic_lp(4, win),
    lambda win: LinftySeq(win),
    lambda win: OrliczModular(pwpower(2, 3), win),
    lambda win: OrliczModular(example1(), win),
    lambda win: GeometricWeighted(OrliczModular(example1(), win), 2 ** 0.5),
    lambda win: OrderReversed(dyadic_lp(2, win)),
    lambda win: WeightedLp(math.inf, win, weights=np.linspace(0.5, 3.0, win.size)),
    lambda win: InducedSeq(LpSpace(2), win),
    lambda win: GeometricWeighted(dyadic_lp(1, win), 2 ** 0.5),
])
def test_norming_functional(build, rng):
    win = Window("Z-", -16, -1)
    E = build(win)
    for _ in range(6):
        x = random_seqvec(rng, E.window, k=5)
        g = norming_functional(E, x)
        assert set(np.nonzero(g.values)[0]) <= set(np.nonzero(x.values)[0])
        _dual_ball_check(E, x, g, rng)


def test_norming_functional_convexified_modular(rng):
    # the modular's gradient runs through ConvexifiedFn.deriv
    E = OrliczModular(convexify(example1()), Window("Z-", -32, -1))
    for _ in range(6):
        x = random_seqvec(rng, E.window, k=8)
        g = norming_functional(E, x)
        assert abs(float(np.dot(x.values, g.values)) / E.norm(x) - 1.0) <= FUNCTIONAL_TOL


# ---------------------------------------------------------------------------
# DSL round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    "lp:p=2", "linf", "lorentz:p=2,w=pow:0.5",
    "orlicz:gen=<power:p=2>", "orlicz:gen=<brudnyi:p=1.5,q=3:F>",
])
def test_parse_function_spaces(spec):
    X = parse_space(spec)
    assert X.fn_norm(char_fn(0, 0.5)) > 0


@pytest.mark.parametrize("spec", [
    "seq:lpw:p=1", "seq:linf", "seq:orlicz-modular:gen=<example1>",
    "seq:from:<seq:orlicz-modular:gen=<example1>>,weightbase=1.4142135623730951",
    "rev:<seq:lpw:p=2>",
])
def test_parse_seq_spaces(spec):
    E = parse_seq_space(spec, Window("Z-", -8, -1))
    n = E.window.lo + 2
    assert E.unit_norm(n) > 0
    # spec_string parses back to an equivalent evaluator
    E2 = parse_seq_space(E.spec_string(), Window("Z-", -8, -1))
    assert E2.unit_norm(n) == pytest.approx(E.unit_norm(n), rel=1e-12)


@pytest.mark.parametrize("spec", [
    "seq:lpw:p=2,wexp=0.3", "seq:lpw:p=2,wexp=-0.7", "seq:lpw:p=2",
])
def test_weighted_lp_spec_round_trip(spec):
    win = Window("Z-", -8, -1)
    E = parse_seq_space(spec, win)
    back = parse_seq_space(E.spec_string(), win)
    assert np.array_equal(back.unit_norms(), E.unit_norms())


def test_spec_strings_keep_every_digit_of_p(rng):
    win = Window("Z-", -8, -1)
    E = parse_seq_space("seq:lpw:p=2.123456789,wexp=0.3", win)
    assert E.spec_string() == "seq:lpw:p=2.123456789,wexp=0.3"
    back = parse_seq_space(E.spec_string(), win)
    assert np.array_equal(back.unit_norms(), E.unit_norms())
    ones = SeqVec(win, np.ones(win.size))
    assert back.norm(ones) == E.norm(ones)
    X = parse_space("lp:p=2.123456789")
    assert X.spec_string() == "lp:p=2.123456789"
    f = random_step(rng)
    assert parse_space(X.spec_string()).fn_norm(f) == X.fn_norm(f)
    # strings :g already reads back exactly stay as they were
    assert parse_space("lp:p=2").spec_string() == "lp:p=2"
    assert parse_seq_space("seq:lpw:p=1", win).spec_string() == "seq:lpw:p=1"
    assert LorentzSpace(2.5, PowerWeight(0.4)).spec_string() == "lorentz:p=2.5,w=pow:0.4"
    L = LorentzSpace(2.123456789, PowerWeight(0.123456789))
    back = parse_space(L.spec_string())
    assert (back.p, back.weight.exponent) == (L.p, L.weight.exponent)


def _assert_same_weighted_lp(E, back, rng):
    assert np.array_equal(back.unit_norms(), E.unit_norms())
    x = random_seqvec(rng, E.window)
    assert back.norm(x) == E.norm(x)


def test_weighted_lp_array_weights_round_trip(rng):
    # explicit weights are written out, so the spec names the same space
    win = Window("Z-", -8, -1)
    E = WeightedLp(2, win, weights=np.ones(win.size))
    assert E.spec_string() == "seq:lpw:p=2,weights=<" + ",".join(["1.0"] * 8) + ">"
    _assert_same_weighted_lp(E, parse_seq_space(E.spec_string(), win), rng)
    wide = Window("Z", -16, 16)
    for p in (1, 2.5, math.inf):
        E = WeightedLp(p, wide, weights=rng.uniform(0.01, 40.0, wide.size))
        _assert_same_weighted_lp(E, parse_seq_space(E.spec_string(), wide), rng)
    # the dyadic weights 2^(n/p) keep the plain form, from an array or not
    assert WeightedLp(2, win, weights=2.0 ** (win.indices() / 2.0)).spec_string() == "seq:lpw:p=2"
    assert dyadic_lp(3, win).spec_string() == "seq:lpw:p=3"


@settings(max_examples=60, deadline=None)
@given(size=st.integers(1, 40),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.7, math.inf]),
       weights=st.lists(st.floats(1e-6, 1e6), min_size=40, max_size=40))
def test_weighted_lp_spec_round_trip_property(size, p, weights):
    win = Window("Z", -(size // 2), size - size // 2 - 1)
    E = WeightedLp(p, win, weights=weights[:size])
    back = parse_seq_space(E.spec_string(), win)
    assert np.array_equal(back.unit_norms(), E.unit_norms())
    vals = np.asarray(weights[40 - size:])
    assert back.norm_values(vals) == E.norm_values(vals)


@pytest.mark.parametrize("spec", [
    "seq:lpw:p=2,weights=<1.0,2.0>",
    "seq:lpw:p=2,weights=<1,1,1,1,1,1,1,1>,wexp=0.5",
])
def test_weighted_lp_explicit_weights_bad_input(spec):
    with pytest.raises(UsageError):
        parse_seq_space(spec, Window("Z-", -8, -1))


# ---------------------------------------------------------------------------
# the space protocol
# ---------------------------------------------------------------------------


def _one_of_each_seq_space(win):
    """One instance of every sequence-space class, wrappers over two insides."""
    return {
        "weighted": WeightedLp(2.5, win, weights=np.linspace(0.5, 3.0, win.size)),
        "dyadic": dyadic_lp(1, win),
        "linf": LinftySeq(win),
        "modular": OrliczModular(example1(), win),
        "geo-lp": GeometricWeighted(dyadic_lp(2, win), 2 ** 0.5),
        "geo-linf": GeometricWeighted(LinftySeq(win), 0.5),
        "geo-modular": GeometricWeighted(OrliczModular(power(2), win), 2 ** 0.5),
        "rev-lp": OrderReversed(dyadic_lp(2, win)),
        "rev-modular": OrderReversed(OrliczModular(power(2), win)),
        "induced": InducedSeq(LpSpace(2), win),
    }


def test_weighted_lp_form_contract(rng):
    win = Window("Z-", -12, -1)
    # a reversal's form is the inner space's, its weights reversed
    no_form = {"modular", "geo-modular", "rev-modular", "induced"}
    for name, E in _one_of_each_seq_space(win).items():
        form = E.weighted_lp_form()
        if name in no_form:
            assert form is None, name
            continue
        w, p = form
        for _ in range(5):
            vals = random_seqvec(rng, E.window).values
            a = np.abs(vals) * w
            direct = np.max(a) if math.isinf(p) else np.sum(a ** p) ** (1.0 / p)
            assert direct == pytest.approx(E.norm_values(vals), rel=1e-12), name


def test_generator_and_e_space_contract():
    win = Window("Z-", -12, -1)
    spaces = _one_of_each_seq_space(win)
    for name, E in spaces.items():
        assert E.e_space(E.window) is E, name
        inner = getattr(E, "inner", None)
        if inner is not None:
            assert E.generator() is inner.generator(), name
    assert spaces["modular"].generator() is spaces["modular"].F
    assert spaces["geo-modular"].generator() is spaces["geo-modular"].inner.F
    assert spaces["rev-modular"].generator() is spaces["rev-modular"].inner.F
    for name in ("weighted", "linf", "geo-lp", "induced"):
        assert spaces[name].generator() is None, name
    E = OrliczModular(power(2), win)
    assert FromSequenceSpace(E).generator() is E.F
    assert FromSequenceSpace(dyadic_lp(2, win)).generator() is None
    F = pwpower(2, 3)
    assert OrliczSpace(F).generator() is F
    assert LpSpace(2).generator() is None
    # function spaces: the closed forms of E_X, else the reconstruction
    assert np.array_equal(LpSpace(2).e_space(win).unit_norms(), dyadic_lp(2, win).unit_norms())
    assert isinstance(OrliczSpace(F).e_space(win), OrliczModular)
    assert isinstance(LorentzSpace(2, PowerWeight(0.5)).e_space(win), InducedSeq)


@pytest.mark.parametrize("spec, linf", [
    ("linf", True), ("seq:linf", True), ("lp:p=2", False), ("lp:p=1", False),
    ("orlicz:gen=<power:p=2>", False), ("lorentz:p=2,w=pow:0.5", False),
    ("seq:lpw:p=2", False), ("seq:lpw:p=2,wexp=0", False), ("rev:<seq:linf>", True),
    ("rev:<seq:lpw:p=inf,wexp=0.3>", False),
    ("seq:from:<seq:linf>,weightbase=2", False), ("seq:induced:<linf>", False),
    ("seq:from:<seq:linf>,weightbase=1", True),
    ("rev:<seq:from:<seq:linf>,weightbase=1>", True),
    ("seq:orlicz-modular:gen=<power:p=2>", False),
    ("seq:lpw:p=inf,weights=<2,2,2,2,2,2,2,2>", False),
    ("seq:lpw:p=inf", True), ("seq:lpw:p=inf,wexp=0", True),
    ("seq:lpw:p=inf,weights=<1,1,1,1,1,1,1,1>", True),
    ("seq:lpw:p=inf,weights=<1,1,1,1,1,1,1,2>", False),
    ("seq:lpw:p=inf,wexp=0.3", False),
])
def test_is_linf_contract(spec, linf):
    assert parse_any_space(spec, window=Window("Z-", -8, -1)).is_linf is linf


def test_linf_is_weighted_lp_at_p_inf():
    win = Window("Z-", -8, -1)
    for E in (LinftySeq(win), dyadic_lp(math.inf, win), WeightedLp(math.inf, win),
              parse_seq_space("seq:linf", win), parse_seq_space("seq:lpw:p=inf", win)):
        assert type(E) is WeightedLp and E.is_linf is True
        assert E.spec_string() == "seq:linf"
        assert np.array_equal(E.unit_norms(), np.ones(win.size))
    for E in (WeightedLp(math.inf, win, wexp=0.3),
              WeightedLp(math.inf, win, weights=np.full(win.size, 0.5))):
        assert E.is_linf is False and E.spec_string().startswith("seq:lpw:p=inf,")
    # an attribute set once: k_numeric reads it on every call
    assert "is_linf" in vars(LinftySeq(win))


@pytest.mark.parametrize("spec", ["seq:lpw", "seq:lpw:wexp=0.5", "seq:lpw:weights=<1,2>"])
def test_lpw_needs_p(spec):
    with pytest.raises(UsageError, match="spec is missing the argument 'p'"):
        parse_seq_space(spec, Window("Z-", -2, -1))


def test_parse_any_space_dispatch():
    assert isinstance(parse_any_space("lp:p=2"), LpSpace)
    assert isinstance(parse_any_space("seq:lpw:p=2"), WeightedLp)


@pytest.mark.parametrize("F", [
    power(2.5), pwpower(1.5, 3.0), logfactor_fn(1.25), example1(),
    elastic_non_lorentz(), *brudnyi_pair(1.5, 3.0), MinimalFn(0.04),
], ids=lambda F: F.spec_string())
def test_generator_spec_round_trip(F):
    back = parse_generator(F.spec_string())
    assert (back.name, back.spec_string()) == (F.name, F.spec_string())
    u = np.linspace(-40.0, 400.0, 2001)
    assert np.array_equal(back.log_eval(u), F.log_eval(u))


@pytest.mark.parametrize("F", [
    power(2.5), pwpower(1.5, 3.0), logfactor_fn(1.25), example1(),
    elastic_non_lorentz(), *brudnyi_pair(1.5, 3.0), MinimalFn(0.04),
], ids=lambda F: F.spec_string())
def test_convexify_spec_round_trip(F):
    C = convexify(F)
    assert C.spec_string() == f"convexify<{F.spec_string()}>"
    back = parse_generator(C.spec_string())
    assert back.spec_string() == C.spec_string()
    u = np.linspace(-40.0, 400.0, 2001)
    assert np.array_equal(back.log_eval(u), C.log_eval(u))


def test_convexified_modular_space_reparses():
    win = Window("Z-", -16, -1)
    E = OrliczModular(convexify(example1()), win)
    assert E.spec_string() == "seq:orlicz-modular:gen=<convexify<example1>>"
    back = parse_seq_space(E.spec_string(), win)
    V = np.exp(np.random.default_rng(3).normal(0.0, 1.5, (6, win.size)))
    assert np.array_equal(back.norm_rows(V), E.norm_rows(V))


@pytest.mark.parametrize("spec, key", [
    ("orlicz:gen=<brudnyi:q=3:F>", "p"), ("orlicz:gen=<power>", "p"),
    ("orlicz:gen=<pwpower:p0=2>", "p1"), ("lp", "p"), ("lorentz:p=2", "w"),
    ("orlicz", "gen"), ("seq:orlicz-modular", "gen"),
])
def test_missing_argument_is_usage_error(spec, key):
    with pytest.raises(UsageError, match=f"'{key}'"):
        parse_any_space(spec)


@pytest.mark.parametrize("spec", ["lorentz:p=2,w=pow:abc", "lp:p=abc"])
def test_unparseable_number_is_usage_error(spec):
    with pytest.raises(UsageError, match="expected a number"):
        parse_any_space(spec)


# ---------------------------------------------------------------------------
# norm_rows: one norm formula per space, rows independent of each other
# ---------------------------------------------------------------------------

_ROWS_WIN = Window("Z-", -10, -1)
_ROW_SPACES = {
    "lpw-1": lambda win: WeightedLp(1, win, weights=np.linspace(0.5, 3.0, win.size)),
    "lpw-2.5": lambda win: WeightedLp(2.5, win, wexp=0.3),
    "lpw-inf": lambda win: WeightedLp(math.inf, win, weights=np.linspace(2.0, 0.5, win.size)),
    "linf": LinftySeq,
    **{f"modular-{F.name}": (lambda win, F=F: OrliczModular(F, win))
       for F in (power(2), pwpower(1.5, 3), logfactor_fn(1.5), example1(),
                 elastic_non_lorentz(), *brudnyi_pair(1.5, 3.0), MinimalFn(0.05))},
    "geo-modular": lambda win: GeometricWeighted(OrliczModular(example1(), win), 2 ** 0.5),
    "geo-lp": lambda win: GeometricWeighted(dyadic_lp(2, win), 0.7),
    "rev-modular": lambda win: OrderReversed(OrliczModular(pwpower(1.5, 3), win.reversed())),
    "rev-lp": lambda win: OrderReversed(dyadic_lp(3, win.reversed())),
    "induced-lorentz": lambda win: InducedSeq(LorentzSpace(2, PowerWeight(0.5)), win),
}
_ENTRY = st.one_of(st.just(0.0), st.floats(-6.0, 6.0).map(math.exp),
                   st.floats(-6.0, 6.0).map(lambda t: -math.exp(t)))
_ROWS = st.lists(st.lists(_ENTRY, min_size=_ROWS_WIN.size, max_size=_ROWS_WIN.size),
                 min_size=1, max_size=6)


@pytest.mark.parametrize("name", sorted(_ROW_SPACES))
@settings(max_examples=25, deadline=None)
@given(rows=_ROWS)
def test_norm_rows_equal_each_row_alone(name, rows):
    E = _ROW_SPACES[name](_ROWS_WIN)
    assert E.window == _ROWS_WIN
    V = np.array(rows + [[0.0] * _ROWS_WIN.size])  # always one zero row
    norms = E.norm_rows(V)
    assert norms.shape == (V.shape[0],) and norms[-1] == 0.0
    for i, v in enumerate(V):
        assert norms[i] == E.norm_rows(V[i:i + 1])[0] == E.norm_values(v), (name, i)


@pytest.mark.parametrize("p", [1.0, 2.0, 2.5, 4.0, math.inf])
@settings(max_examples=40, deadline=None)
@given(rows=_ROWS)
def test_weighted_lp_rows_match_closed_form(p, rows):
    w = 2.0 ** (_ROWS_WIN.indices() * 0.37)
    E = WeightedLp(p, _ROWS_WIN, weights=w)
    for v, nrm in zip(rows, E.norm_rows(np.array(rows)).tolist()):
        a = np.abs(np.array(v)) * w
        assert nrm == (float(np.max(a)) if math.isinf(p)
                       else float(np.sum(a ** p) ** (1.0 / p)))


# function spaces: norm_rows_on(f), rows on the pieces of one step function

_ZOO = (power(2), pwpower(1.5, 3), logfactor_fn(1.5), example1(), elastic_non_lorentz(),
        *brudnyi_pair(1.5, 3.0), MinimalFn(0.05))
_FN_ROW_SPACES = {
    "lp-1": lambda: LpSpace(1), "lp-2": lambda: LpSpace(2), "lp-inf": linf_space,
    "lorentz-pow": lambda: LorentzSpace(2, PowerWeight(0.5)),
    "lorentz-table": lambda: LorentzSpace(1.5, TableLogLinear([-8.0, -2.0, 0.0],
                                                              [-4.0, -1.0, 0.0])),
    **{f"orlicz-{F.name}": (lambda F=F: OrliczSpace(F)) for F in _ZOO},
    "fromseq": lambda: FromSequenceSpace(dyadic_lp(2, _ROWS_WIN)),
}


@functools.cache
def _fn_row_space(name):
    """One instance per name: building a space from a sequence runs kappa."""
    return _FN_ROW_SPACES[name]()


def _lp_one_vector(X, f):
    """Reference: the Lp norm of one step function, one dot and a scalar root."""
    if math.isinf(X.p):
        return float(np.max(np.abs(f.vals))) if f.vals.size else 0.0
    return float(np.dot(np.abs(f.vals) ** X.p, f.lengths) ** (1.0 / X.p))


def _orlicz_one_vector(X, f):
    """Reference: the Luxemburg norm of one step function, solved on its
    nonzero pieces alone."""
    v = np.abs(f.vals)
    keep = v > 0
    if not np.any(keep):
        return 0.0
    log_v = np.log(v[keep])
    return math.exp(_luxemburg_log(X.F, log_v[None], np.log(f.lengths[keep]),
                                   log_v.max(keepdims=True), np.array([-math.inf]),
                                   np.array([math.inf]))[0])


@st.composite
def _step_rows(draw):
    """A grid of 1-14 pieces in [0, 1] and 1-5 rows of values on it, with
    zeros in place; wide rows with zeros are where packing matters."""
    n = draw(st.integers(1, 14))
    cuts = draw(st.lists(st.floats(1e-3, 0.999), min_size=n - 1, max_size=n - 1,
                         unique=True))
    f = StepFunction("unit", (0.0, *sorted(cuts), 1.0), (1.0,) * n)
    rows = draw(st.lists(st.lists(_ENTRY, min_size=n, max_size=n), min_size=1, max_size=5))
    return f, np.array(rows + [[0.0] * n])  # always one zero row


@pytest.mark.parametrize("name", sorted(_FN_ROW_SPACES))
@settings(max_examples=8, deadline=None)
@given(case=_step_rows())
def test_fn_rows_equal_each_row_alone(name, case):
    X, (f, V) = _fn_row_space(name), case
    norms = X.norm_rows_on(f)(V)
    assert norms.shape == (V.shape[0],) and norms[-1] == 0.0
    reference = (_lp_one_vector if name.startswith("lp") else
                 _orlicz_one_vector if name.startswith("orlicz") else None)
    for i, v in enumerate(V):
        g = f.with_values(v)
        alone = X.norm_rows_on(f)(V[i:i + 1])[0]
        assert norms[i] == alone == X.fn_norm(g), (name, i)
        if reference is not None:
            assert norms[i] == reference(X, g), (name, i)


def test_rev_spec_lives_on_the_given_window():
    win = Window("Z-", -24, -1)
    E = parse_seq_space("rev:<seq:lpw:p=1>", win)
    assert E.window == win
    ref = OrderReversed(dyadic_lp(1, win.reversed()))
    vals = np.linspace(0.1, 2.4, win.size)
    assert E.norm_values(vals) == ref.norm_values(vals)
    assert [E.unit_norm(int(n)) for n in win.indices()] == [
        2.0 ** -(int(n) + 1) for n in win.indices()]
    assert parse_seq_space(E.spec_string(), win).norm_values(vals) == E.norm_values(vals)


# ---------------------------------------------------------------------------
# every spec string reparses to the same norms, or is refused
# ---------------------------------------------------------------------------

_CHAIN_OPS = ([None], [2 ** 0.5], [None, 2 ** 0.5], [0.7, None], [0.7, None, 1.3],
              [None, 0.7, None])
_SPEC_ZOO = [*(f"row:{k}" for k in sorted(_ROW_SPACES)),
             *(f"one:{k}" for k in sorted(_one_of_each_seq_space(_ROWS_WIN))),
             *(f"fn:{k}" for k in sorted(_FN_ROW_SPACES)),
             *(f"chain:{inner}:{i}" for inner in ("modular", "induced")
               for i in range(len(_CHAIN_OPS))),
             "sampled:orlicz", "sampled:modular"]


def _spec_zoo_space(name):
    kind, key = name.split(":", 1)
    if kind == "row":
        return _ROW_SPACES[key](_ROWS_WIN)
    if kind == "one":
        return _one_of_each_seq_space(_ROWS_WIN)[key]
    if kind == "fn":
        return _fn_row_space(key)
    if kind == "chain":
        inner, i = key.split(":")
        E = (OrliczModular(example1(), _ROWS_WIN) if inner == "modular"
             else InducedSeq(_fn_row_space("lorentz-table"), _ROWS_WIN))
        return _chain(E, _CHAIN_OPS[int(i)], OrderReversed, GeometricWeighted)
    F = regularize(power(2), 2.0, np.linspace(0.0, 64.0, 513))
    return OrliczSpace(F) if key == "orlicz" else OrderReversed(OrliczModular(F, _ROWS_WIN))


@pytest.mark.parametrize("name", _SPEC_ZOO)
def test_spec_string_reparses_to_the_same_norms(name):
    X = _spec_zoo_space(name)
    if name.startswith("sampled:"):
        # no spec names a sampled profile, so no witness names the space
        with pytest.raises(UsageError, match="sampled profile"):
            X.spec_string()
        assert "regularize<power>" in repr(X.generator())
        return
    rng = np.random.default_rng(11)
    if isinstance(X, SeqSpaceSpec):
        V = rng.lognormal(0.0, 1.5, (5, X.window.size)) * (rng.random((5, X.window.size)) < 0.6)
        back = parse_seq_space(X.spec_string(), X.window)
        assert type(back) is type(X)
        assert np.array_equal(back.norm_rows(V), X.norm_rows(V)), name
    else:
        f = StepFunction(X.domain, (0.0, 0.05, 0.2, 0.45, 0.7, 1.0), (1.0,) * 5)
        V = rng.lognormal(0.0, 1.5, (5, 5)) * (rng.random((5, 5)) < 0.6)
        back = parse_space(X.spec_string(), X.domain, _ROWS_WIN)
        assert type(back) is type(X)
        assert np.array_equal(back.norm_rows_on(f)(V), X.norm_rows_on(f)(V)), name


# ---------------------------------------------------------------------------
# reversal and geometric weights of a weighted ell_p build a weighted ell_p
# ---------------------------------------------------------------------------


def test_wrappers_fold_into_weighted_lp():
    win = Window("Z-", -8, -1)
    E, M = WeightedLp(2, win, wexp=0.3), OrliczModular(example1(), win)
    assert GeometricWeighted(E, 1) is E and GeometricWeighted(M, 1) is M
    for S in (OrderReversed(E), GeometricWeighted(E, 0.7),
              parse_seq_space("rev:<seq:lpw:p=2,wexp=0.3>", win),
              parse_seq_space("seq:from:<seq:lpw:p=2,wexp=0.3>,weightbase=0.7", win)):
        assert type(S) is WeightedLp
    assert parse_seq_space("seq:from:<seq:linf>,weightbase=1", win).spec_string() == "seq:linf"
    assert parse_seq_space("rev:<seq:linf>", win).spec_string() == "seq:linf"
    # only spaces without a weighted-lp form are wrapped
    assert type(OrderReversed(M)) is _Conjugated
    assert type(GeometricWeighted(M, 0.7)) is _Conjugated


def test_geometric_fold_reproducer_is_ell_infty():
    # seq:from:<seq:linf>,weightbase=1 is ell_infty, so against dyadic ell_2 it
    # takes the certified L_infty route; coordinate descent would stall at
    # 0.5065148 with lower 0.0
    win = Window("Z-", -16, -1)
    f = SeqVec(win, np.exp(np.random.default_rng(0).normal(0.0, 1.0, win.size)))
    X = dyadic_lp(2, win)
    ref = k_numeric(0.7, f, X, LinftySeq(win))
    assert ref.value == pytest.approx(0.5059244764, abs=1e-10)
    for spec in ("seq:from:<seq:linf>,weightbase=1", "rev:<seq:from:<seq:linf>,weightbase=1>"):
        r = k_numeric(0.7, f, X, parse_seq_space(spec, win))
        assert (r.value, r.lower, r.converged) == (ref.value, ref.lower, True), spec
        assert 0.0 < ref.value - r.lower <= 1e-8 * ref.value


_FOLD_WINDOWS = (Window("Z-", -16, -1), Window("Z", -8, 7), Window("Z+", 0, 11))


@st.composite
def _folded_chain(draw):
    """A weighted ell_p (explicit, wexp or dyadic weights), an Orlicz modular
    or an induced Lorentz space, up to three reversals or geometric
    weightings, and rows of values on the result."""
    win, p = draw(st.sampled_from(_FOLD_WINDOWS)), draw(st.sampled_from([1.0, 1.5, 2.0, 3.0,
                                                                          math.inf]))
    kind = draw(st.sampled_from(["explicit", "wexp", "dyadic", "modular", "induced"]))
    if kind == "explicit":
        w = draw(st.lists(st.floats(-3.0, 3.0).map(math.exp), min_size=win.size,
                          max_size=win.size))
        E = WeightedLp(p, win, weights=w)
    elif kind == "wexp":
        E = WeightedLp(p, win, wexp=draw(st.floats(-0.5, 0.5)))
    elif kind == "dyadic":
        E = dyadic_lp(p, win)
    elif kind == "modular":
        E = OrliczModular(example1(), win)
    else:
        domain = "unit" if win.kind == "Z-" else "halfline"
        E = InducedSeq(LorentzSpace(2, PowerWeight(0.5), domain), win)
    ops = draw(st.lists(st.one_of(st.none(), st.floats(0.5, 2.0)), min_size=1, max_size=3))
    rows = draw(st.lists(st.lists(_ENTRY, min_size=win.size, max_size=win.size),
                         min_size=1, max_size=4))
    return E, ops, np.array(rows)


class _Unfolded:
    """Reference: a reversal (op None) or the weights b^n (op b) applied to the
    rows of one inner space, one op per instance, without folding."""

    def __init__(self, inner, op=None):
        self.inner, self.op = inner, op
        self.window = inner.window.reversed() if op is None else inner.window
        self.w = None if op is None else op ** self.window.indices().astype(float)

    def norm_rows(self, V):
        return self.inner.norm_rows(V[:, ::-1] if self.op is None else V * self.w)

    def unit_norm(self, n):
        if self.op is None:
            return self.inner.unit_norm(-(n + 1))
        return float(self.w[n - self.window.lo]) * self.inner.unit_norm(n)

    def norming_values(self, xv):
        if self.op is None:
            return self.inner.norming_values(xv[::-1])[::-1]
        return self.inner.norming_values(xv * self.w) * self.w


def _chain(E, ops, rev, geo):
    for op in ops:
        E = rev(E) if op is None else geo(E, op)
    return E


@settings(max_examples=60, deadline=None)
@given(case=_folded_chain())
def test_folded_space_matches_its_wrapper(case):
    E, ops, V = case
    S = _chain(E, ops, OrderReversed, GeometricWeighted)
    ref = _chain(E, ops, _Unfolded, _Unfolded)
    lp = type(E) is WeightedLp
    assert type(S) is (WeightedLp if lp else type(E) if S is E else _Conjugated)
    assert S.window == ref.window
    # a weighted ell_p multiplies its weights into one and sums in its own
    # order; a conjugated space applies each op to the rows in the chain's
    # order, so its norms are the chain's
    ns = [int(n) for n in S.window.indices()]
    got, want = S.norm_rows(V), ref.norm_rows(V)
    if lp:
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
    else:
        assert np.array_equal(got, want)
    assert [S.unit_norm(n) for n in ns] == [ref.unit_norm(n) for n in ns]
    if type(E) is not InducedSeq:  # no norming functional for a Lorentz space
        for v, nrm in zip(V, got.tolist()):
            if nrm > 0:
                for g in (S.norming_values(v), ref.norming_values(v)):
                    assert abs(float(np.dot(v, g)) / nrm - 1.0) <= FUNCTIONAL_TOL
    # the spec string reparses to the same norms, and a double reversal is S
    back = parse_seq_space(S.spec_string(), S.window)
    assert type(back) is type(S) and np.array_equal(back.norm_rows(V), got)
    assert np.array_equal(OrderReversed(OrderReversed(S)).norm_rows(V), got)
