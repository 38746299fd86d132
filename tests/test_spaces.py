import functools
import itertools
import math
import sys
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplekit import (FromSequenceSpace, GeometricWeighted, InducedSeq, LinftySeq,
                       LorentzSpace, LpSpace, OrderReversed, OrliczModular,
                       OrliczSpace, PowerWeight, SeqSpaceSpec, SeqVec, StepFunction,
                       MinimalFn, UsageError, WeightedLp, Window, brudnyi_pair,
                       char_fn, convexify, dyadic_lp, elastic_non_lorentz, example1,
                       fit_separation, k_numeric, kappa_estimate, linf_space,
                       logfactor_fn, parse_any_space,
                       parse_generator, parse_seq_space, parse_space, power,
                       pwpower, rearrange, rho_profile, sample_profile)
from couplekit.ascent import stop_level
from couplekit.spaces import (_ARRAY_ROWS, _EPS, _Conjugated, _best_shift_ratio, _shift_bound,
                              _shift_ratios, _wlp_norms, shift_values)
from couplekit.transfer import FUNCTIONAL_TOL
from conftest import (SEARCH_SPACE_KINDS, count_solver_kernel, random_seqvec, random_step,
                      reference_dyadic_envelope, reference_lorentz_norm, reference_norm,
                      reference_norming_rows, search_space, tied_rows)


# ---------------------------------------------------------------------------
# function-space norms
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("build", [
    lambda: LpSpace(math.nan), lambda: WeightedLp(math.nan, Window("Z-", -4, -1)),
    lambda: dyadic_lp(math.nan, Window("Z-", -4, -1)), lambda: PowerWeight(math.nan),
    lambda: power(math.nan), lambda: logfactor_fn(math.nan),
], ids=["lp", "lpw", "dyadic", "power-weight", "power", "logfactor"])
def test_nan_or_infinite_parameter_is_refused(build):
    # the checks read `not p >= 1`: a NaN fails them, where `p < 1` let it through
    with pytest.raises(ValueError):
        build()


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


@st.composite
def lorentz_spaces(draw):
    """A Lorentz space of order 1 to 3 with a power weight."""
    p = draw(st.sampled_from([1.0, 1.5, 2.0, 3.0]))
    return LorentzSpace(p, PowerWeight(draw(st.sampled_from([0.3, 0.45, 0.8, 1.7]))))


@settings(max_examples=100, deadline=None)
@given(lorentz_spaces(), tied_rows())
def test_lorentz_rows_match_piece_by_piece_reference(X, case):
    # one sort and one array formula per batch give the per-row piece sums
    # to 1e-14, and 0 rows exactly
    f, V = case
    got = X.norm_rows_on(f)(V)
    for x, v in zip(got.tolist(), V):
        ref = reference_lorentz_norm(X, f.with_values(v))
        assert x == ref or abs(x - ref) <= 1e-14 * ref, (x, ref)


def test_lorentz_overflowing_weight_rows_are_inf_or_exact():
    # W(T) = T^(p e) / (p e) overflows past T ~ 6 at p e = 400: a row with
    # mass there is inf and a zero row 0, with no inf - inf on the way (a
    # RuntimeWarning fails); a row whose mass ends before it keeps its value
    X = LorentzSpace(2.0, PowerWeight(200.0), "halfline")
    f = StepFunction("halfline", (0.0, 0.1, 0.3, 0.6, 10.0), (1.0, 2.0, 0.0, 3.0))
    V = np.array([[1.0, 2.0, 0.0, 3.0], [0.0, 0.0, 0.0, 0.0],
                  [0.0, 0.0, 5.0, 0.0], [2.0, -2.0, 2.0, 2.0]])
    got = X.norm_rows_on(f)(V)
    assert got[[0, 1, 3]].tolist() == [math.inf, 0.0, math.inf]
    assert got[2] == pytest.approx(5.0 * (0.3 ** 400 / 400) ** 0.5, rel=1e-12)


@functools.cache
def _fromseq_spaces(domain: str) -> tuple:
    window = Window("Z-", -16, -1) if domain == "unit" else Window("Z", -10, 8)
    return (FromSequenceSpace(dyadic_lp(2, window)),
            FromSequenceSpace(OrliczModular(example1(), window)))


@settings(max_examples=60, deadline=None)
@given(tied_rows(), st.integers(0, 1))
def test_fromseq_rows_match_envelope_reference_bit_for_bit(case, which):
    # the rows sample f* at the dyadic points for all rows at once, as the
    # envelope of each row does, and make one norm_rows call
    f, V = case
    X = _fromseq_spaces(f.domain)[which]
    ref = X.E.norm_rows(np.array([reference_dyadic_envelope(f.with_values(v), X.window).values
                                  for v in V]))
    assert np.array_equal(X.norm_rows_on(f)(V), ref)


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


# quasi-triangle constants: sup w(2t)/w(t) = 2^(1/2) of the Lorentz weight,
# 2 for the space from a sequence; the other variants are norms
_TRIANGLE = {LorentzSpace: 2.0 ** 0.5, FromSequenceSpace: 2.0}


def test_homogeneity_and_triangle(rng):
    for X in _variants():
        C = _TRIANGLE.get(type(X), 1.0)
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
    spaces = [LpSpace(1, "halfline"), LpSpace(2, "halfline"),
              LorentzSpace(2, PowerWeight(0.5), "halfline")]
    for _ in range(8):
        f = random_step(rng, domain="halfline")
        fs = rearrange(f)
        g = StepFunction(fs.domain, tuple(2.0 * t for t in fs.breakpoints), fs.values)
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
    # ||x||_{E_X} = ||sum x(n) e_n||_X, including internal rearrangement
    win = Window("Z-", -12, -1)
    X = LorentzSpace(2, PowerWeight(0.5))
    x = random_seqvec(rng, win, k=4, scale_sigma=1.0)
    assert X.e_space(win).norm(x) == pytest.approx(X.fn_norm(x.to_step()), rel=1e-12)


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
    # a window past the spaces' own is refused, not wrapped to other indices
    short = Window("Z-", -8, -1)
    with pytest.raises(UsageError, match=r"^window mismatch: seq:lpw:p=2 is on Z-\[-8,-1\], "
                                         r"the window on Z-\[-12,-1\]$"):
        rho_profile(dyadic_lp(2, short), LinftySeq(short), Window("Z-", -12, -1))


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


def _reference_best_shift_ratio(space, n, budget, rng, upper):
    """kappa's step-by-step ascent: one ratio, two ``norm_values`` calls, per
    step; a shift whose unit ratio reaches the stop level of ``upper`` takes
    the unit ratio, its starts drawn but not ascended."""
    def ratio(vals):
        denom, num = space.norm_values(vals), space.norm_values(shift_values(vals, n))
        if denom == 0.0:
            return 0.0
        return math.inf if num > 1e12 * denom else num / denom

    size = space.window.size
    units = space.unit_norms()
    ratios = units[n:] / units[:size - n] if n > 0 else units[:size + n] / units[-n:]
    best = float(np.max(ratios)) if ratios.size else 0.0
    closed = best >= stop_level(None, upper)
    for _ in range(max(1, budget)):
        vals = np.zeros(size)
        k = rng.integers(1, max(2, size // 4))
        lo_ok, hi_ok = (-n, size) if n < 0 else (0, size - n)
        idx = rng.choice(np.arange(lo_ok, hi_ok), size=min(k, hi_ok - lo_ok),
                         replace=False)
        vals[idx] = rng.random(idx.size) + 0.1
        if closed:
            for _ in range(8):
                rng.choice(idx), rng.random()
            continue
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
        ref[n] = _reference_best_shift_ratio(E, n, per, rng, est.table_ub[n])
        ref[-n] = _reference_best_shift_ratio(E, -n, per, rng, est.table_ub[-n])
    return ref


_BOUNDED_GENERATORS = {"power": power(2.0), "pwpower": pwpower(1.5, 3.0), "example1": example1(),
                       "elastic-nl": elastic_non_lorentz(),
                       **dict(zip(("brudnyi-F", "brudnyi-G"), brudnyi_pair(1.5, 3.0)))}


def _modular_kinds(gens: dict) -> tuple:
    """The search-space kinds, then a modular and a b^n-weighted modular per generator."""
    return SEARCH_SPACE_KINDS + tuple(gens) + tuple(f"geometric-{name}" for name in gens)


def _modular_kind_space(kind, gens, win, p, base):
    """The space of a kind of ``_modular_kinds(gens)``: the b^n-weighted modulars
    are weighted as the README's shift test weights one."""
    if kind in gens:
        return OrliczModular(gens[kind], win)
    if (name := kind.removeprefix("geometric-")) in gens:
        return GeometricWeighted(OrliczModular(gens[name], win), base)
    return search_space(kind, win, p, base)


@settings(max_examples=80, deadline=None)
@given(kind=st.sampled_from(_modular_kinds(_BOUNDED_GENERATORS)),
       width=st.integers(2, 32), shift=st.integers(1, 31), sign=st.sampled_from([1, -1]),
       p=st.sampled_from([1.0, 1.5, 2.0, 3.0]), base=st.floats(0.4, 3.0),
       seed=st.integers(0, 2 ** 16))
def test_shift_norm_upper_bounds_the_shift_ratios(kind, width, shift, sign, p, base, seed):
    # a b^n-weighted modular's unit ratios come from its rows
    win = Window("Z-", -width, -1)
    E = _modular_kind_space(kind, _BOUNDED_GENERATORS, win, p, base)
    m = sign * (1 + (shift - 1) % (width - 1))
    assert E.shift_norm_upper(m) is not None
    rng = np.random.default_rng(seed)
    # the unit vectors, then random vectors on random supports
    V = np.concatenate([np.eye(width), np.exp(rng.normal(0.0, 2.0, (24, width)))
                        * (rng.random((24, width)) < rng.random((24, 1)))])
    assert np.all(_shift_ratios(E, V, m) <= _shift_bound(E, m))


@pytest.mark.parametrize("build", [
    lambda win: dyadic_lp(2, win), lambda win: dyadic_lp(1, win), lambda win: LinftySeq(win),
    lambda win: WeightedLp(3, win, wexp=-0.4), lambda win: OrliczModular(power(2), win),
    lambda win: InducedSeq(LpSpace(2), win), lambda win: GeometricWeighted(dyadic_lp(2, win), 1.3),
], ids=["l2", "l1", "linf", "wexp", "power-modular", "induced-l2", "geometric"])
def test_kappa_on_a_form_space_ascends_no_shift(build, monkeypatch):
    # a unit vector attains ||tau_m|| on a weighted ell_p, so every shift is
    # closed at its unit ratio: none is ascended and no start is drawn
    calls = []
    best_shift_ratio = _best_shift_ratio

    def counted(space, m, *args):
        calls.append(m)
        return best_shift_ratio(space, m, *args)

    monkeypatch.setattr("couplekit.spaces._best_shift_ratio", counted)
    E = build(Window("Z-", -64, -1))
    est = kappa_estimate(E, budget=400, seed=0)
    assert not calls
    assert all(est.table[m] <= est.table_ub[m] for m in est.table)


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
    assert float(np.dot(x.values, g)) == pytest.approx(E.norm(x), rel=1e-8)
    for _ in range(trials):
        h = random_seqvec(rng, x.window, scale_sigma=1.5)
        assert float(np.dot(h.values, np.abs(g))) <= E.norm(h) * (1 + 1e-8)


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
        (g,) = E.norm_rows(x.values[None], grad=True)[1]
        assert set(np.nonzero(g)[0]) <= set(np.nonzero(x.values)[0])
        _dual_ball_check(E, x, g, rng)


def test_norming_functional_convexified_modular(rng):
    # the modular's gradient runs through ConvexifiedFn.deriv
    E = OrliczModular(convexify(example1()), Window("Z-", -32, -1))
    for _ in range(6):
        x = random_seqvec(rng, E.window, k=8)
        (g,) = E.norm_rows(x.values[None], grad=True)[1]
        assert abs(float(np.dot(x.values, g)) / E.norm(x) - 1.0) <= FUNCTIONAL_TOL


_GRAD_GENERATORS = {"example1": example1(), "pwpower": pwpower(2.0, 3.0),
                    "minimal": MinimalFn(0.05), "logfactor": logfactor_fn(1.5),
                    "brudnyi-G": brudnyi_pair(1.5, 3.0)[1]}


@settings(max_examples=60, deadline=None)
@given(kind=st.sampled_from(_modular_kinds(_GRAD_GENERATORS)),
       width=st.integers(1, 24), rows=st.integers(1, 12), p=st.sampled_from([1.0, 1.5, 2.0, 3.0]),
       base=st.floats(0.4, 3.0), seed=st.integers(0, 2 ** 16))
def test_norm_rows_grad_equals_the_per_row_functionals(kind, width, rows, p, base, seed):
    # the functionals that come back with the norms are the per-row ones bit
    # for bit: the modular's batched gradient, one F' call for all rows,
    # keeps each row's sum order
    win = Window("Z-", -width, -1)
    E = _modular_kind_space(kind, _GRAD_GENERATORS, win, p, base)
    rng = np.random.default_rng(seed)
    V = np.exp(rng.normal(0.0, 2.0, (rows, width))) * rng.choice([-1.0, 1.0], (rows, width))
    V *= rng.random((rows, width)) < rng.random((rows, 1))
    V[~V.any(axis=1), 0] = 1.0
    norms, G = E.norm_rows(V, grad=True)
    assert norms.tobytes() == E.norm_rows(V).tobytes()
    assert G.tobytes() == reference_norming_rows(E, V).tobytes()


@pytest.mark.parametrize("build", [
    lambda win: dyadic_lp(1, win), lambda win: dyadic_lp(2, win), LinftySeq,
    lambda win: OrliczModular(example1(), win),
    lambda win: GeometricWeighted(OrliczModular(example1(), win), 2 ** 0.5),
    lambda win: OrderReversed(OrliczModular(example1(), win.reversed())),
], ids=["lp-1", "lp-2", "linf", "modular", "geo-modular", "rev-modular"])
def test_a_zero_row_has_a_zero_functional(build):
    # any g of the dual ball norms a zero row, and g = 0 stays on its (empty)
    # support; no 0/0 on the way (a RuntimeWarning fails), and the other
    # rows are what they are alone
    E = build(Window("Z-", -4, -1))
    V = np.zeros((3, 4))
    V[1] = [0.0, 1.5, 0.0, -2.0]
    norms, G = E.norm_rows(V, grad=True)
    assert norms[[0, 2]].tolist() == [0.0, 0.0] and not G[[0, 2]].any()
    alone, g = E.norm_rows(V[1:2], grad=True)
    assert norms[1] == alone[0] > 0.0 and np.array_equal(G[1], g[0])


@pytest.mark.parametrize("p, vals", [
    (3.0, [1e-170, 2e-170]),                  # the p-th powers underflow
    (3.0, [-1e-300, 0.0, 5e-301]),
    (200.0, [1e10, 1.0, 3.0]),                # the p-th powers overflow
    (200.0, [-1e10, 2e9, 0.0, 3.0]),
    (1.5, [1e300, -1e300]),
])
@pytest.mark.parametrize("dyadic", [False, True])
def test_norming_functional_at_the_extremes(p, vals, dyadic):
    # the scale-free formula raises w_i |x_i| / ||x|| <= 1 to p - 1: no 0/0
    # after an underflow, no overflow, and no RuntimeWarning (an error here)
    win = Window("Z-", -len(vals), -1)
    E = dyadic_lp(p, win) if dyadic else WeightedLp(p, win)
    x = SeqVec(win, np.array(vals))
    (g,) = E.norm_rows(x.values[None], grad=True)[1]
    assert np.all(np.isfinite(g)) and set(np.flatnonzero(g)) <= set(np.flatnonzero(x.values))
    assert abs(float(np.dot(x.values, g)) / E.norm(x) - 1.0) <= 1e-12


def _weighted_lp_spaces(p: float, win: Window) -> list:
    """Every space of couplekit whose form is a weighted ell_p at p, on win."""
    dom = "unit" if win.kind == "Z-" else "halfline"
    out = [dyadic_lp(p, win), InducedSeq(LpSpace(p, dom), win)]
    if not math.isinf(p):
        out += [OrliczModular(power(p), win),
                InducedSeq(LorentzSpace(p, PowerWeight(1.0 / p), dom), win)]
    return out


@settings(max_examples=16, deadline=None)
@given(p=st.sampled_from([1.0, 2.0, 3.0, math.inf]), which=st.integers(0, 3),
       width=st.integers(2, 10), kind=st.sampled_from(["Z-", "Z"]),
       op=st.sampled_from([None, "rev", 0.7, 1.3]), seed=st.integers(0, 2 ** 16))
def test_every_form_space_answers_as_its_weighted_lp(p, which, width, kind, op, seed):
    # unit norms, shift-norm bounds, norming functionals and kappa are read
    # from the form (w, p) in one place: a space with a form, also reversed
    # or b^n-weighted, answers as WeightedLp(p, window, weights=w), bit for bit
    win = Window(kind, -width, -1) if kind == "Z-" else Window(kind, -width // 2, width // 2)
    spaces = _weighted_lp_spaces(p, win)
    E = spaces[which % len(spaces)]
    E = E if op is None else OrderReversed(E) if op == "rev" else GeometricWeighted(E, op)
    w, q = E.weighted_lp_form()
    ref = WeightedLp(q, E.window, weights=w)
    assert E.unit_norms().tobytes() == ref.unit_norms().tobytes()
    ms = range(-win.size, win.size + 1)
    assert [E.shift_norm_upper(m) for m in ms] == [ref.shift_norm_upper(m) for m in ms]
    rng = np.random.default_rng(seed)
    V = rng.random((6, win.size)) * (rng.random((6, win.size)) < 0.6) - 0.3
    V[~V.any(axis=1), 0] = 1.0
    norms, G = E.norm_rows(V, grad=True)
    ref_norms, ref_G = ref.norm_rows(V, grad=True)
    assert norms.tobytes() == ref_norms.tobytes() == E.norm_rows(V).tobytes()
    assert np.array_equal(G, ref_G)
    assert kappa_estimate(E, 400, 0) == kappa_estimate(ref, 400, 0)


# ---------------------------------------------------------------------------
# DSL round trips
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("spec", [
    "lp:p=2", "linf", "lorentz:p=2,w=pow:0.5",
    "orlicz:gen=<power:p=2>", "orlicz:gen=<brudnyi:p=1.5,q=3:F>",
    "fromseq:<seq:lpw:p=2,wexp=0.3>",
])
def test_parse_function_spaces(spec):
    X = parse_space(spec)
    assert X.fn_norm(char_fn(0, 0.5)) > 0


@pytest.mark.parametrize("spec", [
    "seq:lpw:p=1", "seq:linf", "seq:orlicz-modular:gen=<example1>",
    "seq:from:<seq:orlicz-modular:gen=<example1>>,weightbase=1.4142135623730951",
    "rev:<seq:lpw:p=2>", "seq:induced:<lorentz:p=2,w=pow:0.5>",
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


_BF, _BG = brudnyi_pair(1.5, 3)
_GEN_SPECS = [
    (power(2), "power:p=2"), (power(2.5), "power:p=2.5"), (pwpower(2, 3), "pwpower:p0=2,p1=3"),
    (logfactor_fn(1.5), "logfactor:p=1.5"), (example1(), "example1"),
    (elastic_non_lorentz(), "elastic-nl"), (MinimalFn(0.05), "minimal:alpha=0.05"),
    (_BF, "brudnyi:p=1.5,q=3:F"), (_BG, "brudnyi:p=1.5,q=3:G"),
    (convexify(power(2)), "convexify<power:p=2>"), (power(2.123456789), "power:p=2.123456789"),
]


@pytest.mark.parametrize("F, text", _GEN_SPECS, ids=[text for _, text in _GEN_SPECS])
def test_generator_spec_is_a_fixed_point_of_parse_and_write(F, text, rng):
    # each parameter is written as the DSL reads it back, whether it was
    # given as an int or parsed as a float
    assert F.spec_string() == text
    back = parse_generator(text)
    assert back.spec_string() == text
    win = Window("Z-", -16, -1)
    E, E2 = OrliczModular(F, win), parse_seq_space(f"seq:orlicz-modular:gen=<{text}>", win)
    assert E2.spec_string() == E.spec_string()
    V = np.stack([random_seqvec(rng, win).values for _ in range(4)])
    assert np.array_equal(E2.norm_rows(V), E.norm_rows(V))


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


def _closed_form(form, V):
    """Norms of the rows of V in the weighted ell_p with form (w, p)."""
    w, p = form
    A = np.abs(V) * w
    return np.max(A, axis=1) if math.isinf(p) else np.sum(A ** p, axis=1) ** (1.0 / p)


def _one_of_each_seq_space(win):
    """One instance of every sequence-space class, wrappers over two insides."""
    return {
        "weighted": WeightedLp(2.5, win, weights=np.linspace(0.5, 3.0, win.size)),
        "dyadic": dyadic_lp(1, win),
        "linf": LinftySeq(win),
        "modular": OrliczModular(example1(), win),
        "geo-lp": GeometricWeighted(dyadic_lp(2, win), 2 ** 0.5),
        "geo-linf": GeometricWeighted(LinftySeq(win), 0.5),
        "geo-modular": GeometricWeighted(OrliczModular(example1(), win), 2 ** 0.5),
        "power-modular": OrliczModular(power(2), win),
        "geo-power": GeometricWeighted(OrliczModular(power(2), win), 2 ** 0.5),
        "rev-lp": OrderReversed(dyadic_lp(2, win)),
        "rev-modular": OrderReversed(OrliczModular(example1(), win)),
        "rev-power": OrderReversed(OrliczModular(power(2), win)),
        "induced": InducedSeq(LpSpace(2), win),
        "induced-lorentz": InducedSeq(LorentzSpace(2, PowerWeight(0.5)), win),
        "induced-power": InducedSeq(OrliczSpace(power(3)), win),
        "induced-lorentz-pow": InducedSeq(LorentzSpace(1.5, PowerWeight(0.3)), win),
    }


def test_weighted_lp_form_contract(rng):
    win = Window("Z-", -12, -1)
    # a power modular, its reversal and b^n weighting, and the induced spaces
    # of L_p, of the Lorentz space with weight t^(1/p) and of the Orlicz
    # space of x^p answer a form; a wrapped space answers none of its own
    no_form = {"modular", "geo-modular", "rev-modular", "induced-lorentz-pow"}
    for name, E in _one_of_each_seq_space(win).items():
        form = E.weighted_lp_form()
        assert (E.shift_upper() is None) is (form is None), name
        if name in no_form:
            assert form is None, name
            continue
        for _ in range(5):
            vals = random_seqvec(rng, E.window).values
            direct = _closed_form(form, vals[None])[0]
            assert direct == pytest.approx(E.norm_values(vals), rel=1e-12), name
    # a reversed or b^n-weighted space with a form is a weighted ell_p
    for name in ("geo-power", "rev-power"):
        assert type(_one_of_each_seq_space(win)[name]) is WeightedLp, name


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
    # a folded power modular is a weighted ell_p, built on no generator
    for name in ("weighted", "linf", "geo-lp", "geo-power", "rev-power", "induced"):
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
    ("seq:from:<seq:linf>,weightbase=2", False), ("seq:induced:<linf>", True),
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
    # ell_infty is the weighted-lp form (1, inf): of E_X for a function space
    win = Window("Z-", -8, -1)
    form = parse_any_space(spec, window=win).e_space(win).weighted_lp_form()
    assert (form is not None and math.isinf(form[1]) and bool(np.all(form[0] == 1.0))) is linf


def test_linf_is_weighted_lp_at_p_inf():
    win = Window("Z-", -8, -1)
    for E in (LinftySeq(win), dyadic_lp(math.inf, win), WeightedLp(math.inf, win),
              parse_seq_space("seq:linf", win), parse_seq_space("seq:lpw:p=inf", win)):
        assert type(E) is WeightedLp and E.spec_string() == "seq:linf"
        assert np.array_equal(E.unit_norms(), np.ones(win.size))
    for E in (WeightedLp(math.inf, win, wexp=0.3),
              WeightedLp(math.inf, win, weights=np.full(win.size, 0.5))):
        assert E.spec_string().startswith("seq:lpw:p=inf,")


@pytest.mark.parametrize("spec", ["seq:lpw", "seq:lpw:wexp=0.5", "seq:lpw:weights=<1,2>"])
def test_lpw_needs_p(spec):
    with pytest.raises(UsageError, match="spec is missing the argument 'p'"):
        parse_seq_space(spec, Window("Z-", -2, -1))


def test_parse_any_space_dispatch():
    assert isinstance(parse_any_space("lp:p=2"), LpSpace)
    assert isinstance(parse_any_space("seq:lpw:p=2"), WeightedLp)


# case names spell the constructor arguments as written here, so they do not
# follow the number format of spec_string
_ROUND_TRIP_ZOO = [
    power(2.5), pwpower(1.5, 3.0), logfactor_fn(1.25), example1(),
    elastic_non_lorentz(), *brudnyi_pair(1.5, 3.0), MinimalFn(0.04),
]
_ROUND_TRIP_IDS = [
    "power:p=2.5", "pwpower:p0=1.5,p1=3.0", "logfactor:p=1.25", "example1",
    "elastic-nl", "brudnyi:p=1.5,q=3.0:F", "brudnyi:p=1.5,q=3.0:G", "minimal:alpha=0.04",
]


@pytest.mark.parametrize("F", _ROUND_TRIP_ZOO, ids=_ROUND_TRIP_IDS)
def test_generator_spec_round_trip(F):
    back = parse_generator(F.spec_string())
    assert (back.name, back.spec_string()) == (F.name, F.spec_string())
    u = np.linspace(-40.0, 400.0, 2001)
    assert np.array_equal(back.log_eval(u), F.log_eval(u))


@pytest.mark.parametrize("F", _ROUND_TRIP_ZOO, ids=_ROUND_TRIP_IDS)
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


@pytest.mark.parametrize("parse, spec, item", [
    (parse_any_space, "seq:lpw:p=2,zz", "zz"), (parse_generator, "power:p=2,3", "3"),
    (parse_generator, "example1:zz", "zz"), (parse_generator, "power:p=2:F", "F"),
    (parse_generator, "brudnyi:p=1.5,q=3,F:G", "F"),
], ids=["lpw", "power", "example1", "power-selector", "brudnyi-two-selectors"])
def test_unread_item_is_usage_error(parse, spec, item):
    # an item without '=' that the spec's parser never reads is refused, as
    # an unread key is, not dropped from the space and its spec string
    with pytest.raises(UsageError, match=f"^spec has an item it does not take: '{item}'$"):
        parse(spec)


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


def test_weighted_lp_rows_past_the_float_range_of_their_sum():
    # a p-th-power sum that underflows to 0, is subnormal or overflows is
    # rescaled by the row's largest term; math.hypot is the p = 2 reference
    halves = StepFunction("unit", (0.0, 0.5, 1.0), (1.5e308, 1.5e308))
    cases = [(StepFunction("unit", (0.0, 1.0), (c,)), c) for c in (1e-165, 1e-160)]
    cases.append((halves, math.hypot(*(1.5e308 * 0.5 ** 0.5,) * 2)))
    for X in (LpSpace(2), OrliczSpace(power(2))):
        for f, ref in cases:
            assert X.fn_norm(f) == pytest.approx(ref, rel=4 * _EPS), (X, f)
    win = Window("Z-", -4, -1)
    w = 2.0 ** (win.indices() / 2)
    for v in ([0.0, 1e-165, 0.0, 3e-166], [1e-160, 0.0, 0.0, 0.0], [0.0, 1.7e308, 1.7e308, 0.0]):
        ref = math.hypot(*(np.array(v) * w).tolist())
        for E in (dyadic_lp(2, win), OrliczModular(power(2), win)):
            assert E.norm_values(np.array(v)) == pytest.approx(ref, rel=4 * _EPS), (E, v)
    # p = 3 against the exact sum of cubes: the result c brackets its root
    t = [Fraction(2.0 ** -400) * k for k in (1, 2, 3)]  # cubes below 2^-1074
    c = WeightedLp(3, Window("Z", 0, 2)).norm_values(np.array([float(x) for x in t]))
    total = sum(x ** 3 for x in t)
    assert Fraction(c * (1 - 4 * _EPS)) ** 3 < total < Fraction(c * (1 + 4 * _EPS)) ** 3


# function spaces: norm_rows_on(f), rows on the pieces of one step function

_ZOO = (power(2), pwpower(1.5, 3), logfactor_fn(1.5), example1(), elastic_non_lorentz(),
        *brudnyi_pair(1.5, 3.0), MinimalFn(0.05))
_FN_ROW_SPACES = {
    "lp-1": lambda: LpSpace(1), "lp-2": lambda: LpSpace(2), "lp-inf": linf_space,
    "lorentz-pow": lambda: LorentzSpace(2, PowerWeight(0.5)),
    "lorentz-pow-0.3": lambda: LorentzSpace(1.5, PowerWeight(0.3)),
    **{f"orlicz-{F.name}": (lambda F=F: OrliczSpace(F)) for F in _ZOO},
    "fromseq": lambda: FromSequenceSpace(dyadic_lp(2, _ROWS_WIN)),
}


@functools.cache
def _fn_row_space(name):
    """One instance per name: building a space from a sequence runs kappa."""
    return _FN_ROW_SPACES[name]()


def _form_one_vector(X, f):
    """Reference: the norm of one step function in the weighted ell_p of the
    form of X on its pieces, one sum and a scalar root."""
    w, p = X.weighted_lp_form_on(f)
    a = np.abs(f.vals) * w
    return float(np.max(a, initial=0.0)) if math.isinf(p) else float(np.sum(a ** p) ** (1.0 / p))


def _orlicz_log_error(X, f, norm):
    """|log(norm / ref)| against the log-space bisection reference on the
    pieces of f (0 for the zero function normed 0)."""
    if not np.any(f.vals):
        return 0.0 if norm == 0.0 else math.inf
    return abs(math.log(norm / reference_norm(X.F, np.asarray(f.vals), np.log(f.lengths))))


@st.composite
def _step_rows(draw):
    """A grid of 1-14 pieces in [0, 1] and 1-5 rows of values on it, with
    zeros in place; wide rows with zeros are where summation order matters."""
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
    # a space with a form on the pieces (L_p, the Lorentz space with weight
    # t^(1/2), the Orlicz space of x^2) is normed by it, bit for bit; any
    # other Orlicz norm is within 1e-13 in log of the bisection reference
    form = X.weighted_lp_form_on(f) is not None
    for i, v in enumerate(V):
        g = f.with_values(v)
        alone = X.norm_rows_on(f)(V[i:i + 1])[0]
        assert norms[i] == alone == X.fn_norm(g), (name, i)
        if form:
            assert norms[i] == _form_one_vector(X, g), (name, i)
        elif name.startswith("orlicz"):
            assert _orlicz_log_error(X, g, norms[i]) <= 1e-13, (name, i)


# a batch of at least _ARRAY_ROWS rows keeps its Newton state in arrays

_WIDE_SPACES = ([name for name in sorted(_ROW_SPACES) if "modular" in name]
                + [name for name in sorted(_FN_ROW_SPACES) if name.startswith("orlicz")])


def _wide_rows(rows, n: int, rng) -> np.ndarray:
    """3 * _ARRAY_ROWS rows of n values: a zero row, two single-entry rows, a
    row whose single-entry norms sum past the float range, then sparse signed
    rows, the second half of them rescaled to norms near 1 (where a bracket
    end can be -0 or +0)."""
    V = np.zeros((3 * _ARRAY_ROWS, n))
    V[1, 0], V[2, n - 1] = 3.0, -1e-3
    # entries of single-entry norm at most 0.6 DBL_MAX at the places of
    # largest unit norm, as few as make the single-entry norms' sum overflow
    top, units = sys.float_info.max, rows(np.eye(n))
    big = np.argsort(units)[::-1].tolist()
    vals = [min(0.6 * top / u, 0.99 * top) for u in units[big].tolist()]
    sums = list(itertools.accumulate(v * u for v, u in zip(vals, units[big].tolist())))
    j = sums.index(math.inf) + 1
    V[3, big[:j]] = vals[:j]
    for row in V[4:]:
        idx = rng.choice(n, size=int(rng.integers(2, n + 1)), replace=False)
        row[idx] = np.exp(rng.normal(0.0, 2.0, idx.size)) * rng.choice([-1.0, 1.0], idx.size)
    near_one = V[V.shape[0] // 2:]
    near_one /= rows(near_one)[:, None]
    return V


@pytest.mark.parametrize("name", _WIDE_SPACES)
def test_wide_batches_equal_each_row_alone(name, monkeypatch):
    if name in _ROW_SPACES:  # on Z, where unit norms exceed 1 past n = 0
        win = Window("Z", -5, 4)
        rows, n = _ROW_SPACES[name](win).norm_rows, win.size
    else:
        n = 10
        f = StepFunction("unit", tuple(np.linspace(0.0, 1.0, n + 1) ** 2), (1.0,) * n)
        rows = _fn_row_space(name).norm_rows_on(f)
    V = _wide_rows(rows, n, np.random.default_rng(_WIDE_SPACES.index(name)))
    points = []
    count_solver_kernel(monkeypatch, points)
    norms = rows(V)
    assert norms[0] == 0.0 and np.all(np.isfinite(norms))
    batch = sum(points)
    points.clear()
    for i in range(V.shape[0]):
        assert norms[i] == rows(V[i:i + 1])[0], (name, i)
    # each row takes the same Newton steps, batched or alone
    assert sum(points) == batch


# every space whose weighted-lp form answers, each built once
_FORM_FN_SPECS = ("lp:p=1", "lp:p=1.5", "lp:p=2", "lp:p=3", "linf", "lorentz:p=2,w=pow:0.5",
                  "lorentz:p=1.5,w=pow:0.6666666666666666", "orlicz:gen=<power:p=2.5>",
                  "orlicz:gen=<pwpower:p0=3,p1=3>")
_FORM_SEQ_SPECS = ("seq:lpw:p=2.5,wexp=0.3", "seq:lpw:p=inf,wexp=-0.2", "seq:linf",
                   "seq:orlicz-modular:gen=<power:p=1.5>",
                   *(f"seq:induced:<{spec}>" for spec in _FORM_FN_SPECS))


@functools.cache
def _form_spaces():
    return ([parse_space(spec) for spec in _FORM_FN_SPECS],
            [parse_seq_space(spec, _ROWS_WIN) for spec in _FORM_SEQ_SPECS])


def _assert_normed_by_form(rows, V, form, name):
    """rows(V) is the one weighted-lp formula on the form, batched and one row alone."""
    want = _wlp_norms(V, *form)
    assert np.array_equal(rows(V), want), name
    assert [rows(V[i:i + 1])[0] for i in range(len(V))] == want.tolist(), name


@settings(max_examples=20, deadline=None)
@given(case=_step_rows(), rows=_ROWS)
def test_a_space_with_a_form_is_normed_by_it(case, rows):
    # no Newton solve, rearrangement or reconstruction behind an exact form:
    # L_p, the Lorentz space with weight t^(1/p) (p = 1.5 within the form's
    # 1e-12 tolerance), the Orlicz space and the modular space of a power
    # (pwpower(p, p) too), their induced spaces, and every weighted ell_p
    (f, V), S = case, np.array(rows + [[0.0] * _ROWS_WIN.size])
    fn_spaces, seq_spaces = _form_spaces()
    for X in fn_spaces:
        _assert_normed_by_form(X.norm_rows_on(f), V, X.weighted_lp_form_on(f), X.spec_string())
    for E in seq_spaces:
        _assert_normed_by_form(E.norm_rows, S, E.weighted_lp_form(), E.spec_string())


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
             else InducedSeq(_fn_row_space("lorentz-pow-0.3"), _ROWS_WIN))
        return _chain(E, _CHAIN_OPS[int(i)], OrderReversed, GeometricWeighted)
    F = sample_profile(logfactor_fn(2))
    return OrliczSpace(F) if key == "orlicz" else OrderReversed(OrliczModular(F, _ROWS_WIN))


@pytest.mark.parametrize("name", _SPEC_ZOO)
def test_spec_string_reparses_to_the_same_norms(name):
    X = _spec_zoo_space(name)
    if name.startswith("sampled:"):
        # no spec names a sampled profile, so no witness names the space
        with pytest.raises(UsageError, match="sampled profile"):
            X.spec_string()
        assert "grid<logfactor>" in repr(X.generator())
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


@pytest.mark.parametrize("name", _SPEC_ZOO)
def test_the_form_is_the_one_exactness_answer(name):
    # a certified shift bound exactly where a form is, and the form's closed
    # norm is the space's own; a function space's form on pieces agrees with
    # the form of its E_X
    X = _spec_zoo_space(name)
    rng = np.random.default_rng(5)
    E = X if isinstance(X, SeqSpaceSpec) else X.e_space(_ROWS_WIN)
    form = E.weighted_lp_form()
    assert (E.shift_upper() is None) is (form is None), name
    V = rng.lognormal(0.0, 1.5, (5, E.window.size)) * (rng.random((5, E.window.size)) < 0.6)
    if form is not None:
        assert E.shift_upper() == 1.0
        assert np.allclose(_closed_form(form, V), E.norm_rows(V), rtol=1e-12, atol=0.0), name
    if not isinstance(X, SeqSpaceSpec):
        f = StepFunction(X.domain, (0.0, 0.05, 0.2, 0.45, 0.7, 1.0), (1.0,) * 5)
        on = X.weighted_lp_form_on(f)
        assert (on is None) is (form is None), name
        if on is not None:
            W = V[:, :5]
            assert np.allclose(_closed_form(on, W), X.norm_rows_on(f)(W), rtol=1e-12,
                               atol=0.0), name


@pytest.mark.parametrize("F, p", [
    (power(1), 1.0), (power(2), 2.0), (power(3.5), 3.5), (pwpower(2, 2), 2.0),
    (pwpower(1.5, 1.5), 1.5), (pwpower(2, 3), None), (pwpower(1, 2), None),
    (example1(), None), (logfactor_fn(2), None), (convexify(power(2)), None),
    (sample_profile(power(2)), None),
], ids=["power-1", "power-2", "power-3.5", "pwpower-2-2", "pwpower-1.5-1.5", "pwpower-2-3",
        "pwpower-1-2", "example1", "logfactor", "convexify", "sampled-power"])
def test_power_read_from_the_profile(F, p):
    # the exponent is read from the profile, one affine piece of h through 0,
    # whatever the generator's name: pwpower(p, p) is x^p
    win = Window("Z-", -8, -1)
    form = OrliczModular(F, win).weighted_lp_form()
    f = StepFunction("unit", (0.0, 0.25, 1.0), (1.0, 0.5))
    on = OrliczSpace(F).weighted_lp_form_on(f)
    if p is None:
        assert form is None and on is None
        return
    assert form[1] == on[1] == p
    assert np.array_equal(form[0], dyadic_lp(p, win).weights)
    assert np.array_equal(on[0], f.lengths ** (1.0 / p))


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
    # takes the certified L_infty route, where the segment rule's lower is
    # the value up to rounding; coordinate descent would stall at 0.5065148
    # with lower 0.0
    win = Window("Z-", -16, -1)
    f = SeqVec(win, np.exp(np.random.default_rng(0).normal(0.0, 1.0, win.size)))
    X = dyadic_lp(2, win)
    ref = k_numeric(0.7, f, X, LinftySeq(win))
    assert ref.value == pytest.approx(0.5059244764, abs=1e-10)
    for spec in ("seq:from:<seq:linf>,weightbase=1", "rev:<seq:from:<seq:linf>,weightbase=1>"):
        r = k_numeric(0.7, f, X, parse_seq_space(spec, win))
        assert (r.value, r.lower, r.converged) == (ref.value, ref.lower, True), spec
        assert 0.0 <= ref.value - r.lower <= 1e-12 * ref.value


_FOLD_WINDOWS = (Window("Z-", -16, -1), Window("Z", -8, 7), Window("Z+", 0, 11))


@st.composite
def _folded_chain(draw):
    """A weighted ell_p (explicit, wexp or dyadic weights), an Orlicz modular
    (of example1, or of x^p, a weighted ell_p), or an induced Lorentz space
    (with weight t^(1/2) and p = 2, a weighted ell_p), up to three reversals or
    geometric weightings, and rows of values on the result."""
    win, p = draw(st.sampled_from(_FOLD_WINDOWS)), draw(st.sampled_from([1.0, 1.5, 2.0, 3.0,
                                                                          math.inf]))
    kind = draw(st.sampled_from(["explicit", "wexp", "dyadic", "modular", "power",
                                 "induced"]))
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
    elif kind == "power":
        E = OrliczModular(power(1.0 if math.isinf(p) else p), win)
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
        return float(self.norm_rows(np.eye(1, self.window.size, n - self.window.lo))[0])

    def norming_values(self, xv):
        if self.op is None:
            return _norming(self.inner, xv[::-1])[::-1]
        return _norming(self.inner, xv * self.w) * self.w


def _norming(E, v):
    """A norming functional of one row: the one-row ``norm_rows(grad=True)``
    of a space, the reference's own conjugation of its inner one."""
    if isinstance(E, _Unfolded):
        return E.norming_values(v)
    return E.norm_rows(v[None], grad=True)[1][0]


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
    # a space with a form folds into a weighted ell_p, any other into one
    # conjugated space
    lp = E.weighted_lp_form() is not None
    assert type(S) is (type(E) if S is E else WeightedLp if lp else _Conjugated)
    assert S.window == ref.window
    # a weighted ell_p multiplies its weights into one and sums in its own
    # order (to rel 1e-12 of the chain on a space whose form is not its own
    # norm formula); a conjugated space applies each op to the rows in the
    # chain's order, so its norms are the chain's
    ns = [int(n) for n in S.window.indices()]
    got, want = S.norm_rows(V), ref.norm_rows(V)
    units, ref_units = ([X.unit_norm(n) for n in ns] for X in (S, ref))
    if type(E) is WeightedLp:
        # a unit row's norm is its weight to the rounding of the p-th power
        # and root, which grows with |log w|
        assert np.allclose(got, want, rtol=1e-15, atol=0.0)
        assert np.allclose(units, ref_units, rtol=1e-12, atol=0.0)
    elif lp:
        assert np.allclose(got, want, rtol=1e-12, atol=0.0)
        assert np.allclose(units, ref_units, rtol=1e-12, atol=0.0)
    else:
        assert np.array_equal(got, want)
        assert units == ref_units
    # the induced Lorentz space is L_2 and has the norming functional of its form
    for v, nrm in zip(V, got.tolist()):
        if nrm > 0:
            for g in (_norming(S, v), _norming(ref, v)):
                assert abs(float(np.dot(v, g)) / nrm - 1.0) <= FUNCTIONAL_TOL
    # the spec string reparses to the same norms, and a double reversal is S
    back = parse_seq_space(S.spec_string(), S.window)
    assert type(back) is type(S) and np.array_equal(back.norm_rows(V), got)
    assert np.array_equal(OrderReversed(OrderReversed(S)).norm_rows(V), got)
