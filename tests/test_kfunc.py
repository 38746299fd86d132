import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from couplekit import (HypothesisError, LinftySeq, LorentzSpace, LpSpace, OrliczModular,
                       OrliczSpace, PowerWeight, SeqSpaceSpec, SeqVec, StepFunction, UsageError,
                       WeightedLp, Window, char_fn, dyadic_envelope, dyadic_lp,
                       fit_separation, kfunc, k_block_estimate, k_l1_linf_oracle,
                       k_numeric, k_profile, linf_space, power, pwpower, rho_profile)
from couplekit.fnspaces import SpaceSpec
from couplekit.specdsl import parse_any_space, parse_seq_space
from conftest import random_seqvec, random_step

L1 = LpSpace(1)
LINF = linf_space()


def test_oracle_char_examples():
    f = char_fn(0, 1)
    assert k_l1_linf_oracle(2.0, f) == pytest.approx(1.0)
    assert k_l1_linf_oracle(0.25, f) == pytest.approx(0.25)


def test_each_side_reads_its_form_once(monkeypatch):
    # a function space's rows and its weighted-lp form come from one read
    reads = []
    form_on = SpaceSpec.weighted_lp_form_on
    monkeypatch.setattr(SpaceSpec, "weighted_lp_form_on",
                        lambda self, f: reads.append(self) or form_on(self, f))
    f = char_fn(0, 0.5, height=2.0)
    for X, Y in ((L1, LINF), (LpSpace(2), L1), (OrliczSpace(power(3)), LINF)):
        reads.clear()
        k_numeric(0.5, f, X, Y)
        assert reads == [X, Y]


def test_k_numeric_matches_oracle(rng):
    for _ in range(12):
        f = random_step(rng)
        for t in 2.0 ** np.arange(-8, 5):
            o = k_l1_linf_oracle(t, f)
            r = k_numeric(t, f, L1, LINF)
            assert r.value == pytest.approx(o, rel=1e-5)
            assert r.lower <= r.value


def test_k_large_t_reaches_x_norm(rng):
    f = random_step(rng)
    X, Y = LpSpace(2), LpSpace(1)
    r = k_numeric(1e6, f, X, Y)
    assert r.value == pytest.approx(X.fn_norm(f), rel=1e-6)


def test_k_same_space_all_or_nothing(rng):
    f = random_step(rng)
    X = LpSpace(2)
    for t in (0.2, 0.9, 1.0, 3.0):
        r = k_numeric(t, f, X, X)
        assert r.value == pytest.approx(min(1.0, t) * X.fn_norm(f), rel=1e-7)


def test_k_trivial_upper_bounds(rng):
    f = random_step(rng)
    X, Y = LpSpace(1), LpSpace(2)
    for t in (0.1, 1.0, 10.0):
        r = k_numeric(t, f, X, Y)
        assert r.value <= min(X.fn_norm(f), t * Y.fn_norm(f)) + 1e-12


def test_k_equals_k_of_abs(rng):
    f = random_step(rng)
    g = f.with_values(f.vals * np.where(np.arange(f.vals.size) % 2, -1.0, 1.0))
    for t in (0.3, 2.0):
        assert k_numeric(t, g, L1, LINF).value == pytest.approx(
            k_numeric(t, g.with_values(np.abs(g.vals)), L1, LINF).value, rel=1e-12)


def test_k_rejects_bad_t():
    for t in (0.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite t > 0"):
            k_numeric(t, char_fn(0, 1), L1, LINF)


def test_k_zero_function():
    r = k_numeric(1.0, char_fn(0, 1, height=0.0), L1, LINF)
    assert r.value == 0.0 and r.converged


# ---------------------------------------------------------------------------
# sequence couples and the block estimate
# ---------------------------------------------------------------------------


def _couple(width=12):
    win = Window("Z", -width, width)
    E, F = dyadic_lp(1, win), LinftySeq(win)
    return win, E, F, fit_separation(rho_profile(E, F, win))


def test_block_estimate_unit_vector():
    win, E, F, fit = _couple()
    x = SeqVec.basis(win, 0)
    assert k_block_estimate(1.0, x, E, F, fit) == pytest.approx(1.0)


def test_block_estimate_two_spikes():
    win, E, F, fit = _couple()
    x = SeqVec.from_entries(win, {-3: 1.0, 3: 1.0})
    assert k_block_estimate(1.0, x, E, F, fit) == pytest.approx(2.0 ** -3 + 1.0)


def test_block_estimate_boundary_regimes():
    win, E, F, fit = _couple()
    x = SeqVec.from_entries(win, {-1: 1.0, 2: 0.5})
    t_small = 0.5 * min(fit.rho.values())
    assert k_block_estimate(t_small, x, E, F, fit) == pytest.approx(t_small * F.norm(x))
    t_big = 2.0 * max(fit.rho.values())
    assert k_block_estimate(t_big, x, E, F, fit) == pytest.approx(E.norm(x))


def test_block_estimate_rejects_unseparated():
    win = Window("Z", -4, 4)
    E = dyadic_lp(1, win)
    flat = fit_separation({n: 1.0 for n in range(-4, 5)})
    with pytest.raises(HypothesisError, match="^couple is not exponentially separated$"):
        k_block_estimate(1.0, SeqVec.basis(win, 0), E, E, flat)


def test_block_dominates_k_and_ratio_bounded(rng):
    win, E, F, fit = _couple(10)
    for _ in range(10):
        x = random_seqvec(rng, win, k=6, scale_sigma=1.5)
        for t in np.geomspace(min(fit.rho.values()), max(fit.rho.values()), 7):
            kv = k_numeric(t, x, E, F).value
            bv = k_block_estimate(t, x, E, F, fit)
            assert bv >= kv - 1e-9
            assert bv <= 8.0 * kv


# ---------------------------------------------------------------------------
# profiles and structural identities
# ---------------------------------------------------------------------------


def test_profile_char_values():
    rows = k_profile(char_fn(0, 1), L1, LINF, [0.25, 0.5, 1.0, 2.0])
    assert [r["K"] for r in rows] == pytest.approx([0.25, 0.5, 1.0, 1.0])


def test_profile_monotone_concave(rng):
    f = random_step(rng)
    ts = np.geomspace(1.0 / 64, 8.0, 13)
    rows = k_profile(f, L1, LINF, ts)
    ks = np.array([r["K"] for r in rows])
    assert np.all(np.diff(ks) >= -1e-9)
    # concavity in t: midpoint value dominates the chord
    for i in range(1, len(ts) - 1):
        lam = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        chord = (1 - lam) * ks[i - 1] + lam * ks[i + 1]
        assert ks[i] >= chord - 1e-7


def test_profile_grid_validation():
    for grid in ([1.0, 0.5], [math.nan, 1.0], [1.0, math.inf], [-1.0, 1.0]):
        with pytest.raises(ValueError, match="t grid must be finite, positive and increasing"):
            k_profile(char_fn(0, 1), L1, LINF, grid)


def test_prop52_sequence_function_equality(rng):
    # f in span{e_n}: K(t, f; X, Y) = K(t, f; E_X, E_Y)
    win = Window("Z-", -16, -1)
    couples = [
        (LpSpace(1), linf_space(), dyadic_lp(1, win), LinftySeq(win)),
        (LpSpace(1), LpSpace(2), dyadic_lp(1, win), dyadic_lp(2, win)),
        (LpSpace(2), linf_space(), dyadic_lp(2, win), LinftySeq(win)),
    ]
    for _ in range(4):
        xs = random_seqvec(rng, win, k=5, scale_sigma=1.0)
        f = xs.to_step()
        for X, Y, EX, EY in couples:
            for t in (0.1, 1.0, 4.0):
                kf = k_numeric(t, f, X, Y).value
                ks = k_numeric(t, xs, EX, EY).value
                assert ks == pytest.approx(kf, rel=1e-5)


def test_envelope_k_comparison(rng):
    # K(t, G) <= 2 K(t, f) for the dyadic envelope G of f
    for _ in range(5):
        f = random_step(rng)
        G = dyadic_envelope(f, Window("Z-", -40, -1)).to_step()
        for t in (0.25, 1.0, 3.0):
            kG = k_numeric(t, G, L1, LINF).value
            kf = k_numeric(t, f, L1, LINF).value
            assert kG <= 2.0 * kf + 1e-9


# ---------------------------------------------------------------------------
# the exact one-dimensional path for couples with L_infty / ell_infty
# ---------------------------------------------------------------------------

SEQ_WIN = Window("Z-", -12, -1)
LINF_X = {
    "L1": LpSpace(1), "L2": LpSpace(2), "L3": LpSpace(3), "L1.5": LpSpace(1.5),
    "lorentz": LorentzSpace(2, PowerWeight(0.5)),
    "orlicz": OrliczSpace(pwpower(2, 3)),
    "dyadic_lp(1)": dyadic_lp(1, SEQ_WIN),
}
# the Luxemburg norms are solved to about 1e-13, so comparisons between
# separately evaluated decompositions allow this relative slack
NORM_REL = 1e-12
# the ell_infty side of a sequence case: spaces whose weighted-lp form is
# (v, inf), unit v or not
LINF_SEQ = {spec: parse_seq_space(spec, SEQ_WIN) for spec in (
    "seq:linf", "seq:lpw:p=inf,wexp=0.3", "seq:from:<seq:linf>,weightbase=2",
    "rev:<seq:lpw:p=inf,wexp=0.3>", "seq:induced:<linf>")}
# a few repeated levels and zeros, so that distinct levels are fewer than pieces
_LEVELS = st.one_of(st.just(0.0), st.sampled_from([0.5, 1.0, 2.0]),
                    st.floats(-4.0, 3.0).map(math.exp))


@st.composite
def linf_cases(draw):
    """(t, f, X, Y): a random step function with L_infty, or a random sequence
    with a weighted ell_infty of ``LINF_SEQ``, on one side and a normed
    lattice of ``LINF_X`` on the other, in either order."""
    name = draw(st.sampled_from(sorted(LINF_X)))
    t = 2.0 ** draw(st.floats(-6.0, 6.0))
    if name != "dyadic_lp(1)" and draw(st.booleans()):
        n = draw(st.integers(1, 10))
        cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=n - 1,
                             max_size=n - 1, unique=True))
        bp = (0.0, *sorted(cuts), 1.0)
        vals = draw(st.lists(_LEVELS, min_size=n, max_size=n))
        if not any(vals):
            vals[0] = 1.0
        f, Z = StepFunction("unit", bp, tuple(vals)), linf_space()
    else:
        vals = np.array(draw(st.lists(_LEVELS, min_size=SEQ_WIN.size,
                                      max_size=SEQ_WIN.size)))
        if not np.any(vals):
            vals[-1] = 1.0
        f, Z = SeqVec(SEQ_WIN, vals), LINF_SEQ[draw(st.sampled_from(sorted(LINF_SEQ)))]
    X = LINF_X[name]
    return (t, f, Z, X) if draw(st.booleans()) else (t, f, X, Z)


def _objective(t, f, X, Y):
    """c -> ||c||_X + t ||a - c||_Y with a = |f|, through k_numeric's norms."""
    (nx, _), (ny, _) = kfunc._side(X, f), kfunc._side(Y, f)
    a = np.abs(f.vals if isinstance(f, StepFunction) else f.values)
    return a, lambda c: float(nx(c[None])[0] + t * ny((a - c)[None])[0])


def _linf_scale(f, X, Y):
    """(c, on_y): c = 1/v of the side whose weighted-lp form is (v, inf),
    Y's if it has one (on_y), else X's."""
    (_, form_x), (_, form_y) = kfunc._side(X, f), kfunc._side(Y, f)
    on_y = form_y is not None and math.isinf(form_y[1])
    return 1.0 / (form_y if on_y else form_x)[0], on_y


def _dense_grid_k(t, f, X, Y):
    """min over the splits whose ell_infty side is min(a, lam c), c = 1/v,
    of ||x||_X + t ||a - x||_Y, by zooming dense grids of lam."""
    a, obj = _objective(t, f, X, Y)
    c, on_y = _linf_scale(f, X, Y)

    def phi(lam):
        y = np.minimum(a, lam * c)
        return obj(a - y if on_y else y)

    lo, hi, best = 0.0, float(np.max(a / c)), math.inf
    for points in [257] + [33] * 10:
        grid = np.linspace(lo, hi, points)
        vals = [phi(lam) for lam in grid]
        k = int(np.argmin(vals))
        best = min(best, vals[k])
        lo, hi = grid[max(k - 1, 0)], grid[min(k + 1, points - 1)]
    return best


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_between_lower_and_trivial_splits(case):
    t, f, X, Y = case
    a, obj = _objective(t, f, X, Y)
    r = k_numeric(t, f, X, Y)
    assert r.lower <= r.value <= min(obj(a), obj(np.zeros_like(a)))


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_certified_gap(case):
    r = k_numeric(*case)
    assert r.value - r.lower <= 1e-6 * r.value


@settings(max_examples=30, deadline=None)
@given(linf_cases())
def test_k_linf_matches_dense_grid(case):
    assert k_numeric(*case).value == pytest.approx(_dense_grid_k(*case), rel=1e-8)


@pytest.mark.parametrize("t, top", [(0.125, 0.9999999999999998),
                                    (0.25, 1.0000000000000002)])
def test_k_linf_levels_one_ulp_apart(t, top):
    # no float lies strictly between the two levels, so the segment between
    # them holds no root; L1 takes no segment rule
    for X in (L1, LpSpace(2), LpSpace(3), LpSpace(1.5)):
        case = (t, SeqVec.from_entries(SEQ_WIN, {-2: 1.0, -1: top}), X, LinftySeq(SEQ_WIN))
        r = k_numeric(*case)
        assert r.lower <= r.value and r.value - r.lower <= 1e-12 * r.value
        assert r.value == pytest.approx(_dense_grid_k(*case), rel=1e-12)


def _segment_edge_cases():
    """(name, t, f, X): K against L_infty at the edges of the segment rule."""
    # levels 1e-8 apart: a is within 1e-8 of collinear with c = 1, so
    # A C - B^2 cancels, and t below sqrt(C) = 1 puts the root below them
    # (about 0.35 below at t^2 = 1 - 1e-15); the form A C - B^2 misses the
    # roots at t = 0.999 and 0.9 at p = 2
    close = StepFunction("unit", (0.0, 0.25, 0.5, 0.75, 1.0),
                         tuple(1.0 + k * 1e-8 for k in range(4)))
    yield "flat", 1.0, StepFunction("unit", (0.0, 1.0), (2.0,)), LpSpace(2)
    for p in (2.0, 3.0, 1.5):
        one = SeqVec.from_entries(SEQ_WIN, {-3: 1.7})
        for t in (0.05, 0.7, 3.0):
            yield f"single-p{p}-t{t}", t, one, dyadic_lp(p, SEQ_WIN)
        for t in (math.sqrt(1.0 - 1e-15), 0.999, 0.9):
            yield f"collinear-p{p}-t{t}", t, close, LpSpace(p)


@pytest.mark.parametrize("name, t, f, X", list(_segment_edge_cases()),
                         ids=[c[0] for c in _segment_edge_cases()])
def test_k_segment_rule_edges(name, t, f, X):
    # one piece at t = 1 (C = t^2: phi is flat, K = a), a single active
    # entry (phi affine, no interior root) and near-collinear entries
    Z = LINF if isinstance(f, StepFunction) else LinftySeq(SEQ_WIN)
    for case in ((t, f, X, Z), (1.0 / t, f, Z, X)):
        r = k_numeric(*case)
        assert r.lower <= r.value and r.value - r.lower <= 1e-12 * r.value
        assert r.value == pytest.approx(_dense_grid_k(*case), rel=1e-12)
        assert name != "flat" or r.value == r.lower == 2.0


def test_k_linf_exact_at_levels_for_l1(rng):
    # phi is piecewise affine for X = L1 with kinks at the levels of |f|,
    # so the level grid alone gives K = int_0^t f* up to rounding
    for _ in range(20):
        f = random_step(rng)
        for t in 2.0 ** np.arange(-8, 5):
            assert k_numeric(t, f, L1, LINF).value == pytest.approx(
                k_l1_linf_oracle(t, f), rel=1e-12)


@pytest.mark.parametrize("name", ["L2", "lorentz", "orlicz"])
def test_k_linf_lower_bounds_k_at_loose_tol(name):
    # a two-level f puts the minimiser of phi strictly between levels for
    # some t; lower stays below K.  There a loose tol leaves the golden
    # value of a side without a form (orlicz) above K, while a form side
    # (L2, the Lorentz space that is L2) takes the exact segment rule,
    # whatever tol is
    X = LINF_X[name]
    f = StepFunction("unit", (0.0, 0.5, 1.0), (2.0, 1.0))
    above = 0
    for t in np.geomspace(0.25, 2.0, 25):
        r = k_numeric(t, f, X, LINF, tol=0.5)
        ref = _dense_grid_k(t, f, X, LINF)
        assert r.lower <= ref * (1 + NORM_REL)
        if name == "orlicz":
            above += r.value > ref * (1 + 1e-6)
        else:
            assert r.value == pytest.approx(ref, rel=NORM_REL)
    assert above > 0 or name != "orlicz"


@settings(max_examples=60, deadline=None)
@given(linf_cases(), st.integers(0, 2 ** 32 - 1))
def test_k_linf_no_split_beats_lower(case, seed):
    # every decomposition, near-optimal ones included, costs at least lower
    t, f, X, Y = case
    a, obj = _objective(t, f, X, Y)
    r = k_numeric(t, f, X, Y)
    rng = np.random.default_rng(seed)
    for _ in range(20):
        c = a * rng.random(a.size)
        near = np.clip(r.split + 1e-3 * a * rng.normal(size=a.size), 0.0, a)
        assert obj(c) >= r.lower * (1 - NORM_REL)
        assert obj(near) >= r.lower * (1 - NORM_REL)


@settings(max_examples=30, deadline=None)
@given(linf_cases())
def test_k_linf_increasing_concave_in_t(case):
    _, f, X, Y = case
    ts = np.geomspace(1.0 / 64, 64.0, 13)
    ks = np.array([k_numeric(t, f, X, Y).value for t in ts])
    # each value is within tol = 1e-8 of K, so allow 1e-7 relative
    assert np.all(np.diff(ks) >= -1e-7 * ks[1:])
    for i in range(1, len(ts) - 1):
        lam = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        chord = (1 - lam) * ks[i - 1] + lam * ks[i + 1]
        assert ks[i] >= chord * (1 - 1e-7)


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_swap_identity(case):
    # K(t, f; L_infty, X) = t K(1/t, f; X, L_infty)
    t, f, X, Y = case
    swapped = k_numeric(t, f, Y, X).value
    assert swapped == pytest.approx(t * k_numeric(1.0 / t, f, X, Y).value, rel=1e-12)


@settings(max_examples=60, deadline=None)
@given(linf_cases())
def test_k_linf_norm_evaluations_bounded(case):
    t, f, X, Y = case
    rows = [0]
    side = kfunc._side

    def counting_side(space, template):
        nrm, form = side(space, template)

        def counted(V):
            rows[0] += len(V)
            return nrm(V)
        return counted, form

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kfunc, "_side", counting_side)
        k_numeric(t, f, X, Y)
    a = np.abs(f.vals if isinstance(f, StepFunction) else f.values)
    levels = np.unique((a / _linf_scale(f, X, Y)[0])[a > 0])
    assert rows[0] <= levels.size + 80


LINF_SEQ_X = {"dyadic_lp(2)": dyadic_lp(2, SEQ_WIN), "dyadic_lp(1.5)": dyadic_lp(1.5, SEQ_WIN),
              "modular": OrliczModular(pwpower(2, 3), SEQ_WIN)}


@pytest.mark.parametrize("spec", sorted(LINF_SEQ))
def test_k_linf_weighted_takes_no_descent(spec, rng):
    # every weighted ell_infty, in either order, takes the level scan
    def no_descent(*args):
        raise AssertionError("coordinate descent against a weighted ell_infty")

    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kfunc, "_k_descent", no_descent)
        for _ in range(2):
            f = random_seqvec(rng, SEQ_WIN, k=6, scale_sigma=1.0)
            for X in LINF_SEQ_X.values():
                for A, B in ((X, LINF_SEQ[spec]), (LINF_SEQ[spec], X)):
                    r = k_numeric(0.7, f, A, B)
                    assert r.lower <= r.value and r.value - r.lower <= 1e-8 * r.value


FORM_X = {"L2": LpSpace(2), "L3": LpSpace(3), "L1.5": LpSpace(1.5),
          "lorentz": LorentzSpace(2, PowerWeight(0.5)), "orlicz-power": OrliczSpace(power(2)),
          "dyadic_lp(2)": dyadic_lp(2, SEQ_WIN), "dyadic_lp(1.5)": dyadic_lp(1.5, SEQ_WIN)}


@pytest.mark.parametrize("name", sorted(FORM_X))
def test_k_form_side_takes_no_golden_step(name, rng):
    # a weighted-lp side against L_infty or any weighted ell_infty, in
    # either order, takes the segment rule: no golden step, lower within
    # 1e-12 of value, and after the level scan at most one batch per t (the
    # root, or the two ends of Newton's last bracket)
    X = FORM_X[name]
    calls = []
    side = kfunc._side

    def counting_side(space, template):
        nrm, form = side(space, template)

        def counted(V):
            calls.append(len(V))
            return nrm(V)
        return counted, form

    def no_golden(*args):
        raise AssertionError("golden-section step on a weighted-lp side")

    ts = [0.05, 0.3, 0.7, 1.5, 3.0]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kfunc, "_side", counting_side)
        mp.setattr(kfunc, "_golden_steps", no_golden)
        for _ in range(3):
            xs = random_seqvec(rng, SEQ_WIN, k=6, scale_sigma=1.0)
            cases = [(xs, Z) for Z in LINF_SEQ.values()]
            if not isinstance(X, SeqSpaceSpec):
                cases += [(xs.to_step(), LINF), (random_step(rng), LINF)]
            for f, Z in cases:
                a = np.abs(f.values if isinstance(f, SeqVec) else f.vals)
                for A, B in ((X, Z), (Z, X)):
                    calls.clear()
                    for r in kfunc._k_grid(ts, f, A, B):
                        assert r.lower <= r.value and r.value - r.lower <= 1e-12 * r.value
                    # the level scan (one batch: 0 and every level), then the
                    # rows of the roots; the ell_infty side takes no row
                    assert calls[0] <= np.count_nonzero(a) + 1
                    assert len(calls) <= 1 + len(ts) and all(n <= 2 for n in calls[1:])


def test_k_induced_linf_is_k_seq_linf_bit_for_bit(rng):
    # E of L_infty has ell_infty's form, so K takes the same steps on it
    for _ in range(3):
        f = random_seqvec(rng, SEQ_WIN, k=6, scale_sigma=1.0)
        for X in (*LINF_X.values(), *LINF_SEQ_X.values()):
            for t in (0.05, 0.7, 3.0):
                for swap in (False, True):
                    runs = [(Y, X) if swap else (X, Y) for Y in
                            (LINF_SEQ["seq:induced:<linf>"], LINF_SEQ["seq:linf"])]
                    induced, plain = (_fields(k_numeric(t, f, *c)) for c in runs)
                    assert induced == plain


def test_k_numeric_rejects_a_window_mismatch():
    f = SeqVec(Window("Z-", -8, -1), np.linspace(0.5, 2.0, 8))
    other = Window("Z", -4, 3)
    with pytest.raises(UsageError, match=r"^window mismatch: seq:lpw:p=1 is on Z\[-4,3\], "
                                         r"the vector on Z-\[-8,-1\]$"):
        k_numeric(1.0, f, dyadic_lp(1, other), dyadic_lp(2, other))
    with pytest.raises(UsageError, match=r"^window mismatch: seq:lpw:p=2 is on Z\[-4,3\], "
                                         r"the vector on Z-\[-8,-1\]$"):
        k_numeric(1.0, f, dyadic_lp(1, f.window), dyadic_lp(2, other))
    assert k_numeric(1.0, f, dyadic_lp(1, f.window), dyadic_lp(2, f.window)).value > 0


# ---------------------------------------------------------------------------
# the exact path for couples with an L1-type side
# ---------------------------------------------------------------------------

L1_WIN = Window("Z", -3, 3)
# small integer weights give levels a_i / c_i that tie up to rounding
_WEIGHTS = st.lists(st.one_of(st.sampled_from([1.0, 2.0, 4.0]),
                              st.floats(-2.0, 2.0).map(math.exp)),
                    min_size=L1_WIN.size, max_size=L1_WIN.size)


def test_k_l1_weighted_reproducer():
    # coordinate descent stalled at 0.4999999999203 on this couple; the
    # split x = (1 - 1/sqrt(12), 0) costs 1/4 + sqrt(3)/8
    w = Window("Z", 0, 1)
    X = WeightedLp(1, w, weights=[0.25, 0.25])
    Y = WeightedLp(2, w, weights=[0.5, 0.25])
    f = SeqVec(w, np.array([1.0, 1.0]))
    for r in (k_numeric(1.0, f, X, Y), k_numeric(1.0, f, Y, X)):
        assert r.value == pytest.approx(0.25 + math.sqrt(3.0) / 8.0, rel=1e-15)
        assert r.lower == r.value and r.converged


@st.composite
def l1_cases(draw):
    """(t, f, X, Y, u, v, p, l1_first): weighted ell_1 (weights u) and ell_p
    (weights v) on a small window, in either order, and a sparse f."""
    p = draw(st.sampled_from([1.0, 1.01, 1.5, 2.0, 3.0, math.inf]))
    u, v = np.array(draw(_WEIGHTS)), np.array(draw(_WEIGHTS))
    vals = np.array(draw(st.lists(_LEVELS, min_size=L1_WIN.size, max_size=L1_WIN.size)))
    if not np.any(vals):
        vals[0] = 1.0
    t = 2.0 ** draw(st.floats(-6.0, 6.0))
    X, Y = WeightedLp(1, L1_WIN, weights=u), WeightedLp(p, L1_WIN, weights=v)
    l1_first = draw(st.booleans())
    if not l1_first:
        X, Y = Y, X
    return t, SeqVec(L1_WIN, vals), X, Y, u, v, p, l1_first


@settings(max_examples=100, deadline=None)
@given(l1_cases(), st.integers(0, 2 ** 32 - 1))
def test_k_l1_exact(case, seed):
    t, f, X, Y, u, v, p, l1_first = case
    a = f.values
    r = k_numeric(t, f, X, Y)
    assert r.lower == r.value and r.converged

    def costs(C):
        """||x||_X + t ||a - x||_Y for each row x of C."""
        return X.norm_rows(C) + t * Y.norm_rows(a - C)

    assert costs(r.split[None])[0] == pytest.approx(r.value, rel=NORM_REL)
    bar = r.value * (1 - NORM_REL)
    rng = np.random.default_rng(seed)
    assert np.all(costs(a * rng.random((40, a.size))) >= bar)
    if p == 1.0:  # K = sum min(u_i, t v_i) a_i, or its mirror
        exact = np.sum(np.minimum(u, t * v) * a) if l1_first else \
            t * np.sum(np.minimum(u, v / t) * a)
        assert r.value == pytest.approx(float(exact), rel=NORM_REL)
        return
    assert np.all(_kkt_grid_costs(t, a, X, Y, u, v, p, l1_first) >= bar)


def _kkt_grid_costs(t, a, X, Y, u, v, p, l1_first):
    """||x||_X + t ||a - x||_Y over the KKT family y = min(a, theta c) (y the
    ell_p part) on a dense grid of log theta around the levels a / c."""
    lc = -np.log(v) if math.isinf(p) else (np.log(u) - p * np.log(v)) / (p - 1.0)
    lb = np.log(a[a > 0]) - lc[a > 0]
    grid = np.linspace(lb.min() - 4.0, lb.max() + 1.0, 4000)[:, None]
    with np.errstate(over="ignore"):  # near p = 1 a far level's theta c is inf, min(a, inf) = a
        lp_parts = np.vstack([np.zeros(a.size), np.minimum(a, np.exp(grid + lc))])
    C = a - lp_parts if l1_first else lp_parts
    return X.norm_rows(C) + t * Y.norm_rows(a - C)


@pytest.mark.parametrize("t, u, v, a, p", [
    (0.6831802941756706, [4, 2, 3, 4, 1, 2, 4], [2, 4, 4, 2, 4, 4, 2],
     [2, 0.5, 0, 0, 0.02456074843325192, 14.37798659885624, 0], 3.0),
    (3.3963890474534226, [1, 2, 2, 3, 1, 1, 4], [1, 1, 1, 2, 1, 2, 1],
     [1, 2, 1, 1, 3.6386252047676244, 0.5, 0.06445870967677839], 3.0),
])
def test_k_l1_levels_tied_up_to_rounding(t, u, v, a, p):
    # two levels a_i / c_i a few ulps apart: the best of them may round to
    # either side, and the minimiser can lie past the other one
    u, v, a = (np.array(z, dtype=float) for z in (u, v, a))
    X, Y = WeightedLp(1, L1_WIN, weights=u), WeightedLp(p, L1_WIN, weights=v)
    for l1_first in (True, False):
        A, B, s = (X, Y, t) if l1_first else (Y, X, 1.0 / t)
        r = k_numeric(s, SeqVec(L1_WIN, a), A, B)
        costs = _kkt_grid_costs(s, a, A, B, u, v, p, l1_first)
        assert np.all(costs >= r.value * (1 - NORM_REL))


@pytest.mark.parametrize("t", [0.5, 0.99, 1.5])
def test_k_l1_p_near_one(t):
    # c = (u / v^p)^(1/(p-1)) spans a factor e^800 here, beyond any double
    w = Window("Z", 0, 1)
    X = WeightedLp(1, w, weights=[1.0, 1.0])
    Y = WeightedLp(1.01, w, weights=[1.0, math.exp(-8.0)])
    a = np.array([1.0, 1.0])
    r = k_numeric(t, SeqVec(w, a), X, Y)
    g = np.linspace(0.0, 1.0, 401)
    C = np.stack(np.meshgrid(g, g), axis=-1).reshape(-1, 2)
    brute = float(np.min(X.norm_rows(C) + t * Y.norm_rows(a - C)))
    assert brute * (1 - 1e-3) <= r.value <= brute * (1 + NORM_REL)


@settings(max_examples=30, deadline=None)
@given(l1_cases())
def test_k_l1_increasing_concave_in_t(case):
    _, f, X, Y, *_ = case
    ts = np.geomspace(1.0 / 64, 64.0, 13)
    ks = np.array([k_numeric(t, f, X, Y).value for t in ts])
    assert np.all(np.diff(ks) >= -NORM_REL * ks[1:])
    for i in range(1, len(ts) - 1):
        lam = (ts[i] - ts[i - 1]) / (ts[i + 1] - ts[i - 1])
        chord = (1 - lam) * ks[i - 1] + lam * ks[i + 1]
        assert ks[i] >= chord * (1 - NORM_REL)


@pytest.mark.parametrize("p", [1.0, 1.5, 2.0, 3.0, math.inf])
def test_k_l1_lp_step_equals_dyadic_sequence(rng, p):
    # the (L1, Lp) problem on the step function of a sequence is the
    # (dyadic ell_1, dyadic ell_p) problem on the sequence, in both orders
    win = Window("Z-", -16, -1)
    X, EX, Y, EY = LpSpace(1), dyadic_lp(1, win), LpSpace(p), dyadic_lp(p, win)
    for _ in range(4):
        xs = random_seqvec(rng, win, k=5, scale_sigma=1.0)
        f = xs.to_step()
        for t in (0.05, 0.4, 1.0, 3.0, 12.0):
            assert k_numeric(t, f, X, Y).value == pytest.approx(
                k_numeric(t, xs, EX, EY).value, rel=1e-12)
            assert k_numeric(t, f, Y, X).value == pytest.approx(
                k_numeric(t, xs, EY, EX).value, rel=1e-12)


def test_k_l1_reversed_linf_is_certified():
    # a reversal of ell_infty is ell_infty: the same exact K, lower = value
    win = Window("Z-", -16, -1)
    f = SeqVec(win, np.exp(np.random.default_rng(0).normal(size=win.size)))
    X = dyadic_lp(1, win)
    plain = k_numeric(0.7, f, X, parse_seq_space("seq:linf", win))
    rev = k_numeric(0.7, f, X, parse_seq_space("rev:<seq:linf>", win))
    assert rev.value == plain.value
    assert rev.lower == rev.value and plain.lower == plain.value


@pytest.mark.parametrize("spec", ["orlicz:gen=<power:p=2>", "lorentz:p=2,w=pow:0.5",
                                  "orlicz:gen=<pwpower:p0=2,p1=2>"])
def test_k_l1_of_exact_lp_spaces_is_k_l1_l2(spec, rng):
    # the Orlicz space of x^2 and the Lorentz space with weight t^(1/2) are
    # L_2: their K against L1 takes the exact route, lower = value, and
    # equals K(L1, L2)
    X = parse_any_space(spec)
    for _ in range(3):
        f = random_step(rng)
        for t in (0.05, 0.7, 3.0):
            r, ref = k_numeric(t, f, LpSpace(1), X), k_numeric(t, f, LpSpace(1), LpSpace(2))
            assert r.lower == r.value and r.converged
            assert r.value == pytest.approx(ref.value, rel=1e-12, abs=0.0)


L1_TYPE_COUPLES = (
    [("lp:p=1", other) for other in ("lp:p=1", "lp:p=1.5", "lp:p=2", "lp:p=3", "linf",
                                     "orlicz:gen=<power:p=2>",
                                     "lorentz:p=3,w=pow:0.3333333333333333")]
    + [("seq:lpw:p=1", other) for other in ("seq:lpw:p=1", "seq:lpw:p=1.5",
                                            "seq:lpw:p=2", "seq:lpw:p=3",
                                            "seq:lpw:p=1,wexp=0.3", "seq:linf",
                                            "rev:<seq:linf>",
                                            "seq:orlicz-modular:gen=<power:p=2>",
                                            "rev:<seq:orlicz-modular:gen=<power:p=3>>")])


@pytest.mark.parametrize("spec_x, spec_y", L1_TYPE_COUPLES)
def test_k_l1_takes_no_golden_step(spec_x, spec_y, rng):
    # no golden section and no coordinate descent on an L1-type couple, and
    # at most one row per level plus four per norm
    win = Window("Z-", -12, -1)
    X, Y = (parse_any_space(s, window=win) for s in (spec_x, spec_y))
    rows = {}
    side = kfunc._side

    def counting_side(space, template):
        nrm, form = side(space, template)

        def counted(V):
            rows[id(space)] = rows.get(id(space), 0) + len(V)
            return nrm(V)
        return counted, form

    def no_golden(*args):
        raise AssertionError("golden-section step on an L1-type couple")

    xs = random_seqvec(rng, win, k=6, scale_sigma=1.0)
    fs = [xs] if spec_x.startswith("seq") else [xs.to_step(), random_step(rng)]
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(kfunc, "_side", counting_side)
        mp.setattr(kfunc, "_golden_steps", no_golden)
        for f in fs:
            a = np.abs(f.values if isinstance(f, SeqVec) else f.vals)
            for t in (0.05, 0.7, 3.0):
                for A, B in ((X, Y), (Y, X)):
                    rows.clear()
                    r = k_numeric(t, f, A, B)
                    assert r.lower == r.value and r.converged
                    assert max(rows.values()) <= np.count_nonzero(a) + 4


# ---------------------------------------------------------------------------
# the K engine over a t-grid
# ---------------------------------------------------------------------------

GRID_WIN = Window("Z-", -6, -1)
LORENTZ = LorentzSpace(2, PowerWeight(0.5))
# one couple per route: the L1-type path at p = 1, 1 < p < inf and p = inf
# (and swapped), the L_infty path in both orientations, and descent
GRID_COUPLES = {
    "l1-p1": (L1, LpSpace(1)), "l1-p2": (L1, LpSpace(2)), "l1-pinf": (L1, LINF),
    "p3-l1": (LpSpace(3), L1), "linf-y": (LpSpace(2), LINF),
    "linf-x": (LINF, LpSpace(2)), "descent": (LORENTZ, LpSpace(2)),
}


def _fields(r):
    return (r.t, r.value, r.lower, r.x_mass, r.y_mass, r.sweeps, r.converged,
            r.split.tobytes())


@st.composite
def grid_cases(draw):
    name = draw(st.sampled_from(sorted(GRID_COUPLES) + ["descent-seq"]))
    vals = draw(st.lists(st.one_of(st.just(0.0), st.floats(0.05, 4.0)),
                         min_size=GRID_WIN.size, max_size=GRID_WIN.size))
    if name == "descent-seq":
        # a sequence adds the prefix and suffix splits to descent's trials
        f, (X, Y) = SeqVec(GRID_WIN, vals), GRID_COUPLES["descent"]
    else:
        n = draw(st.integers(2, 5))
        cuts = draw(st.lists(st.floats(0.01, 0.99), min_size=n - 1, max_size=n - 1,
                             unique=True))
        f = StepFunction("unit", (0.0, *sorted(cuts), 1.0), tuple(vals[:n]))
        X, Y = GRID_COUPLES[name]
    ts = draw(st.lists(st.floats(-5.0, 5.0).map(lambda e: 2.0 ** e), min_size=1,
                       max_size=4, unique=True))
    return sorted(ts), f, X, Y


@settings(max_examples=40, deadline=None)
@given(grid_cases())
def test_k_grid_equals_k_numeric_per_t(case):
    ts, f, X, Y = case
    grid = kfunc._k_grid(ts, f, X, Y)
    assert [_fields(r) for r in grid] == [_fields(k_numeric(t, f, X, Y)) for t in ts]
    assert [row["K"] for row in k_profile(f, X, Y, ts)] == [r.value for r in grid]


def test_k_rejects_non_finite_values():
    f = StepFunction("unit", (0.0, 0.25, 0.5, 1.0), (1.0, math.nan, 2.0))
    with pytest.raises(UsageError, match=r"^f has a non-finite value nan at piece "
                                         r"\[0\.25, 0\.5\)$"):
        k_numeric(1.0, f, L1, LINF)
    x = SeqVec(GRID_WIN, [0.0, 1.0, math.inf, 0.0, -math.inf, 1.0])
    with pytest.raises(UsageError, match="^f has a non-finite value inf at index -4$"):
        k_profile(x, dyadic_lp(1, GRID_WIN), LinftySeq(GRID_WIN), [0.5, 1.0])


def _reference_block_estimate(t, x, E, F, fit):
    """The split ||x_(-inf,a]||_E + t ||x_(a,inf)||_F from single norms."""
    rho = fit.rho
    ns = sorted(rho)

    def split(a):
        return E.norm(x.prefix(a)) + t * F.norm(x.suffix(a + 1))

    if t < min(rho.values()):
        return t * F.norm(x)
    if t > max(rho.values()):
        return E.norm(x)
    cands = [a for a in ns[:-1] if rho[a] <= t <= rho[a + 1]]
    if not cands:
        cands = [min(ns[:-1], key=lambda a: abs(math.log(t) - math.log(rho[a])))]
    return min(split(a) for a in cands)


@pytest.mark.parametrize("make_F", [LinftySeq, lambda w: dyadic_lp(2, w),
                                    lambda w: OrliczModular(pwpower(2.0, 3.0), w)],
                         ids=["linf", "l2", "orlicz"])
def test_block_estimate_equals_the_split_of_single_norms(rng, make_F):
    win = Window("Z", -8, 8)
    E, F = dyadic_lp(1, win), make_F(win)
    fit = fit_separation(rho_profile(E, F, win))
    assert fit.separated
    rhos = sorted(fit.rho.values())
    ts = rhos + list(np.geomspace(rhos[0] / 2, rhos[-1] * 2, 15))
    for _ in range(4):
        x = random_seqvec(rng, win, k=6, scale_sigma=1.5)
        for t in ts:
            assert k_block_estimate(t, x, E, F, fit) == _reference_block_estimate(
                t, x, E, F, fit)


def test_block_estimate_rejects_bad_t():
    win, E, F, fit = _couple()
    for t in (0.0, -1.0, math.nan, math.inf):
        with pytest.raises(ValueError, match="finite t > 0"):
            k_block_estimate(t, SeqVec.basis(win, 0), E, F, fit)
