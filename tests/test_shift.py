import json
import math

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import couplekit.ascent as ascent
import couplekit.kappa as kappa
import couplekit.orlicz as orlicz
from couplekit import (GeometricWeighted, InterlacedFamily, LinftySeq,
                       OrderReversed, OrliczModular, SeqVec, ShiftWitness,
                       UsageError, WeightedLp, Window, dyadic_lp, example1,
                       family_ratio, gen_interlaced, parse_seq_space, parse_space,
                       power, replay_witness, shift_constant_estimate,
                       shift_schedule)
from couplekit.ascent import ACCEPT_REL, STOP_BUDGET, STOP_TARGET, STOP_UPPER
from couplekit.shift import BLOCK_LEN_RANGE, RESTARTS_PER_FAMILY, _ratios
from conftest import count_solver_kernel

WIN = Window("Z", -12, 12)


def test_gen_interlaced_structure(rng):
    E = dyadic_lp(2, WIN)
    fam = gen_interlaced(E, WIN, 4, (1, 3), seed=5)
    fam.validate(E)
    assert fam.X.shape == fam.Y.shape == (4, WIN.size)
    for x, y in zip(fam.X, fam.Y):
        assert E.norm(SeqVec(WIN, x)) == pytest.approx(1.0, abs=1e-10)
        assert E.norm(SeqVec(WIN, y)) <= 1.0 + 1e-10


def test_gen_interlaced_single_pair():
    E = dyadic_lp(1, WIN)
    fam = gen_interlaced(E, WIN, 1, (1, 1), seed=0)
    (sx,), (sy,) = np.flatnonzero(fam.X[0]), np.flatnonzero(fam.Y[0])
    assert sx < sy


def test_gen_interlaced_infeasible():
    small = Window("Z", 0, 3)
    with pytest.raises(UsageError):
        gen_interlaced(dyadic_lp(1, small), small, 4, (2, 2), seed=0)


def test_interlaced_validation_catches_overlap():
    x = SeqVec.from_entries(WIN, {0: 1.0})
    y = SeqVec.from_entries(WIN, {0: 1.0})
    with pytest.raises(ValueError):
        InterlacedFamily(WIN, [x.values], [y.values]).validate()


@pytest.mark.parametrize("p", [1.0, 2.0, 4.0])
def test_weighted_lp_rsp_constant_is_one(p, rng):
    # exact algebra: disjoint supports make the p-sums split
    w = rng.uniform(0.5, 2.0, WIN.size)
    E = WeightedLp(p, WIN, weights=w)
    est = shift_constant_estimate(E, "rsp", budget=1200, seed=3)
    assert est.c_hat <= 1.0 + 1e-6
    est2 = shift_constant_estimate(E, "lsp", budget=1200, seed=3)
    assert est2.c_hat <= 1.0 + 1e-6


class _Unbounded(WeightedLp):
    """The same weighted ell_p without its form, so without its certified
    bound: the search's path for a space that gives none."""

    def weighted_lp_form(self):
        return None

    def reversed_space(self):
        return _Unbounded(self.p, self.window.reversed(), weights=self.weights[::-1].copy())


class _UnboundedModular(OrliczModular):
    """The modular space without its form, so without its certified bound;
    its reversal is the weighted ell_p the space with a form reverses to,
    without its bound."""

    def weighted_lp_form(self):
        return None

    def reversed_space(self):
        R = OrliczModular(self.F, self.window).reversed_space()
        return _Unbounded(R.p, R.window, weights=R.weights)


def _power_modular(p, win, chain, exact=True):
    """The modular space of x^p on ``win``, reversed and/or b^n-weighted per
    ``chain`` (a reversal or b^n weights fold it into a ``WeightedLp``);
    ``exact=False`` is the same space without its certified bound."""
    E = OrliczModular(power(p), win)
    if chain in ("weighted", "both"):
        E = GeometricWeighted(E, 2 ** 0.5)
    if chain in ("reversed", "both"):
        E = OrderReversed(E)
    if exact:
        return E
    if type(E) is WeightedLp:
        return _Unbounded(E.p, E.window, weights=E.weights)
    return _UnboundedModular(E.F, E.window)


@settings(max_examples=100, deadline=None)
@given(p=st.sampled_from([1.0, 1.5, 2.0, 4.0, math.inf]), kind=st.sampled_from(["Z", "Z-"]),
       size=st.integers(8, 40), side=st.sampled_from(["rsp", "lsp"]),
       budget=st.integers(1, 3000), incumbent=st.integers(0, 40),
       seed=st.integers(0, 2 ** 16),
       space=st.sampled_from(["lpw", "plain", "reversed", "weighted", "both"]))
def test_weighted_lp_search_stops_on_its_bound(p, kind, size, side, budget, incumbent, seed,
                                               space):
    # stopping on the bound 1 is the plain search with target 1 / (1 + ACCEPT_REL),
    # on a weighted ell_p and on the modular space of a power, reversed and/or
    # b^n-weighted
    w = np.random.default_rng(seed).lognormal(0.0, 1.0, size)
    win = Window("Z", -(size // 2), size - size // 2 - 1) if kind == "Z" else \
        Window("Z-", -size, -1)
    if space == "lpw":
        E, plain = WeightedLp(p, win, weights=w), _Unbounded(p, win, weights=w)
    else:
        p = 1.0 if math.isinf(p) else p
        E, plain = (_power_modular(p, win, space, exact) for exact in (True, False))
    pairs = (1, 4)  # a window of 8 packs one pair of blocks up to 3 long
    inc = None
    if incumbent:  # a short earlier search's witness, or none
        inc = shift_constant_estimate(E, side, budget=incumbent, seed=seed + 1,
                                      n_pairs_range=pairs)
    est = shift_constant_estimate(E, side, budget=budget, seed=seed, incumbent=inc,
                                  n_pairs_range=pairs)
    ref = shift_constant_estimate(plain, side, budget=budget, seed=seed, incumbent=inc,
                                  n_pairs_range=pairs, target=1 / (1 + ACCEPT_REL))
    assert (est.c_hat, est.evals, est.upper, ref.upper) == (ref.c_hat, ref.evals, 1.0, None)
    assert json.dumps(est.witness.to_json_dict()) == json.dumps(ref.witness.to_json_dict())
    assert est.evals <= budget
    assert est.stop == (STOP_UPPER if est.c_hat >= 1 / (1 + ACCEPT_REL) else STOP_BUDGET)
    assert est.c_hat <= 1 + 1e-13
    assert replay_witness(E, est.witness) == est.c_hat


def test_linf_constant_is_one():
    est = shift_constant_estimate(LinftySeq(WIN), "rsp", budget=800, seed=2)
    assert est.c_hat == pytest.approx(1.0, abs=1e-9)


def test_duality_spot_check():
    # E = lp(w): Chat_RSP(E*) = Chat_LSP(E) = 1 with E* = lp'(1/w)
    p = 2.0
    w = 2.0 ** (WIN.indices() / p)
    E = WeightedLp(p, WIN, weights=w)
    Estar = WeightedLp(2.0, WIN, weights=1.0 / w)
    for side, space in (("rsp", Estar), ("lsp", E)):
        est = shift_constant_estimate(space, side, budget=800, seed=4)
        assert est.c_hat <= 1.0 + 1e-6


def test_monotone_incumbent():
    win = Window("Z-", -32, -1)
    E = OrliczModular(example1(), win)
    est1 = shift_constant_estimate(E, "rsp", budget=600, seed=9)
    est2 = shift_constant_estimate(E, "rsp", budget=1800, seed=10, incumbent=est1)
    assert est2.c_hat >= est1.c_hat - 1e-12


def test_incumbent_embeds_into_wider_window():
    def factory(width):
        win = Window("Z-", -width, -1)
        return OrliczModular(example1(), win)

    est = shift_schedule(factory, "rsp", [16, 32], budget=500, seed=1)
    assert len(est.history) == 2
    assert est.history[1]["c_hat"] >= est.history[0]["c_hat"] - 1e-12


def test_lsp_is_rsp_of_reversal():
    win = Window("Z-", -24, -1)
    E = OrliczModular(example1(), win)
    a = shift_constant_estimate(E, "lsp", budget=700, seed=6)
    b = shift_constant_estimate(OrderReversed(E), "rsp", budget=700, seed=6)
    assert a.c_hat == pytest.approx(b.c_hat, rel=1e-12)


def test_prop22_split_mechanism(rng):
    # a two-sided witness ratio is controlled by its half-window sub-family
    # ratios: r_Z <= r_- + r_+ + 1
    win = Window("Z", -10, 10)
    E = GeometricWeighted(OrliczModular(example1(), Window("Z", -10, 10)), 1.3)
    est = shift_constant_estimate(E, "rsp", budget=1500, seed=12)
    w = est.witness
    assert w is not None
    fam, alpha = w.family, np.asarray(w.alpha)
    r_full = family_ratio(E, fam, alpha)
    # split at the pair crossing 0
    neg = [i for i, y in enumerate(fam.Y) if np.flatnonzero(y).max() + win.lo < 0]
    pos = [i for i, x in enumerate(fam.X) if np.flatnonzero(x).min() + win.lo >= 0]
    r_minus = family_ratio(E, InterlacedFamily(win, fam.X[neg], fam.Y[neg]),
                           alpha[neg]) if neg else 0.0
    r_plus = family_ratio(E, InterlacedFamily(win, fam.X[pos], fam.Y[pos]),
                          alpha[pos]) if pos else 0.0
    assert r_full <= r_minus + r_plus + 1.0 + 1e-9


def test_witness_json_replay():
    win = Window("Z-", -32, -1)
    E = OrliczModular(example1(), win)
    est = shift_constant_estimate(E, "rsp", budget=900, seed=8)
    blob = json.dumps(est.witness.to_json_dict())
    back = ShiftWitness.from_json_dict(json.loads(blob))
    assert replay_witness(E, back) == pytest.approx(est.c_hat, rel=1e-12)


def test_witness_replays_from_its_own_spec(rng):
    # the witness names the searched space, explicit weights included; an LSP
    # witness holds its family on the order reversal of the space's window
    win = Window("Z", -8, 8)
    E = WeightedLp(2, win, weights=np.exp(rng.normal(0.0, 1.0, win.size)))
    est = shift_constant_estimate(E, "lsp", budget=300, seed=4)
    back = ShiftWitness.from_json_dict(json.loads(json.dumps(est.witness.to_json_dict())))
    E_back = parse_seq_space(back.space_spec, back.window.reversed())
    assert replay_witness(E_back, back) == replay_witness(E, est.witness)
    with pytest.raises(UsageError, match=r"^window mismatch: .* is on Z\[-8,8\], "
                                         r"the family on Z\[-9,7\]$"):
        replay_witness(parse_seq_space(back.space_spec, back.window), back)


def _overlap_first_pair(d):
    pair = d["family"]["pairs"][0]
    pair["y"][max(pair["x"], key=int)] = 0.5


def _double_first_x(d):
    pair = d["family"]["pairs"][0]
    pair["x"] = {k: 2.0 * v for k, v in pair["x"].items()}


def _nan_in_second_y(d):
    # a witness with a NaN entry once replayed to a NaN ratio
    pair = d["family"]["pairs"][1]
    pair["y"][next(iter(pair["y"]))] = math.nan


@pytest.mark.parametrize("tamper, error, match", [
    (lambda d: d["alpha"].pop(), UsageError, r"alpha has [0-9]+ entries for [0-9]+ pairs"),
    (lambda d: d["family"].update(pairs=[]), UsageError, "empty family"),
    (lambda d: d.update(side="sideways"), UsageError,
     "side must be 'rsp' or 'lsp'; got 'sideways'"),
    (_overlap_first_pair, ValueError, "supports are not strictly interlaced"),
    (_double_first_x, ValueError, "x block is not normalized"),
    (lambda d: d.update(window={"kind": "Z-", "lo": -40, "hi": -1}), UsageError,
     r"witness window Z-\[-40,-1\] does not match its family's window Z\[-13,11\]"),
    (_nan_in_second_y, UsageError, "pair 1 of the family has a non-finite entry"),
], ids=["alpha-count", "empty-family", "side", "overlap", "x-scaled", "window", "nan"])
def test_tampered_witness_does_not_replay(tamper, error, match):
    # a replayed witness is validated: a family that is not admissible in the
    # replay space certifies nothing
    E = dyadic_lp(2, WIN)
    d = shift_constant_estimate(E, "lsp", budget=200, seed=3).witness.to_json_dict()
    tamper(d)
    with pytest.raises(error, match=match):
        replay_witness(E, ShiftWitness.from_json_dict(json.loads(json.dumps(d))))


@settings(max_examples=40, deadline=None)
@given(kind=st.sampled_from(["lpw", "linf", "modular"]), n=st.integers(1, 4),
       seed=st.integers(0, 2 ** 16), data=st.data())
def test_family_json_round_trip_and_validation(kind, n, seed, data):
    win = Window("Z-", -24, -1)
    E = {"lpw": lambda: WeightedLp(2.0, win, wexp=0.3), "linf": lambda: LinftySeq(win),
         "modular": MODULAR}[kind]()
    fam = gen_interlaced(E, win, n, BLOCK_LEN_RANGE, rng=np.random.default_rng(seed))
    text = json.dumps(fam.to_json_dict())
    back = InterlacedFamily.from_json_dict(json.loads(text))
    assert np.array_equal(back.X, fam.X) and np.array_equal(back.Y, fam.Y)
    assert json.dumps(back.to_json_dict()) == text
    back.validate(E)

    def rejects(X, Y, error, match, window=win):
        with pytest.raises(error, match=match):
            InterlacedFamily(window, X, Y).validate(E)

    X, Y = fam.X.copy(), fam.Y.copy()
    rejects(X[:0], Y[:0], UsageError, "empty family")
    rejects(X, Y, UsageError, r"^window mismatch: .* is on Z-\[-24,-1\], "
            r"the family on Z\[-25,-2\]$", Window("Z", win.lo - 1, win.hi - 1))
    # the blocks in support order x_1, y_1, x_2, ...: block j + 1 reaches
    # into block j, or block j is empty
    B = np.stack((X, Y), axis=1).reshape(2 * n, win.size)
    j = data.draw(st.integers(0, 2 * n - 2))
    C = B.copy()
    C[j + 1, np.flatnonzero(B[j])[-1]] = 0.5
    rejects(C[0::2], C[1::2], ValueError, "supports are not strictly interlaced")
    C = B.copy()
    C[data.draw(st.integers(0, 2 * n - 1))] = 0.0
    rejects(C[0::2], C[1::2], ValueError, "empty block in interlaced family")
    i = data.draw(st.integers(0, n - 1))
    scale = data.draw(st.sampled_from([0.5, 1.0 - 1e-8, 1.0 + 1e-8, 2.0]))
    X[i] *= scale
    rejects(X, fam.Y, ValueError, "x block is not normalized")
    Y[i] *= (1.0 + 1e-8) / E.norm(SeqVec(win, Y[i]))
    rejects(fam.X, Y, ValueError, "y block norm exceeds 1")


def test_inelastic_modular_space_has_witness():
    # the weighted Orlicz modular space built on the oscillating generator
    # admits interlaced ratios well above 1 (lower bound certified by search)
    win = Window("Z-", -64, -1)
    E = GeometricWeighted(OrliczModular(example1(), win), 2.0 ** 0.5)
    est = shift_constant_estimate(E, "rsp", budget=8000, seed=0,
                                  n_pairs_range=(3, 10), target=1.3)
    assert est.c_hat >= 1.3
    assert replay_witness(E, est.witness) == pytest.approx(est.c_hat, rel=1e-12)


def test_stop_reason_budget():
    E = OrliczModular(example1(), Window("Z-", -24, -1))
    est = shift_constant_estimate(E, "rsp", budget=300, seed=2)
    assert (est.stop, est.evals, est.upper) == (STOP_BUDGET, 300, None)
    high = shift_constant_estimate(E, "rsp", budget=300, seed=2, target=50.0)
    assert (high.stop, high.evals) == (STOP_BUDGET, 300)
    # a weighted ell_p has the certified bound 1, which ends the search first
    E = dyadic_lp(2, WIN)
    for target in (None, 50.0):
        est = shift_constant_estimate(E, "rsp", budget=300, seed=2, target=target)
        assert (est.stop, est.upper) == (STOP_UPPER, 1.0) and est.evals < 300


def test_stop_reason_target():
    E = dyadic_lp(2, WIN)
    est = shift_constant_estimate(E, "rsp", budget=300, seed=2, target=0.5)
    assert est.stop == STOP_TARGET and est.c_hat >= 0.5 and est.evals < 300


@pytest.mark.parametrize("target", [math.nan, 0.0, -1.0], ids=["nan", "zero", "negative"])
def test_target_not_above_zero_is_usage_error(target):
    # a NaN target would run the whole budget and then report the stop "upper"
    E = OrliczModular(example1(), Window("Z-", -24, -1))
    with pytest.raises(UsageError, match="target must be a number > 0"):
        shift_constant_estimate(E, "rsp", budget=50, seed=0, target=target)
    with pytest.raises(UsageError, match="target must be a number > 0"):
        shift_schedule(lambda w: OrliczModular(example1(), Window("Z-", -w, -1)), "rsp",
                       [12, 24], budget=50, seed=0, target=target)


def test_schedule_stop_reason():
    def factory(width):
        return dyadic_lp(2, Window("Z-", -width, -1))

    hit = shift_schedule(factory, "rsp", [12, 24], budget=200, seed=1, target=0.5)
    assert hit.stop == STOP_TARGET and len(hit.history) == 1
    # the first stage meets the weighted ell_p's bound 1, which ends the schedule
    miss = shift_schedule(factory, "rsp", [12, 24], budget=200, seed=1, target=50.0)
    assert miss.stop == STOP_UPPER and len(miss.history) == 1
    miss = shift_schedule(lambda width: OrliczModular(example1(), Window("Z-", -width, -1)),
                          "rsp", [12, 24], budget=200, seed=1, target=50.0)
    assert miss.stop == STOP_BUDGET and len(miss.history) == 2


def test_schedule_on_a_weighted_lp_stops_after_its_first_stage():
    widths = [16, 32, 64]
    est = shift_schedule(lambda w: dyadic_lp(2, Window("Z-", -w, -1)), "rsp", widths,
                         budget=1500, seed=7)
    first = shift_constant_estimate(dyadic_lp(2, Window("Z-", -16, -1)), "rsp", budget=1500,
                                    seed=7)
    assert est.history == [{"width": 16, "c_hat": first.c_hat}]
    assert (est.stop, est.evals) == (STOP_UPPER, first.evals)
    # a space without a bound runs every stage
    orlicz = shift_schedule(lambda w: OrliczModular(example1(), Window("Z-", -w, -1)), "rsp",
                            widths, budget=30, seed=7)
    assert orlicz.stop == STOP_BUDGET and [h["width"] for h in orlicz.history] == widths


@pytest.mark.parametrize("make", [
    lambda w: dyadic_lp(2, w),
    lambda w: _power_modular(2.0, w, "plain"),
    lambda w: OrliczModular(example1(), w),
], ids=["lpw", "power-modular", "orlicz"])
@pytest.mark.parametrize("side", ["rsp", "lsp"])
def test_incumbent_at_the_level_costs_one_eval(make, side):
    # an incumbent that meets the target, or the space's bound, ends the
    # search before it draws a family: one eval, the incumbent's witness
    narrow, wide = Window("Z-", -16, -1), Window("Z-", -32, -1)
    first = shift_constant_estimate(make(narrow), side, budget=400, seed=3)
    E = make(wide)
    targets = [first.c_hat / 2] + ([None] if E.shift_upper() is not None else [])
    for target in targets:
        est = shift_constant_estimate(E, side, budget=400, seed=4, incumbent=first,
                                      target=target)
        assert est.evals == 1
        assert est.stop == (STOP_UPPER if target is None else STOP_TARGET)
        assert est.witness.alpha == first.witness.alpha
        assert est.c_hat == est.witness.ratio == replay_witness(E, est.witness)
        # the same blocks, padded into the wider window
        assert est.witness.family.to_json_dict()["pairs"] == \
            first.witness.family.to_json_dict()["pairs"]


def test_schedule_needs_a_width():
    with pytest.raises(UsageError, match="at least one width"):
        shift_schedule(lambda w: dyadic_lp(2, Window("Z-", -w, -1)), "rsp", [],
                       budget=10, seed=0)


def _sequential_search(E, side, budget, seed, n_pairs_range=(2, 6), incumbent=None,
                       target=None):
    """The trial-by-trial ascent: one ratio, two ``norm_values`` calls, per trial.
    It stops at ``target`` or at the searched space's certified bound, tested
    on the incumbent and after each restart."""
    work = E if side == "rsp" else E.reversed_space()
    win = work.window
    rng = np.random.default_rng(seed)
    upper = work.shift_upper()
    bound = None if upper is None else upper / (1 + ACCEPT_REL)
    level = min((t for t in (target, bound) if t is not None), default=None)

    def ratio(X, Y, alpha):
        den = work.norm_values(alpha @ X)
        return 0.0 if den == 0.0 else work.norm_values(alpha @ Y) / den

    best_ratio, best, evals, done = 0.0, None, 0, False
    if incumbent is not None:
        old = incumbent.witness.family

        def embed(A):
            return [SeqVec.from_entries(win, SeqVec(old.window, v).entries()).values for v in A]

        fam = InterlacedFamily(win, embed(old.X), embed(old.Y))
        alpha = list(incumbent.witness.alpha)
        best_ratio, best = ratio(fam.X, fam.Y, np.asarray(alpha)), (fam, alpha)
        evals += 1
        done = level is not None and best_ratio >= level
    n_lo, n_hi = n_pairs_range
    n_hi = min(n_hi, max(n_lo, win.size // (2 * BLOCK_LEN_RANGE[1])))
    while evals < budget and not done:
        fam = gen_interlaced(work, win, int(rng.integers(n_lo, n_hi + 1)),
                             BLOCK_LEN_RANGE, rng=rng)
        X, Y = fam.X, fam.Y
        for _ in range(RESTARTS_PER_FAMILY):
            if evals >= budget or done:
                break
            alpha = np.exp(rng.normal(0.0, 1.5, size=len(X)))
            r = ratio(X, Y, alpha)
            evals += 1
            improved = True
            while improved and evals < budget:
                improved = False
                for i in range(alpha.size):
                    for factor in (4.0, 0.25):
                        trial = alpha.copy()
                        trial[i] *= factor
                        r2 = ratio(X, Y, trial)
                        evals += 1
                        if r2 > r * (1 + 1e-12):
                            r, alpha = r2, trial
                            improved = True
                        if evals >= budget:
                            break
                    if evals >= budget:
                        break
            if r > best_ratio:
                best_ratio, best = r, (fam, [float(a) for a in alpha])
            if level is not None and best_ratio >= level:
                done = True
    witness = None if best is None else ShiftWitness(
        E.spec_string(), side, win, best[0], [float(a) for a in best[1]], float(best_ratio), seed)
    stop = STOP_BUDGET
    if level is not None and best_ratio >= level:
        stop = STOP_TARGET if target is not None and best_ratio >= target else STOP_UPPER
    return float(best_ratio), evals, witness, stop


def _assert_same_search(E, side, budget, seed, pairs, incumbent=None, target=None):
    est = shift_constant_estimate(E, side, budget=budget, seed=seed, n_pairs_range=pairs,
                                  incumbent=incumbent, target=target)
    c_hat, evals, witness, stop = _sequential_search(E, side, budget, seed, pairs,
                                                     incumbent, target)
    assert (est.c_hat, est.evals, est.stop) == (c_hat, evals, stop)
    assert json.dumps(None if est.witness is None else est.witness.to_json_dict()) == \
        json.dumps(None if witness is None else witness.to_json_dict())
    if est.witness is not None:
        assert replay_witness(E, est.witness) == est.c_hat
    return est


@pytest.mark.parametrize("make, side, budget, seed, pairs", [
    (lambda: WeightedLp(2.0, WIN, weights=np.exp(np.linspace(-1.0, 1.5, WIN.size))),
     "rsp", 400, 5, (2, 6)),
    (lambda: WeightedLp(1.0, WIN, wexp=-0.4), "lsp", 300, 6, (2, 6)),
    (lambda: LinftySeq(WIN), "rsp", 200, 7, (2, 6)),
    (lambda: OrliczModular(example1(), Window("Z-", -32, -1)), "rsp", 300, 8, (2, 6)),
    (lambda: GeometricWeighted(OrliczModular(example1(), Window("Z-", -64, -1)), 2 ** 0.5),
     "lsp", 200, 9, (3, 10)),
])
def test_batched_search_equals_sequential_ascent(make, side, budget, seed, pairs):
    E = make()
    est = _assert_same_search(E, side, budget, seed, pairs)
    # a weighted ell_p stops on its certified bound 1, any other space on the budget
    assert est.stop == (STOP_BUDGET if E.shift_upper() is None else STOP_UPPER)


def MODULAR():
    return GeometricWeighted(OrliczModular(example1(), Window("Z-", -24, -1)), 2 ** 0.5)


@pytest.mark.parametrize("make, side, budget, seed", [
    (lambda: WeightedLp(1.0, WIN, wexp=-0.4), "lsp", 900, 6),
    (lambda: WeightedLp(1.0, WIN, wexp=-0.4), "rsp", 900, 1),
    (lambda: LinftySeq(WIN), "rsp", 300, 3),
    (MODULAR, "rsp", 400, 4),
    (MODULAR, "lsp", 400, 6),
])
def test_search_with_target_and_incumbent_equals_sequential_ascent(make, side, budget, seed):
    # the target is the plain search's C-hat: the search stops on the restart
    # that first reaches it, inside a wave of several for the lsp cases
    E = make()
    target = shift_constant_estimate(E, side, budget=budget, seed=seed,
                                     n_pairs_range=(2, 4)).c_hat
    est = _assert_same_search(E, side, budget, seed, (2, 4), target=target)
    assert est.stop == STOP_TARGET
    first = _assert_same_search(E, side, budget // 4, seed + 100, (2, 4))
    _assert_same_search(E, side, budget, seed, (2, 4), incumbent=first)
    _assert_same_search(E, side, budget, seed, (2, 4), incumbent=first, target=target)


@settings(max_examples=40, deadline=None)
# budgets that cut a restart after an accepting one in the same wave
@example(kind="modular", n=3, cut=60, side="rsp", seed=0)
@example(kind="modular", n=2, cut=200, side="lsp", seed=1)
@example(kind="modular", n=2, cut=500, side="rsp", seed=2)
# budgets that cut the second lane of a wave of 2: after 2 steps, before its
# first accept (step 4), and after 4, on that accept (the next is step 10),
# each cut state the best ratio so far; after 44 steps, past its last accept
# (step 42)
@example(kind="modular", n=3, cut=101, side="lsp", seed=1)
@example(kind="modular", n=3, cut=103, side="lsp", seed=1)
@example(kind="modular", n=3, cut=65, side="rsp", seed=0)
@given(kind=st.sampled_from(["lpw", "linf", "modular"]), n=st.integers(1, 4),
       cut=st.one_of(st.sampled_from(["1", "2n", "2n+1", "2n+2"]), st.integers(1, 500)),
       side=st.sampled_from(["rsp", "lsp"]), seed=st.integers(0, 2 ** 16))
def test_budget_cutting_a_wave_equals_sequential_ascent(kind, n, cut, side, seed):
    # a restart costs 1 + 2n evals without accepts: these budgets cut the
    # first restart, or a later one inside a wave of several
    win = Window("Z-", -24, -1)
    E = {"lpw": lambda: WeightedLp(2.0, win, wexp=0.3), "linf": lambda: LinftySeq(win),
         "modular": MODULAR}[kind]()
    budget = {"1": 1, "2n": 2 * n, "2n+1": 2 * n + 1, "2n+2": 2 * n + 2}.get(cut, cut)
    _assert_same_search(E, side, budget, seed, (n, n))


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["lpw", "linf", "modular"]), n=st.integers(1, 4),
       lanes=st.integers(1, 4), known=st.booleans(), sweeps=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_accept_log_equals_a_capped_lane(kind, n, lanes, known, sweeps, seed):
    # a lane run alone with cap c <= consumed ends at its log's last entry at
    # or before c, which is how a budget cuts a restart of a wave
    win = Window("Z-", -24, -1)
    E = {"lpw": lambda: WeightedLp(2.0, win, wexp=0.3), "linf": lambda: LinftySeq(win),
         "modular": MODULAR}[kind]()
    rng = np.random.default_rng(seed)
    fam = gen_interlaced(E, win, n, BLOCK_LEN_RANGE, rng=rng)
    X, Y = fam.X, fam.Y
    coords, factors = np.repeat(np.arange(n), 2), np.tile([4.0, 0.25], n)
    starts = np.exp(rng.normal(0.0, 1.5, size=(lanes, n)))
    rs = _ratios(E, X, Y, starts).tolist() if known else [None] * lanes

    def run(lanes):
        return ascent._ascend_steps(lambda A: _ratios(E, X, Y, A), lanes, 1e-12, sweeps)

    out = run([[a, r, coords, factors, int(c)]
               for a, r, c in zip(starts, rs, rng.integers(1, 30, size=lanes))])
    for a, r0, (r, alpha, used, log) in zip(starts, rs, out):
        assert log[0][0] == 0 and (r0 is None or log[0][1] == r0)
        assert log[-1][1] == r and np.array_equal(log[-1][2], alpha)
        for c in range(used + 1):
            (r1, alpha1, used1, _), = run([[a, r0, coords, factors, c]])
            _, r2, alpha2 = [e for e in log if e[0] <= c][-1]
            assert (r1, used1) == (r2, c) and np.array_equal(alpha1, alpha2)


@settings(max_examples=30, deadline=None)
@given(kind=st.sampled_from(["lpw", "linf", "modular"]), n=st.integers(1, 4),
       lanes=st.integers(1, 4), known=st.booleans(), sweeps=st.booleans(),
       seed=st.integers(0, 2 ** 16))
def test_no_row_for_a_step_back_before_the_latest_accept(kind, n, lanes, known, sweeps,
                                                         seed):
    # a step whose trial is the alpha a lane logged before its latest accept
    # is a known reject: from the batch after that accept up to the batch of
    # the lane's next accept, no row equals it
    win = Window("Z-", -24, -1)
    E = {"lpw": lambda: WeightedLp(2.0, win, wexp=0.3), "linf": lambda: LinftySeq(win),
         "modular": MODULAR}[kind]()
    rng = np.random.default_rng(seed)
    fam = gen_interlaced(E, win, n, BLOCK_LEN_RANGE, rng=rng)
    coords, factors = np.repeat(np.arange(n), 2), np.tile([4.0, 0.25], n)
    starts = np.exp(rng.normal(0.0, 1.5, size=(lanes, n)))
    rs = _ratios(E, fam.X, fam.Y, starts).tolist() if known else [None] * lanes
    batches = []

    def ratios(A):
        batches.append(A.copy())
        return _ratios(E, fam.X, fam.Y, A)

    out = ascent._ascend_steps(ratios, [[a, r, coords, factors, int(c)] for a, r, c in
                                        zip(starts, rs, rng.integers(1, 30, size=lanes))],
                               1e-12, sweeps)

    def first_batch(alpha, since):
        return next(b for b in range(since, len(batches))
                    if (batches[b] == alpha).all(axis=1).any())

    for _, _, _, log in out:
        at = [0] + [None] * (len(log) - 1)  # the batch that evaluated each entry
        for i in range(1, len(log)):
            at[i] = first_batch(log[i][2], at[i - 1])
        for i in range(1, len(log)):
            upto = at[i + 1] if i + 1 < len(log) else len(batches) - 1
            for b in range(at[i] + 1, upto + 1):
                assert not (batches[b] == log[i - 1][2]).all(axis=1).any()


def test_budget_below_one_is_a_usage_error():
    for budget in (0, -5):
        with pytest.raises(UsageError, match=f"budget must be at least 1; got {budget}"):
            shift_constant_estimate(dyadic_lp(2, WIN), budget=budget)


@pytest.mark.parametrize("call", [
    lambda E: gen_interlaced(E, WIN, 0, seed=0),
    lambda E: shift_constant_estimate(E, budget=10, n_pairs_range=(0, 0)),
    lambda E: shift_constant_estimate(E, budget=10, n_pairs_range=(5, 2)),
], ids=["gen-zero-pairs", "range-zero", "range-reversed"])
def test_bad_pair_counts_are_usage_errors(call):
    with pytest.raises(UsageError, match=r"n_pairs.*(got 0|\(0, 0\)|\(5, 2\))"):
        call(dyadic_lp(2, WIN))


# work counts of the many-restart searches: restarts run as lanes in growing
# waves, so they are paid in rows, not in ``norm_rows`` calls, and a lane's
# speculation follows its own accepts, so few rows go past an accept


def _norm_rows_counter(monkeypatch, cls):
    rows = []
    norm_rows = cls.norm_rows

    def counted(self, V):
        rows.append(len(V))
        return norm_rows(self, V)

    monkeypatch.setattr(cls, "norm_rows", counted)
    return rows


def test_weighted_lp_search_work(monkeypatch):
    rows = _norm_rows_counter(monkeypatch, WeightedLp)
    est = shift_constant_estimate(dyadic_lp(2, Window("Z", -16, 16)), "rsp", budget=3000,
                                  seed=5)
    # the first restart meets the certified bound 1 after its first sweep:
    # 8 rows to draw the family, 8 to validate it and 18 for 9 ratios; without
    # the bound it ran the whole budget, 3,000 evals in 6,268 rows
    assert (est.evals, est.stop, est.c_hat) == (9, STOP_UPPER, 1.0)
    assert rows == [8, 8, 18]


def test_fromseq_kappa_work(monkeypatch):
    rows = _norm_rows_counter(monkeypatch, OrliczModular)
    ascended = []
    ratios = kappa._shift_ratios

    def counted(space, V, n):
        ascended.append(n)
        return ratios(space, V, n)

    monkeypatch.setattr(kappa, "_shift_ratios", counted)
    X = parse_space("fromseq:<seq:orlicz-modular:gen=<example1>>")
    # one start at a time it took 1,795 calls for 15,656 rows; speculating
    # each lane's whole pass, 84 calls for 15,656 rows; evaluating the steps
    # that undo a lane's latest accept, 92 calls for 12,104 rows, and 92 for
    # 11,602 before the certified bounds.  The unit vectors now reach the
    # bound on every shift but +32, whose bound (263,102.6) stays above its
    # best ratio: only it ascends.  The unit norms are one more call, on the
    # 64 rows of the identity
    assert set(ascended) == {32}
    assert rows[0] == 64 and len(rows) <= 7 and sum(rows) <= 1064
    est = X.kappa
    assert (est.plus_lb, est.plus_est, est.minus_lb, est.minus_est) == (
        1.9476790523738003, 1.5615177337909596, 0.7901038761804398, 0.7881406532672007)
    assert est.table[32] == 170566.81040038797


def test_readme_shift_test_work(monkeypatch):
    calls, steps = [], []
    solve = orlicz._luxemburg_log

    def counted(F, er, ec, la, log_w, beta, *args):
        calls.append(len(beta))
        return solve(F, er, ec, la, log_w, beta, *args)

    monkeypatch.setattr(orlicz, "_luxemburg_log", counted)
    count_solver_kernel(monkeypatch, steps)
    E = parse_seq_space("seq:from:<seq:orlicz-modular:gen=<example1>>,"
                        "weightbase=1.4142135623730951", Window("Z-", -64, -1))
    est = shift_constant_estimate(E, "rsp", budget=20000, seed=11, target=1.5)
    assert (est.evals, est.stop) == (5255, STOP_TARGET)
    # with waves back to one lane after any accept it took 1,427 solver calls
    # for 19,358 rows; with the lanes after the one that reaches the target
    # running on, 257 calls for 17,042 rows; evaluating the steps that undo a
    # lane's latest accept, 232 calls for 14,102 rows.  The solver's Newton
    # iterates do not depend on how a batch keeps its state, so its profile
    # calls are pinned too
    assert (len(calls), sum(calls), len(steps)) == (204, 13030, 1057)


def test_orlicz_budget_60_search_work(monkeypatch):
    rows = _norm_rows_counter(monkeypatch, OrliczModular)
    for seed in range(8):
        E = GeometricWeighted(OrliczModular(example1(), Window("Z-", -64, -1)), 2 ** 0.5)
        est = shift_constant_estimate(E, ("rsp", "lsp")[seed % 2], budget=60, seed=seed,
                                      n_pairs_range=(3, 10))
        assert est.evals == 60
    # speculating each lane's whole sweep it took 3,344 rows; evaluating the
    # steps that undo a lane's latest accept, 242 calls for 1,710 rows
    assert len(rows) <= 223 and sum(rows) <= 1640
