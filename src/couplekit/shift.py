"""Interlaced families and adversarial estimation of shift-property constants.

The right-shift property (RSP) of a sequence space E asks for a uniform C:
for every interlaced pair family (x_n, y_n) with ||y_n|| <= ||x_n|| = 1 and
supp x_1 < supp y_1 < supp x_2 < ..., and all scalars alpha,

    || sum alpha_n y_n || <= C || sum alpha_n x_n ||.

A finite search can only falsify: ``shift_constant_estimate`` returns the
best ratio found (a lower bound on the true constant) together with a
replayable witness.  The vocabulary is therefore "RSP violated with witness
(ratio r)" versus "consistent with RSP up to C-hat at this width".  C-hat is
a ratio computed in floating point, so it can exceed the true constant by a
few ulps (1 + 2.2e-16 on a weighted ell_p); it is reported as computed.  The
left-shift property is evaluated as RSP of the order-reversed space.

Where a theorem fixes the constant, the searched space answers a certified
upper bound (``SeqSpaceSpec.shift_upper()``: 1 on every space with a
``weighted_lp_form()``, exactly a weighted ell_p, whose blocks are disjoint).
The search ends on the stop rule of ``couplekit.ascent`` -- C-hat reaches the
lower of ``target`` and the bound over 1 + ``ascent.ACCEPT_REL``, or
overflows to inf -- tested on the incumbent and after each restart;
``shift_schedule`` ends on the first stage that stops before its budget.

A family is two arrays, ``InterlacedFamily(window, X, Y)``, read alike by the
search, the witness JSON (validated again on replay) and ``rank_one_shift``.
A family's random restarts are lanes of ``ascent._ascend_steps``, one
``norm_rows`` call per round on the stacked numerators and denominators
(exact because the supports are disjoint), run in waves that double.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .ascent import (ACCEPT_REL, STOP_BUDGET, _ascend_steps, stop_level,
                     stop_reason)
from .errors import UsageError, check_budget
from .measure import SeqVec, Window, _sparse
from .spaces import SeqSpaceSpec

RSP = "rsp"
LSP = "lsp"
# random alpha restarts per generated family, and the block-length range of
# the families a search generates
RESTARTS_PER_FAMILY = 20
BLOCK_LEN_RANGE = (1, 3)


@dataclass(eq=False)
class InterlacedFamily:
    """Block pairs (x_n, y_n) with supp x_1 < supp y_1 < supp x_2 < ..., the
    rows of X and Y: read-only C-contiguous (n_pairs, window.size) float
    arrays, so the search's ``A @ X`` is one BLAS product.  ``validate``
    checks the blocks (nonempty, strictly interlaced) and, given E, the
    window and ||x_n||_E = 1, ||y_n||_E <= 1 to ``tol``."""

    window: Window
    X: np.ndarray
    Y: np.ndarray

    def __post_init__(self):
        self.X, self.Y = (np.array(A, dtype=float, order="C") for A in (self.X, self.Y))
        self.X.flags.writeable = self.Y.flags.writeable = False

    def validate(self, E: SeqSpaceSpec | None = None, tol: float = 1e-10):
        if not len(self.X):
            raise UsageError("empty family")
        # the blocks in support order x_1, y_1, x_2, ...
        B = np.stack((self.X, self.Y), axis=1).reshape(-1, self.window.size)
        nz = B != 0.0
        if not np.all(nz.any(axis=1)):
            raise ValueError("empty block in interlaced family")
        first, last = nz.argmax(axis=1), nz.shape[1] - 1 - nz[:, ::-1].argmax(axis=1)
        if np.any(last[:-1] >= first[1:]):
            raise ValueError("supports are not strictly interlaced")
        if E is not None:
            if self.window != E.window:
                raise ValueError("vector window does not match space window")
            norms = E.norm_rows(B)
            if np.any(np.abs(norms[0::2] - 1.0) > tol):
                raise ValueError("x block is not normalized")
            if np.any(norms[1::2] > 1.0 + tol):
                raise ValueError("y block norm exceeds 1")

    def to_json_dict(self):
        return {
            "window": self.window.to_json_dict(),
            "pairs": [{"x": _sparse(self.window, x), "y": _sparse(self.window, y)}
                      for x, y in zip(self.X, self.Y)],
        }

    @staticmethod
    def from_json_dict(d) -> "InterlacedFamily":
        win = Window.from_json_dict(d["window"])
        X, Y = (np.reshape([SeqVec.from_entries(win, p[s]).values for p in d["pairs"]],
                           (-1, win.size)) for s in "xy")
        return InterlacedFamily(win, X, Y)


def gen_interlaced(E: SeqSpaceSpec, window: Window, n_pairs: int,
                   block_len_range=(1, 3), seed: int = 0,
                   rng: np.random.Generator | None = None) -> InterlacedFamily:
    """Random nonnegative interlaced family, normalized per the definition.

    2 * n_pairs blocks are placed in equal-width slots spanning the window
    (random offset and length inside each slot), which guarantees the strict
    support ordering while varying the gaps.  All slots are drawn first and
    then normalized by one ``norm_rows`` call.
    """
    if rng is None:
        rng = np.random.default_rng(seed)
    if n_pairs < 1:
        raise UsageError(f"n_pairs must be at least 1; got {n_pairs}")
    lmin, lmax = block_len_range
    if lmin < 1 or lmax < lmin:
        raise UsageError("invalid block length range")
    slots = 2 * n_pairs
    if window.size < slots * lmax:
        raise UsageError(
            f"window of size {window.size} cannot pack {n_pairs} pairs "
            f"with blocks up to {lmax}")
    slot_w = window.size // slots
    V = np.zeros((slots, window.size))
    for s in range(slots):
        length = int(rng.integers(lmin, lmax + 1))
        start = s * slot_w + int(rng.integers(0, max(1, slot_w - length + 1)))
        V[s, start:start + length] = rng.random(length) + 0.05
    V *= (1.0 / E.norm_rows(V))[:, None]
    fam = InterlacedFamily(window, V[0::2], V[1::2])
    fam.validate(E)
    return fam


def _check_side(side: str):
    if side not in (RSP, LSP):
        raise UsageError(f"side must be '{RSP}' or '{LSP}'; got {side!r}")


@dataclass
class ShiftWitness:
    """A replayable shift witness: the family, alpha and ratio found on
    ``window``, the family's own window (the order reversal of the space's
    window for LSP); a witness whose window differs is a usage error."""

    space_spec: str
    side: str
    window: Window
    family: InterlacedFamily
    alpha: list[float]
    ratio: float
    seed: int

    def __post_init__(self):
        _check_side(self.side)
        if self.window != self.family.window:
            w, f = self.window, self.family.window
            raise UsageError(f"witness window {w.kind}[{w.lo},{w.hi}] does not match "
                             f"its family's window {f.kind}[{f.lo},{f.hi}]")

    def to_json_dict(self):
        return {
            "space": self.space_spec,
            "side": self.side,
            "window": self.window.to_json_dict(),
            "family": self.family.to_json_dict(),
            "alpha": list(self.alpha),
            "ratio": self.ratio,
            "seed": self.seed,
        }

    @staticmethod
    def from_json_dict(d) -> "ShiftWitness":
        return ShiftWitness(d["space"], d["side"],
                            Window.from_json_dict(d["window"]),
                            InterlacedFamily.from_json_dict(d["family"]),
                            [float(a) for a in d["alpha"]],
                            float(d["ratio"]), int(d["seed"]))


@dataclass
class ShiftEstimate:
    """A search's C-hat (the best ratio computed, a lower bound up to a few
    ulps) with its witness, the evaluations it spent, why it stopped (``stop``:
    ``budget``, ``target``, ``upper`` or ``overflow``) and the certified upper bound of the
    searched space (``upper``, None when the space gives none)."""

    c_hat: float
    witness: ShiftWitness | None
    side: str
    evals: int
    budget: int
    history: list[dict] = field(default_factory=list)
    stop: str = STOP_BUDGET
    upper: float | None = None


def _ratios(E: SeqSpaceSpec, X: np.ndarray, Y: np.ndarray, A: np.ndarray) -> np.ndarray:
    """||a Y|| / ||a X|| (0 where ||a X|| = 0) for each row a of A, from one
    ``norm_rows`` call on the stacked A X and A Y."""
    m = A.shape[0]
    norms = E.norm_rows(np.concatenate([A @ X, A @ Y]))
    den = norms[:m]
    return np.divide(norms[m:], den, out=np.zeros(m), where=den != 0.0)


def family_ratio(E: SeqSpaceSpec, family: InterlacedFamily, alpha) -> float:
    """|| sum alpha_n y_n || / || sum alpha_n x_n || in E."""
    if np.shape(alpha) != (len(family.X),):
        raise UsageError(f"alpha has {np.size(alpha)} entries for {len(family.X)} pairs")
    return float(_ratios(E, family.X, family.Y, np.asarray(alpha, dtype=float)[None])[0])


def replay_witness(E: SeqSpaceSpec, witness: ShiftWitness) -> float:
    """Recompute the witness ratio exactly from its family, once the family is
    admissible in the replay space (E's order reversal for LSP)."""
    if witness.side == LSP:
        E = E.reversed_space()
    witness.family.validate(E)
    return family_ratio(E, witness.family, witness.alpha)


def _embed_family(fam: InterlacedFamily, window: Window) -> InterlacedFamily:
    """The family padded into ``window``; an entry outside it is a ValueError."""
    used = fam.window.indices()[np.any(fam.X, axis=0) | np.any(fam.Y, axis=0)]
    if used.size and not window.lo <= used[0] <= used[-1] <= window.hi:
        raise ValueError(f"family entries outside window [{window.lo},{window.hi}]")
    B = np.zeros((2, len(fam.X), window.size))
    B[:, :, used - window.lo] = np.stack((fam.X, fam.Y))[:, :, used - fam.window.lo]
    return InterlacedFamily(window, *B)


def shift_constant_estimate(E: SeqSpaceSpec, side: str = RSP,
                            budget: int = 10000, seed: int = 0,
                            n_pairs_range=(2, 6),
                            incumbent: ShiftEstimate | None = None,
                            target: float | None = None) -> ShiftEstimate:
    """Maximize the interlaced ratio by random families plus coordinate ascent.

    A restart climbs from a random alpha: a sweep tries alpha_i * 4 and then
    alpha_i / 4 for i = 0, 1, ..., each trial built from the current alpha,
    and accepts a trial that beats the ratio by more than
    ``ascent.ACCEPT_REL`` relative; sweeps repeat while one accepts.  Driving
    an alpha_n down to ~0 deselects a useless pair, so large families
    self-prune.  A family's restarts run in doubling waves of lanes of
    ``ascent._ascend_steps``; the budget, the best ratio and the stop are
    replayed in restart order, and a restart the budget cuts ends at the last
    accept its lane logged before the cut, so every result is that of one
    restart after another.  ``budget`` (at least 1) counts ratio evaluations
    (``evals``: the incumbent, a restart's start and the trials it consumes,
    known rejects included, not the speculative rows evaluated past an
    accept).  The search ends once C-hat reaches ``ascent.stop_level``, the
    lower of ``target`` and upper / (1 + ACCEPT_REL), ``upper`` being the
    searched space's ``shift_upper()`` bound, or once it is inf; ``stop``
    says whether it ended on the budget, on ``target``, on ``upper`` or on
    ``overflow``.  The returned C-hat is the
    best ratio computed in floating point, a lower bound for the true shift
    constant up to a few ulps; the incumbent (witness of a previous run,
    possibly on a narrower window) is never discarded, so the estimate is
    monotone in budget and window.  LSP is evaluated as RSP of the
    order-reversed space and the witness is recorded against the original
    space.
    """
    _check_side(side)
    check_budget(budget)
    if target is not None and not target > 0:  # a NaN target compares False
        raise UsageError(f"target must be a number > 0; got {target!r}")
    n_lo, n_hi = n_pairs_range
    if not 1 <= n_lo <= n_hi:
        raise UsageError(f"n_pairs_range must satisfy 1 <= low <= high; got {n_pairs_range}")
    work = E if side == RSP else E.reversed_space()
    win = work.window
    upper = work.shift_upper()
    level = stop_level(target, upper)
    rng = np.random.default_rng(seed)
    best_ratio, best, evals, stop = 0.0, None, 0, STOP_BUDGET
    if incumbent is not None and incumbent.witness is not None:
        fam = _embed_family(incumbent.witness.family, win)
        alpha = list(incumbent.witness.alpha)
        best_ratio, best = family_ratio(work, fam, alpha), (fam, alpha)
        evals, stop = 1, stop_reason(best_ratio, level, target)

    n_hi = min(n_hi, max(n_lo, win.size // (2 * BLOCK_LEN_RANGE[1])))
    wave = 1  # restarts per wave: doubles after every wave
    while evals < budget and stop == STOP_BUDGET:
        n_pairs = int(rng.integers(n_lo, n_hi + 1))
        fam = gen_interlaced(work, win, n_pairs, BLOCK_LEN_RANGE, rng=rng)
        starts = np.exp(rng.normal(0.0, 1.5, size=(RESTARTS_PER_FAMILY, n_pairs)))
        coords, factors = np.repeat(np.arange(n_pairs), 2), np.tile([4.0, 0.25], n_pairs)
        least = 1 + coords.size  # a restart's start plus one full sweep
        i = 0
        while i < RESTARTS_PER_FAMILY and evals < budget and stop == STOP_BUDGET:
            # restart i + j cannot start before i's evals plus j * least:
            # each lane's cap bounds its real one from above
            k = min(wave, RESTARTS_PER_FAMILY - i, (budget - evals - 1) // least + 1)
            lanes = _ascend_steps(
                lambda A: _ratios(work, fam.X, fam.Y, A),
                [[starts[i + j], None, coords, factors, budget - evals - j * least - 1]
                 for j in range(k)], ACCEPT_REL, sweeps=True, reach=level)
            wave = min(2 * wave, RESTARTS_PER_FAMILY)
            for r, alpha, used, log in lanes:
                if evals >= budget or stop != STOP_BUDGET:
                    break
                left = budget - evals - 1
                if used > left:  # the budget cuts this restart: its state after left steps
                    used, (_, r, alpha) = left, [e for e in log if e[0] <= left][-1]
                evals += 1 + used
                i += 1
                if r > best_ratio:
                    best_ratio, best = r, (fam, list(alpha))
                stop = stop_reason(best_ratio, level, target)

    witness = None
    if best is not None:
        witness = ShiftWitness(E.spec_string(), side, win, best[0],
                               [float(a) for a in best[1]], float(best_ratio),
                               seed)
    return ShiftEstimate(float(best_ratio), witness, side, evals, budget,
                         stop=stop, upper=upper)


def shift_schedule(space_factory, side: str, widths, budget: int, seed: int,
                   target: float | None = None, **kwargs) -> ShiftEstimate:
    """Doubling-window search: run each width, carrying the incumbent.

    ``space_factory(width)`` must return the space on the width-sized
    window.  Ends after the first stage that stops before its budget, on
    ``target`` or on the space's bound.  The history records (width, C-hat)
    per stage; ``stop`` is the last stage's reason.  Extra keyword arguments
    go to ``shift_constant_estimate``.
    """
    est = None
    history = []
    for k, width in enumerate(widths):
        E = space_factory(int(width))
        est = shift_constant_estimate(E, side, budget=budget, seed=seed + k,
                                      incumbent=est, target=target, **kwargs)
        history.append({"width": int(width), "c_hat": est.c_hat})
        if est.stop != STOP_BUDGET:
            break
    if est is None:
        raise UsageError("shift_schedule needs at least one width")
    est.history = history
    return est
