"""Named golden cases: values that must not move between commits unless a
change means them to.

Each case is a named list of floats computed from seeds recorded in
``manifest.json`` beside this file, and stored there as ``repr`` strings:
- ``modular:<window>:<gen>``: 24 seeded sparse rows per zoo generator,
  normed as ``OrliczModular`` on Z-[-64, -1] and on Z[-12, 12];
- ``modular-wide:<E>``: 96 seeded sparse rows normed in one batch, wide
  enough that the Luxemburg solver keeps its Newton state in arrays, by the
  Orlicz modulars of example1, minimal, brudnyi G and logfactor and the
  b^n-weighted modular of example1 (b = sqrt 2), all on Z-[-64, -1];
- ``orlicz-space:<gen>``: 24 seeded step functions with random breakpoints
  and zeros in place, normed as ``OrliczSpace``;
- ``k-linf:<gen>:value`` and ``k-linf:<gen>:lower``: ``kfunc._k_grid``
  against L_infty on a 4-point t-grid, for 3 seeded step functions;
- ``k-route:<couple>:{value,lower,x_mass,y_mass}``: ``kfunc._k_grid`` on the
  same t-grid for one couple per K route, 3 seeded step functions each:
  the level path with an L1 side ((L1,Linf), (L1,L2)) and swapped ((L2,L1)),
  the path against L_infty in both orientations ((L2,Linf), (Linf,L2)) and
  descent ((L2,L3)); ``l2,l3-seq`` is descent on 3 seeded sequences, where
  the prefix and suffix splits join the trials, and on the same kind of
  sequences a dyadic ell_2 meets a weighted ell_infty (weights 2^(0.3 n)) in
  both orders (``l2,wlinf-seq``, ``wlinf,l2-seq``) and the induced E of
  L_infty, ell_infty's form on the dyadic blocks (``l2,induced-linf-seq``);
- ``lorentz:pow:0.3``: ``LorentzSpace`` rows of order 1.5 with the power
  weight t^0.3, and ``fromseq:<E>``: ``FromSequenceSpace`` rows over a dyadic
  ell_2 and an Orlicz modular, each on 3 seeded step functions with 8 rows of
  values apiece, ties and zeros in place;
- ``norming:<E>``: the norming functionals of 40 seeded signed rows on the
  support of each row, from one ``norm_rows(V, grad=True)`` call, for the
  Orlicz modulars of example1, pwpower(2, 3), minimal and power(2), the
  b^n-weighted modular of example1 (b = sqrt 2), the reversed modular of
  pwpower(1.5, 3), the dyadic ell_2 and the weighted ell_infty 2^(0.3 n),
  all on Z-[-24, -1];
- ``unit-norms:<E>``: ``unit_norms()`` of the same spaces and of the induced
  E of the Lorentz space of order 1.5 with weight t^0.3, which has no
  weighted-lp form;
- ``kappa:<E>``: ``kappa_estimate`` (its six bounds and estimates, then
  ``table`` and ``table_ub`` by shift) of the dyadic ell_2 and the modular
  of example1 on Z-[-64, -1] (budget 400, seed 0), and of the modular of
  example1 weighted by 100^n on Z-[-24, -1] (budget 200, seed 0).

``tests/test_golden.py`` recomputes every case bit for bit;
``python tests/golden/regen.py`` rewrites the manifest.
"""

from __future__ import annotations

import json
import math
import platform
from pathlib import Path

import numpy as np

from couplekit import (FromSequenceSpace, GeometricWeighted, InducedSeq, LorentzSpace, LpSpace,
                       MinimalFn, OrderReversed, OrliczModular, OrliczSpace, PowerWeight, SeqVec,
                       StepFunction, WeightedLp, Window, brudnyi_pair, dyadic_lp,
                       elastic_non_lorentz, example1, kappa_estimate, linf_space, logfactor_fn,
                       power, pwpower)
from couplekit.kfunc import _k_grid

MANIFEST = Path(__file__).with_name("manifest.json")
ROWS = 24
WIDE_ROWS = 96
K_FUNCTIONS = 3
WINDOWS = {"Z-[-64,-1]": ("Z-", -64, -1), "Z[-12,12]": ("Z", -12, 12)}
K_SEQ_WINDOW = Window("Z-", -8, -1)
K_FIELDS = ("value", "lower", "x_mass", "y_mass")
FROMSEQ_WINDOW = Window("Z-", -16, -1)
ROWS_PER_STEP = 8
ROW_WINDOW = Window("Z-", -24, -1)
NORMING_ROWS = 40
KAPPA_FIELDS = ("plus_lb", "plus_est", "minus_lb", "minus_est", "plus_ub", "minus_ub")


def rearrangement_spaces() -> dict:
    """The spaces normed through f*: name -> (seed stream, function space).
    Stream 1 belonged to a retired case, so the others keep their values."""
    seqs = {"l2": dyadic_lp(2, FROMSEQ_WINDOW),
            "modular-example1": OrliczModular(example1(), FROMSEQ_WINDOW)}
    return {"lorentz:pow:0.3": (0, LorentzSpace(1.5, PowerWeight(0.3))),
            **{f"fromseq:{name}": (i, FromSequenceSpace(E))
               for i, (name, E) in enumerate(seqs.items(), 2)}}


def k_couples() -> dict:
    """One couple per K route: name -> (X, Y, seeded vector maker)."""
    L1, L2, L3, Linf = LpSpace(1), LpSpace(2), LpSpace(3), linf_space()
    fn = {"L1,Linf": (L1, Linf), "L1,L2": (L1, L2), "L2,L1": (L2, L1),
          "L2,Linf": (L2, Linf), "Linf,L2": (Linf, L2), "L2,L3": (L2, L3)}
    out = {name: (X, Y, lambda rng: _step(rng, False)) for name, (X, Y) in fn.items()}
    l2, wlinf = dyadic_lp(2, K_SEQ_WINDOW), WeightedLp(math.inf, K_SEQ_WINDOW, wexp=0.3)
    out["l2,l3-seq"] = (l2, dyadic_lp(3, K_SEQ_WINDOW), _seq)
    out["l2,wlinf-seq"] = (l2, wlinf, _seq)
    out["wlinf,l2-seq"] = (wlinf, l2, _seq)
    out["l2,induced-linf-seq"] = (l2, InducedSeq(Linf, K_SEQ_WINDOW), _seq)
    return out


def row_spaces() -> dict:
    """The spaces of the ``norming`` cases, on ROW_WINDOW: name -> sequence space."""
    win = ROW_WINDOW
    gens = {"example1": example1(), "pwpower": pwpower(2.0, 3.0), "minimal": MinimalFn(0.05),
            "power": power(2.0)}
    out = {f"modular-{name}": OrliczModular(F, win) for name, F in gens.items()}
    out["geometric-modular-example1"] = GeometricWeighted(OrliczModular(example1(), win), 2 ** 0.5)
    out["reversed-modular-pwpower"] = OrderReversed(OrliczModular(pwpower(1.5, 3.0),
                                                                  win.reversed()))
    out["l2"] = dyadic_lp(2, win)
    out["wlinf"] = WeightedLp(math.inf, win, wexp=0.3)
    return out


def wide_spaces() -> dict:
    """The spaces of the ``modular-wide`` cases: name -> sequence space."""
    win = Window("Z-", -64, -1)
    gens = {"example1": example1(), "minimal": MinimalFn(0.05),
            "brudnyi-G": brudnyi_pair(1.5, 3.0)[1], "logfactor": logfactor_fn(1.5)}
    out = {name: OrliczModular(F, win) for name, F in gens.items()}
    out["geometric-example1"] = GeometricWeighted(OrliczModular(example1(), win), 2 ** 0.5)
    return out


def kappa_spaces() -> dict:
    """The spaces of the ``kappa`` cases: name -> (sequence space, budget)."""
    win = Window("Z-", -64, -1)
    return {"l2": (dyadic_lp(2, win), 400),
            "modular-example1": (OrliczModular(example1(), win), 400),
            "geometric-100-modular-example1": (
                GeometricWeighted(OrliczModular(example1(), ROW_WINDOW), 100.0), 200)}


def zoo() -> dict:
    """A fresh instance of each zoo generator, so no memo carries over."""
    bf, bg = brudnyi_pair(1.5, 3.0)
    return {"power": power(2.0), "pwpower": pwpower(1.5, 3.0),
            "logfactor": logfactor_fn(1.5), "example1": example1(),
            "elastic-nl": elastic_non_lorentz(), "brudnyi-F": bf, "brudnyi-G": bg,
            "minimal": MinimalFn(0.05)}


def versions() -> dict:
    return {"python": platform.python_version(), "numpy": np.__version__}


def _sparse_rows(rng, size: int, rows: int = ROWS) -> np.ndarray:
    """``rows`` rows of 1 to size // 3 log-normal entries at random places."""
    V = np.zeros((rows, size))
    for row in V:
        idx = rng.choice(size, size=int(rng.integers(1, max(2, size // 3))), replace=False)
        row[idx] = np.exp(rng.normal(0.0, 2.0, size=idx.size))
    return V


def _step(rng, zeros: bool) -> StepFunction:
    """A step function on [0, 1] with 2-16 pieces at random breakpoints,
    a third of its values zero when ``zeros``."""
    n = int(rng.integers(2, 17))
    bp = np.unique(np.concatenate([[0.0], rng.uniform(0.0, 1.0, n - 1), [1.0]]))
    vals = np.exp(rng.normal(0.0, 2.0, bp.size - 1))
    if zeros:
        vals[rng.random(vals.size) < 1 / 3] = 0.0
    return StepFunction("unit", tuple(bp.tolist()), tuple(vals.tolist()))


def _tied_rows(rng, pieces: int) -> np.ndarray:
    """ROWS_PER_STEP rows of values drawn from 3 log-normal levels, so that
    rows hold ties, a third of their values zero."""
    levels = np.exp(rng.normal(0.0, 2.0, 3))
    V = levels[rng.integers(0, 3, (ROWS_PER_STEP, pieces))]
    V[rng.random(V.shape) < 1 / 3] = 0.0
    return V


def _signed_rows(rng, size: int) -> np.ndarray:
    """NORMING_ROWS rows of 1 to size // 3 log-normal entries of random sign
    at random places."""
    V = np.zeros((NORMING_ROWS, size))
    for row in V:
        idx = rng.choice(size, size=int(rng.integers(1, max(2, size // 3))), replace=False)
        row[idx] = np.exp(rng.normal(0.0, 2.0, idx.size)) * rng.choice([-1.0, 1.0], idx.size)
    return V


def _seq(rng) -> SeqVec:
    """A vector on K_SEQ_WINDOW with log-normal values, a third of them zero."""
    vals = np.exp(rng.normal(0.0, 2.0, K_SEQ_WINDOW.size))
    vals[rng.random(vals.size) < 1 / 3] = 0.0
    return SeqVec(K_SEQ_WINDOW, vals)


def compute(seeds: dict, t_grid: list) -> dict[str, list[float]]:
    """Every case from the recorded seeds: name -> list of floats."""
    cases = {}
    for i, (name, F) in enumerate(zoo().items()):
        for j, (label, (kind, lo, hi)) in enumerate(WINDOWS.items()):
            E = OrliczModular(F, Window(kind, lo, hi))
            rng = np.random.default_rng([seeds["modular"], i, j])
            cases[f"modular:{label}:{name}"] = E.norm_rows(_sparse_rows(rng, E.window.size)).tolist()
        X = OrliczSpace(F)
        rng = np.random.default_rng([seeds["step"], i])
        cases[f"orlicz-space:{name}"] = [X.fn_norm(_step(rng, True)) for _ in range(ROWS)]
        rng = np.random.default_rng([seeds["k"], i])
        ks = [r for _ in range(K_FUNCTIONS)
              for r in _k_grid(t_grid, _step(rng, False), X, linf_space())]
        cases[f"k-linf:{name}:value"] = [r.value for r in ks]
        cases[f"k-linf:{name}:lower"] = [r.lower for r in ks]
    for i, (name, E) in enumerate(wide_spaces().items()):
        V = _sparse_rows(np.random.default_rng([seeds["modular-wide"], i]), E.window.size,
                         WIDE_ROWS)
        cases[f"modular-wide:{name}"] = E.norm_rows(V).tolist()
    for i, (name, (X, Y, make)) in enumerate(k_couples().items()):
        rng = np.random.default_rng([seeds["k-route"], i])
        ks = [r for _ in range(K_FUNCTIONS) for r in _k_grid(t_grid, make(rng), X, Y)]
        for key in K_FIELDS:
            cases[f"k-route:{name}:{key}"] = [getattr(r, key) for r in ks]
    for name, (i, X) in rearrangement_spaces().items():
        rng = np.random.default_rng([seeds["rearrangement"], i])
        cases[name] = []
        for _ in range(K_FUNCTIONS):
            f = _step(rng, False)
            cases[name] += X.norm_rows_on(f)(_tied_rows(rng, len(f.values))).tolist()
    units = {**row_spaces(),
             "induced-lorentz-pow": InducedSeq(LorentzSpace(1.5, PowerWeight(0.3)), ROW_WINDOW)}
    for i, (name, E) in enumerate(row_spaces().items()):
        V = _signed_rows(np.random.default_rng([seeds["norming"], i]), E.window.size)
        cases[f"norming:{name}"] = E.norm_rows(V, grad=True)[1][V != 0.0].tolist()
    for name, E in units.items():
        cases[f"unit-norms:{name}"] = E.unit_norms().tolist()
    for name, (E, budget) in kappa_spaces().items():
        est = kappa_estimate(E, budget, 0)
        values = ([getattr(est, key) for key in KAPPA_FIELDS]
                  + [est.table[n] for n in sorted(est.table)]
                  + [est.table_ub[n] for n in sorted(est.table_ub)])
        cases[f"kappa:{name}"] = [float(v) for v in values]
    return cases


def load() -> dict:
    return json.loads(MANIFEST.read_text())


def stored(manifest: dict) -> dict[str, list[float]]:
    return {name: [float(v) for v in vals] for name, vals in manifest["cases"].items()}


def dump(manifest: dict, cases: dict[str, list[float]]) -> None:
    out = {**manifest, **versions(),
           "cases": {name: [repr(v) for v in vals] for name, vals in cases.items()}}
    MANIFEST.write_text(json.dumps(out, indent=1) + "\n")


def moved(old: dict[str, list[float]], new: dict[str, list[float]]) -> list[tuple]:
    """(name, values moved, values, largest relative move) per case that moved;
    a case added or dropped counts every value."""
    out = []
    for name in sorted(old.keys() | new.keys()):
        a, b = old.get(name), new.get(name)
        if a is None or b is None or len(a) != len(b):
            out.append((name, len(a or b), len(a or b), float("inf")))
            continue
        diff = [(x, y) for x, y in zip(a, b) if repr(x) != repr(y)]
        if diff:
            rel = max(abs(y - x) / max(abs(x), abs(y)) if x != y else float("inf")
                      for x, y in diff)
            out.append((name, len(diff), len(a), rel))
    return out
