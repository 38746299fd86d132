"""The three workloads: seeded task rounds, each task paired with its check.

A workload turns ``(seed, round index)`` into a list of ``Task``s.  ``run``
calls couplekit through its public functions only (``readme-cli`` goes
through ``cli.main``); ``check`` validates the output against the
acceptance suite's frozen tolerances and returns ``True`` when it is right.
Inputs come from ``numpy.random.default_rng((seed, round))`` alone.
"""

from __future__ import annotations

import csv
import json
import math
import os
from dataclasses import dataclass
from typing import Any, Callable

import numpy as np

# frozen tolerances of tests/test_acceptance.py, reused as they are
K_ORACLE_REL = 1e-5        # criterion 1
K_SEQ_FN_REL = 1e-5        # criterion 2
BLOCK_GAP = 1e-9           # criterion 3
WLP_SHIFT_CAP = 1e-6       # criterion 4: c_hat <= 1 + 1e-6
TRANSFER_EXACT = 1e-9      # criterion 6
BOUND_SLACK = 1e-9         # criterion 6: op_norm lower <= certified + 1e-9
REPLAY_REL = 1e-12         # witness replay

SHIFT_BUDGET = 60          # orlicz-shift: same evaluation budget for every search
WLP_BUDGET = 3000          # kfunc-transfer weighted-lp searches
WARMUP_STREAM = 1 << 30    # rng stream of warm-up inputs, apart from every round


@dataclass
class Task:
    kind: str
    run: Callable[[], Any]
    check: Callable[[Any], bool]


class Notes:
    """Values the checks observe, reported by the traced run."""

    def __init__(self):
        self.values: dict[str, float] = {}

    def max(self, key: str, v: float):
        self.values[key] = max(self.values.get(key, 0.0), float(v))

    def add(self, key: str, v: float):
        self.values[key] = self.values.get(key, 0.0) + float(v)


def _close(a: float, b: float, rel: float) -> bool:
    return abs(a - b) <= rel * max(abs(a), abs(b))


def random_step(ck, rng, n_pieces=None, vmax=3.0):
    """Seeded nonnegative step function on [0, 1] with irregular breakpoints."""
    if n_pieces is None:
        n_pieces = int(rng.integers(4, 14))
    cuts = np.sort(rng.uniform(0.0, 1.0, size=n_pieces - 1))
    bp = np.unique(np.concatenate([[0.0], cuts, [1.0]]))
    vals = rng.uniform(0.0, vmax, size=bp.size - 1)
    return ck.StepFunction("unit", tuple(bp), tuple(vals))


def random_seqvec(ck, rng, window, k, scale_sigma=2.0):
    vals = np.zeros(window.size)
    idx = rng.choice(window.size, size=min(k, window.size), replace=False)
    vals[idx] = np.exp(rng.normal(0.0, scale_sigma, size=idx.size))
    return ck.SeqVec(window, vals)


def majorized_pair(ck, rng, E, window, k=None):
    """(x, y) with the prefix E-norms of y below those of x (criterion 6)."""
    x = random_seqvec(ck, rng, window, k or int(rng.integers(3, 9)))
    y = random_seqvec(ck, rng, window, k or int(rng.integers(3, 9)))
    px = np.array([E.norm(x.prefix(int(a))) for a in window.indices()])
    py = np.array([E.norm(y.prefix(int(a))) for a in window.indices()])
    with np.errstate(divide="ignore", invalid="ignore"):
        c = np.nanmin(np.where(py > 0, px / py, np.inf))
    return x, y.scale(0.99 * float(min(c, 1.0)))


def _check_transfer(T, x, y, lows, notes) -> bool:
    err = float(np.max(np.abs(T.apply(x).values - y.values)))
    if err > TRANSFER_EXACT * max(float(np.max(np.abs(y.values))), 1e-300):
        return False
    if any(v < 0.0 for v in T.entries.values()):
        return False
    for label, low in lows.items():
        bound = T.certified_bounds[label]
        if bound > 0:
            notes.max("transfer.bound_ratio_max", low / bound)
        if low > bound + BOUND_SLACK:
            return False
    return True


# ---------------------------------------------------------------------------
# orlicz-shift: fixed-budget RSP/LSP searches on GeometricWeighted(OrliczModular)
# ---------------------------------------------------------------------------


class OrliczShift:
    round_s = 3.3          # nominal round length in seconds (see run.py)
    min_rounds = 1
    widths = (64, 128)
    sides = ("rsp", "lsp")

    def __init__(self, ck, seed, notes, tmp):
        self.ck, self.seed = ck, seed
        F, _ = ck.brudnyi_pair(1.5, 3.0)
        self.fixed = {"example1": ck.example1(), "brudnyi-F": F,
                      "elastic-nl": ck.elastic_non_lorentz(),
                      "minimal": ck.MinimalFn(0.05)}

    def _generator(self, name, rng):
        if name == "pwpower":
            p0 = float(rng.uniform(1.5, 2.5))
            return self.ck.pwpower(p0, p0 + float(rng.uniform(0.5, 1.5)))
        return self.fixed[name]

    def _task(self, name, F, width, side, seed, budget=SHIFT_BUDGET):
        ck = self.ck

        def run():
            win = ck.Window("Z-", -width, -1)
            E = ck.GeometricWeighted(ck.OrliczModular(F, win), 2.0 ** 0.5)
            return E, ck.shift_constant_estimate(E, side, budget=budget, seed=seed,
                                                 n_pairs_range=(3, 10))

        def check(out):
            E, est = out
            if est.evals != budget or est.witness is None:
                return False
            if not (math.isfinite(est.c_hat) and est.c_hat > 0.0):
                return False
            return _close(ck.replay_witness(E, est.witness), est.c_hat, REPLAY_REL)

        return Task(f"shift-{name}-{width}-{side}", run, check)

    def round(self, r):
        rng = np.random.default_rng((self.seed, r))
        tasks = []
        for name in ("example1", "brudnyi-F", "elastic-nl", "minimal", "pwpower"):
            for width in self.widths:
                for side in self.sides:
                    F = self._generator(name, rng)
                    tasks.append(self._task(name, F, width, side,
                                            int(rng.integers(2 ** 31))))
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def warmup(self):
        for name, F in self.fixed.items():
            task = self._task(name, F, 64, "rsp", 0, budget=8)
            task.check(task.run())


# ---------------------------------------------------------------------------
# kfunc-transfer: the acceptance suite's K, block, transfer and weighted-lp
# families, with every norm cheap (no Orlicz kernel)
# ---------------------------------------------------------------------------


class KfuncTransfer:
    round_s = 0.5
    min_rounds = 1

    def __init__(self, ck, seed, notes, tmp):
        self.ck, self.seed, self.notes = ck, seed, notes
        self.L1, self.L2, self.LINF = ck.LpSpace(1), ck.LpSpace(2), ck.linf_space()
        self.lorentz = ck.LorentzSpace(2, ck.PowerWeight(0.5))
        self.seq_win = ck.Window("Z-", -16, -1)
        w = self.seq_win
        self.seq_couples = [
            (self.L1, self.LINF, ck.dyadic_lp(1, w), ck.LinftySeq(w)),
            (self.L1, self.L2, ck.dyadic_lp(1, w), ck.dyadic_lp(2, w)),
            (self.L2, self.LINF, ck.dyadic_lp(2, w), ck.LinftySeq(w)),
        ]
        self.block_win = ck.Window("Z", -24, 0)
        self.block_E = ck.dyadic_lp(1, self.block_win)
        self.block_F = ck.LinftySeq(self.block_win)
        self.block_fit = ck.fit_separation(
            ck.rho_profile(self.block_E, self.block_F, self.block_win))
        self.tr_win = ck.Window("Z", -12, 12)
        self.tr_E = ck.dyadic_lp(1, self.tr_win)
        self.tr_F = ck.LinftySeq(self.tr_win)
        self.tr_fit = ck.fit_separation(
            ck.rho_profile(self.tr_E, self.tr_F, self.tr_win))
        self.wlp_win = ck.Window("Z", -16, 16)

    def k_oracle(self, rng):
        ck, notes = self.ck, self.notes
        f = random_step(ck, rng, n_pieces=8)
        ts = [float(2.0 ** e) for e in rng.choice(np.arange(-8, 5), 3, replace=False)]

        def run():
            return [ck.k_numeric(t, f, self.L1, self.LINF).value for t in ts]

        def check(vals):
            for t, v in zip(ts, vals):
                oracle = ck.k_l1_linf_oracle(t, f)
                err = abs(v - oracle) / oracle
                notes.max("kfunc.oracle_err_max", err)
                if err > K_ORACLE_REL:
                    return False
            return True

        return Task("k-oracle", run, check)

    def k_couple(self, rng, kind, X, Y):
        ck = self.ck
        f = random_step(ck, rng, n_pieces=int(rng.integers(4, 10)))
        t = float(2.0 ** rng.uniform(-4.0, 3.0))

        def run():
            return ck.k_numeric(t, f, X, Y)

        def check(r):
            cap = min(X.fn_norm(f), t * Y.fn_norm(f))
            return 0.0 <= r.lower <= r.value <= cap * (1 + 1e-9) + 1e-12

        return Task(kind, run, check)

    def k_seq_fn(self, rng):
        ck = self.ck
        xs = random_seqvec(ck, rng, self.seq_win, k=5, scale_sigma=1.0)
        X, Y, EX, EY = self.seq_couples[int(rng.integers(3))]
        t = float(rng.choice([0.05, 0.4, 1.0, 3.0, 12.0]))

        def run():
            return (ck.k_numeric(t, xs.to_step(), X, Y).value,
                    ck.k_numeric(t, xs, EX, EY).value)

        def check(out):
            kf, ks = out
            return abs(kf - ks) / max(kf, 1e-300) <= K_SEQ_FN_REL

        return Task("k-seq-fn", run, check)

    def k_block(self, rng):
        ck, win, fit = self.ck, self.block_win, self.block_fit
        k = int(rng.integers(3, 10))
        vals = np.zeros(win.size)
        idx = rng.choice(win.size, k, replace=False)
        vals[idx] = np.exp(rng.normal(0, 2, k))
        x = ck.SeqVec(win, vals)
        lo, hi = min(fit.rho.values()), max(fit.rho.values())
        ts = [float(t) for t in rng.choice(np.geomspace(lo, hi, 13), 3, replace=False)]

        def run():
            return [(ck.k_numeric(t, x, self.block_E, self.block_F).value,
                     ck.k_block_estimate(t, x, self.block_E, self.block_F, fit))
                    for t in ts]

        def check(pairs):
            return all(kv - bv <= BLOCK_GAP for kv, bv in pairs)

        return Task("k-block", run, check)

    def _transfer_task(self, kind, build, x, y, op_seed):
        ck, notes = self.ck, self.notes

        def run():
            T = build()
            lows = {label: ck.op_norm(T, space, "lower", budget=60, seed=op_seed)
                    for label, space in (("E", self.tr_E), ("F", self.tr_F))}
            return T, lows

        def check(out):
            T, lows = out
            return _check_transfer(T, x, y, lows, notes)

        return Task(kind, run, check)

    def majorization(self, rng):
        ck = self.ck
        x, y = majorized_pair(ck, rng, self.tr_E, self.tr_win)
        return self._transfer_task(
            "majorization", lambda: ck.majorization_transfer(x, y, self.tr_E, self.tr_F),
            x, y, int(rng.integers(1000)))

    def k_transfer(self, rng):
        ck, win = self.ck, self.tr_win
        vals = np.zeros(win.size)
        idx = rng.choice(np.arange(1, win.size - 1), size=6, replace=False)
        vals[idx] = rng.random(6) + 0.2
        x = ck.SeqVec(win, vals)
        y = ck.SeqVec(win, float(rng.uniform(0.3, 0.49)) * np.roll(vals, 1))
        return self._transfer_task(
            "k-transfer",
            lambda: ck.k_transfer(x, y, self.tr_E, self.tr_F, self.tr_fit),
            x, y, int(rng.integers(1000)))

    def wlp_shift(self, rng):
        ck = self.ck
        p = float(rng.choice([1.0, 2.0, 4.0]))
        w = np.exp(rng.normal(0.0, 1.0, self.wlp_win.size))
        side = str(rng.choice(["rsp", "lsp"]))
        seed = int(rng.integers(2 ** 31))

        def run():
            E = ck.WeightedLp(p, self.wlp_win, weights=w)
            return E, ck.shift_constant_estimate(E, side, budget=WLP_BUDGET, seed=seed)

        def check(out):
            E, est = out
            if est.c_hat > 1.0 + WLP_SHIFT_CAP or est.witness is None:
                return False
            return _close(ck.replay_witness(E, est.witness), est.c_hat, REPLAY_REL)

        return Task("wlp-shift", run, check)

    def _builders(self):
        return ([self.k_oracle] * 6
                + [lambda g: self.k_couple(g, "k-l2-linf", self.L2, self.LINF)] * 2
                + [lambda g: self.k_couple(g, "k-l1-l2", self.L1, self.L2)] * 2
                + [lambda g: self.k_couple(g, "k-lorentz-linf", self.lorentz, self.LINF)]
                + [self.k_seq_fn] * 3 + [self.k_block] * 3
                + [self.majorization] * 3 + [self.k_transfer] * 2
                + [self.wlp_shift] * 3)

    def round(self, r):
        """One task: a pass over every acceptance family, 25 seeded instances.

        Single instances last 2-130 ms, and their speeds follow the host's
        speed swings by different amounts, so a median over single
        instances jumped with whichever kind sat in the middle; a whole
        pass weighs the kinds the way the run's throughput does.
        """
        rng = np.random.default_rng((self.seed, r))
        parts = [build(rng) for build in self._builders()]
        parts = [parts[i] for i in rng.permutation(len(parts))]

        def run():
            return [part.run() for part in parts]

        def check(outs):
            return all([part.check(out) for part, out in zip(parts, outs)])

        return [Task("families", run, check)]

    def warmup(self):
        # one task of each kind but the slowest (Lorentz K)
        rng = np.random.default_rng((self.seed, WARMUP_STREAM))
        seen = set()
        for build in self._builders():
            task = build(rng)
            if task.kind not in seen and task.kind != "k-lorentz-linf":
                seen.add(task.kind)
                task.check(task.run())


# ---------------------------------------------------------------------------
# readme-cli: the README's commands, in-process through cli.main
# ---------------------------------------------------------------------------


README_SHIFT = ["shift-test", "--space",
                "seq:from:<seq:orlicz-modular:gen=<example1>>,weightbase=1.4142135623730951",
                "--side", "rsp", "--window=-64:-1", "--budget", "20000",
                "--seed", "11", "--target", "1.5"]
BRUDNYI = ("brudnyi:p=1.5,q=3:F", "brudnyi:p=1.5,q=3:G")


class ReadmeCli:
    round_s = 24.0
    min_rounds = 2

    def __init__(self, ck, seed, notes, tmp):
        self.ck, self.seed, self.notes, self.tmp = ck, seed, notes, tmp

    def _path(self, r, i, name):
        return os.path.join(self.tmp, f"r{r}-{i}-{name}")

    def _dump(self, r, i, name, obj):
        """Write an input object as the CLI's JSON; return the path."""
        path = self._path(r, i, name)
        with open(path, "w") as fh:
            json.dump(obj.to_json_dict(), fh)
        return path

    def _cli(self, kind, argv, artifact, check, out_flag=True):
        """Task running ``couplekit <argv>`` that writes ``artifact``."""
        ck, notes = self.ck, self.notes

        def run():
            rc = ck.cli.main(argv + ["--out", artifact] if out_flag else argv)
            if rc != 0:
                raise RuntimeError(f"couplekit exited with code {rc}")
            return artifact

        def checked(path):
            notes.add("cli.bytes_out", os.path.getsize(path))
            return check(path)

        return Task(kind, run, checked)

    @staticmethod
    def _load(path):
        with open(path) as fh:
            return json.load(fh)

    @staticmethod
    def _rows(path):
        with open(path, newline="") as fh:
            return list(csv.DictReader(fh))

    def analyze(self, r, i, gen, classification):
        def check(path):
            d = self._load(path)
            cls = d["elasticity"]["classification"]
            ok = classification is None or cls == classification
            return ok and d["config"]["gen"] == gen and math.isfinite(d["indices"]["alpha_inf"])

        return self._cli(f"analyze-orlicz:{gen.split(':')[0]}",
                         ["analyze-orlicz", "--gen", gen, "--C0", "4"],
                         self._path(r, i, "report.json"), check)

    def k_profile_oracle(self, r, i, rng):
        ck = self.ck
        f = random_step(ck, rng, n_pieces=8)
        fpath = self._dump(r, i, "f.json", f)

        def check(path):
            rows = self._rows(path)
            for row in rows:
                oracle = ck.k_l1_linf_oracle(float(row["t"]), f)
                err = abs(float(row["K"]) - oracle) / oracle
                self.notes.max("kfunc.oracle_err_max", err)
                if err > K_ORACLE_REL:
                    return False
            return len(rows) == 4

        return self._cli("k-profile:lp1-linf",
                         ["k-profile", "--X", "lp:p=1", "--Y", "linf", "--f", fpath,
                          "--t-grid", "log:-2:1:4"], self._path(r, i, "profile.csv"), check)

    def k_profile_orlicz(self, r, i, rng):
        ck = self.ck
        f = random_step(ck, rng, n_pieces=3)
        fpath = self._dump(r, i, "f.json", f)
        X = "orlicz:gen=<pwpower:p0=2,p1=3>"

        def check(path):
            rows = self._rows(path)
            xn = ck.parse_space(X).fn_norm(f)
            sup = float(np.max(np.abs(f.vals)))
            for row in rows:
                t, K = float(row["t"]), float(row["K"])
                if not (0.0 < K <= min(xn, t * sup) * (1 + 1e-9) + 1e-12):
                    return False
            return len(rows) == 4

        return self._cli("k-profile:orlicz-linf",
                         ["k-profile", "--X", X, "--Y", "linf", "--f", fpath,
                          "--t-grid", "log:-2:1:4"], self._path(r, i, "profile.csv"), check)

    def shift_test(self, r, i):
        ck = self.ck

        def check(path):
            d = self._load(path)
            cfg = d["config"]
            E = ck.parse_seq_space(cfg["space"], ck.Window.from_json_dict(cfg["window"]))
            w = ck.ShiftWitness.from_json_dict(d["witness"])
            return (d["c_hat"] >= 1.5 and d["evals"] <= cfg["budget"]
                    and _close(ck.replay_witness(E, w), d["c_hat"], REPLAY_REL))

        return self._cli("shift-test:readme", list(README_SHIFT),
                         self._path(r, i, "witness.json"), check)

    def transfer(self, r, i, rng):
        ck = self.ck
        win = ck.Window("Z-", -24, -1)
        x, y = majorized_pair(ck, rng, ck.dyadic_lp(1, win), win, k=5)
        xp, yp = self._dump(r, i, "x.json", x), self._dump(r, i, "y.json", y)

        def check(path):
            d = self._load(path)
            T = ck.PositiveMatrix.from_json_dict(d)
            lows = {k: v["lower"] for k, v in d["norm_checks"].items()}
            if any(v["lower"] > v["upper"] + BOUND_SLACK
                   for v in d["norm_checks"].values() if v["upper"] is not None):
                return False
            return _check_transfer(T, x, y, lows, self.notes)

        return self._cli("transfer:majorization",
                         ["transfer", "--E", "seq:lpw:p=1", "--F", "seq:linf", "--x", xp,
                          "--y", yp, "--mode", "majorization", "--window=-24:-1",
                          "--check-norms", "--seed", str(int(rng.integers(1000)))],
                         self._path(r, i, "T.json"), check)

    def generate(self, r, i, rng):
        ck = self.ck
        gen = str(rng.choice(["example1", "pwpower:p0=2,p1=3", "minimal:alpha=0.05",
                              "logfactor:p=2", BRUDNYI[1]]))
        lo = float(rng.integers(-16, 0))
        hi = lo + float(rng.integers(8, 80))
        points = 257
        dump = self._path(r, i, "grid.csv")

        def check(path):
            rows = self._rows(path)
            us = np.array([float(row["log_x"]) for row in rows])
            hs = np.array([float(row["log_F"]) for row in rows])
            ref = np.asarray(ck.parse_generator(gen).log_eval(us), dtype=float)
            return len(rows) == points and np.allclose(hs, ref, rtol=1e-12, atol=0.0)

        return self._cli("generate", ["generate", "--gen", gen, "--dump", dump,
                                      "--u-lo", repr(lo), "--u-hi", repr(hi),
                                      "--points", str(points)], dump, check,
                         out_flag=False)

    def verdict(self, r, i, X, Y, label, evidence=None):
        def check(path):
            d = self._load(path)
            return d["verdict"] == label and (evidence is None or evidence in d["evidence"])

        return self._cli(f"verdict:{label}", ["verdict", "--X", X, "--Y", Y],
                         self._path(r, i, "verdict.json"), check)

    def round(self, r):
        rng = np.random.default_rng((self.seed, r))
        # the README's generator zoo; the seed varies the other commands' inputs
        zoo = [("power:p=2", "elastic-consistent"), ("pwpower:p0=2,p1=3", None),
               ("logfactor:p=2", None),
               ("example1", "inelastic-witness"),
               ("elastic-nl", "elastic-consistent"),
               (BRUDNYI[0], None), (BRUDNYI[1], None),
               ("minimal:alpha=0.05", None)]
        makers = [lambda i, g=g, c=c: self.analyze(r, i, g, c) for g, c in zoo]
        # every other README command once, as the README gives it
        makers += [lambda i: self.k_profile_oracle(r, i, rng),
                   lambda i: self.k_profile_orlicz(r, i, rng),
                   lambda i: self.shift_test(r, i),
                   lambda i: self.transfer(r, i, rng),
                   lambda i: self.generate(r, i, rng),
                   lambda i: self.verdict(r, i, "fromseq:<seq:orlicz-modular:gen=<example1>>",
                                          "linf", "not-calderon-witness"),
                   lambda i: self.verdict(r, i, "lp:p=2", "linf", "calderon"),
                   lambda i: self.verdict(r, i, f"orlicz:gen=<{BRUDNYI[0]}>",
                                          f"orlicz:gen=<{BRUDNYI[1]}>", "inconclusive",
                                          "brudnyi")]
        tasks = [make(i) for i, make in enumerate(makers)]
        return [tasks[i] for i in rng.permutation(len(tasks))]

    def warmup(self):
        rng = np.random.default_rng((self.seed, WARMUP_STREAM))
        for task in (self.analyze(-1, 0, "power:p=2", "elastic-consistent"),
                     self.k_profile_oracle(-1, 1, rng), self.transfer(-1, 2, rng),
                     self.generate(-1, 3, rng),
                     self.verdict(-1, 4, "lp:p=2", "linf", "calderon")):
            task.check(task.run())


WORKLOADS = {"orlicz-shift": OrliczShift, "kfunc-transfer": KfuncTransfer,
             "readme-cli": ReadmeCli}
