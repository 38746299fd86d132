"""Span tracer that wraps couplekit's public functions and methods from outside.

Nothing under ``src/`` knows about it: ``Tracer.install`` replaces every
public function and method of the layer modules with a wrapper that records
a span (name, start, end, parent span, task id) into flat in-memory arrays,
and rebinds every alias of a wrapped function (``from .kfunc import
k_profile`` in ``cli``, the names re-exported by the package) so calls made
inside the program are seen too.  Spans are written out once, at the end of
the run, by ``Tracer.dump``.

A layer's self time is its span time minus the time covered by its child
spans.  Work counts come from element counts at the kernel boundaries
(``log_eval``, ``slope``, ``log_inv``) and from public return values
(``ShiftEstimate.evals``, ``KResult.sweeps/converged/lower``,
``PositiveMatrix.entries``).
"""

from __future__ import annotations

import inspect
import os
from array import array
from time import perf_counter

import numpy as np

LAYERS = ("orlicz", "spaces", "kfunc", "shift", "transfer", "verdict",
          "specdsl", "cli", "measure")

_KERNELS = ("log_eval", "slope", "log_inv")
# spans that own the profile evaluations made beneath them
_NORM_OWNERS = ("spaces.OrliczModular.norm_values", "spaces.OrliczSpace.fn_norm")
_ANALYSIS = ("counter", "phi_plus", "phi_minus", "psi_count", "indices",
             "w_witness", "rv_defect", "elasticity_report", "lambda_seq",
             "regularize")
_LATTICE = ("spaces.WeightedLp.norm_values", "spaces.LinftySeq.norm_values",
            "spaces.LpSpace.fn_norm", "spaces.LorentzSpace.fn_norm")


class Tracer:
    def __init__(self):
        self.active = False
        self.task_id = -1
        self.names: list[str] = []
        self.name_id: dict[str, int] = {}
        self.span_name = array("i")
        self.span_parent = array("q")
        self.span_owner = array("q")
        self.span_task = array("q")
        self.span_elems = array("q")
        self.span_start = array("d")
        self.span_end = array("d")
        self._stack = [-1]
        self._owners = [-1]
        self.k_results: list[tuple[int, bool, float]] = []
        self.shift_evals: list[int] = []
        self.matrix_entries: list[int] = []

    # -- installation ----------------------------------------------------------

    def install(self, package):
        """Wrap every public function and method of the layer modules."""
        modules = {name: getattr(package, name) for name in LAYERS}
        replaced: dict[int, object] = {}
        for layer, mod in modules.items():
            for attr, obj in list(vars(mod).items()):
                if attr.startswith("_"):
                    continue
                if inspect.isfunction(obj) and obj.__module__ == mod.__name__:
                    wrapped = self._wrap(obj, f"{layer}.{attr}")
                    replaced[id(obj)] = wrapped
                    setattr(mod, attr, wrapped)
                elif inspect.isclass(obj) and obj.__module__ == mod.__name__:
                    self._wrap_class(obj, layer)
        # rebind aliases: names imported into other modules and the package
        for mod in [package] + [m for m in vars(package).values()
                                if inspect.ismodule(m)
                                and m.__name__.startswith(package.__name__)]:
            for attr, obj in list(vars(mod).items()):
                if id(obj) in replaced and inspect.isfunction(obj):
                    setattr(mod, attr, replaced[id(obj)])

    def _wrap_class(self, cls, layer: str):
        for attr, val in list(vars(cls).items()):
            if attr.startswith("_"):
                continue
            name = f"{layer}.{cls.__name__}.{attr}"
            if inspect.isfunction(val):
                setattr(cls, attr, self._wrap(val, name))
            elif isinstance(val, staticmethod):
                setattr(cls, attr, staticmethod(self._wrap(val.__func__, name)))

    def _observer(self, name: str):
        if name == "kfunc.k_numeric":
            def observe(r):
                gap = (r.value - r.lower) / r.value if r.value > 0 else 0.0
                self.k_results.append((r.sweeps, bool(r.converged), gap))
            return observe
        if name == "shift.shift_constant_estimate":
            return lambda est: self.shift_evals.append(int(est.evals))
        if name in ("transfer.majorization_transfer", "transfer.k_transfer"):
            return lambda T: self.matrix_entries.append(len(T.entries))
        return None

    def _name(self, name: str) -> int:
        nid = self.name_id.setdefault(name, len(self.names))
        if nid == len(self.names):
            self.names.append(name)
        return nid

    def _wrap(self, fn, name: str):
        nid = self._name(name)
        counts_elems = name.rsplit(".", 1)[-1] in _KERNELS and name.startswith("orlicz.")
        is_owner = name in _NORM_OWNERS
        observe = self._observer(name)
        tr = self
        stack, owners = self._stack, self._owners
        sname, sparent, sowner = self.span_name, self.span_parent, self.span_owner
        stask, selems = self.span_task, self.span_elems
        sstart, send = self.span_start, self.span_end

        def wrapper(*args, **kwargs):
            if not tr.active:
                return fn(*args, **kwargs)
            idx = len(sname)
            sname.append(nid)
            sparent.append(stack[-1])
            sowner.append(owners[-1])
            stask.append(tr.task_id)
            selems.append(int(np.size(args[1])) if counts_elems else 0)
            send.append(0.0)
            stack.append(idx)
            if is_owner:
                owners.append(idx)
            sstart.append(perf_counter())
            try:
                out = fn(*args, **kwargs)
            finally:
                send[idx] = perf_counter()
                stack.pop()
                if is_owner:
                    owners.pop()
            if observe is not None:
                observe(out)
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    # -- task spans -------------------------------------------------------------

    def begin_task(self, task_id: int, kind: str) -> int:
        self.task_id = task_id
        idx = len(self.span_name)
        self.span_name.append(self._name(f"task.{kind}"))
        self.span_parent.append(-1)
        self.span_owner.append(-1)
        self.span_task.append(task_id)
        self.span_elems.append(0)
        self.span_end.append(0.0)
        self.span_start.append(perf_counter())
        self._stack.append(idx)
        return idx

    def end_task(self, idx: int):
        self.span_end[idx] = perf_counter()
        self._stack.pop()
        self.task_id = -1

    # -- reduction ---------------------------------------------------------------

    def _arrays(self):
        # copies, so the arrays can still grow afterwards
        return tuple(np.array(a, dtype=dt) for a, dt in (
            (self.span_name, np.int32), (self.span_parent, np.int64),
            (self.span_owner, np.int64), (self.span_start, np.float64),
            (self.span_end, np.float64), (self.span_elems, np.int64)))

    def metrics(self) -> dict[str, float]:
        """Per-layer metrics named as in BENCHMARK.json ``per_layer``."""
        name, parent, owner, start, end, elems = self._arrays()
        dur = end - start
        child = np.zeros_like(dur)
        has_parent = parent >= 0
        np.add.at(child, parent[has_parent], dur[has_parent])
        self_t = dur - child

        def ids(pred):
            return np.array([i for i, n in enumerate(self.names) if pred(n)],
                            dtype=np.int32)

        def mask(pred):
            return np.isin(name, ids(pred))

        def calls(pred):
            return int(np.count_nonzero(mask(pred)))

        def self_s(pred):
            return float(np.sum(self_t[mask(pred)]))

        def kernel(k):
            return lambda n: n.startswith("orlicz.") and n.endswith("." + k)

        def exact(*names):
            return lambda n: n in names

        def layer(lay):
            return lambda n: n.split(".", 1)[0] == lay

        m: dict[str, float] = {}
        log_eval = mask(kernel("log_eval"))
        m["orlicz.log_eval.calls"] = int(np.count_nonzero(log_eval))
        m["orlicz.log_eval.elems"] = int(np.sum(elems[log_eval]))
        m["orlicz.log_eval.self_s"] = self_s(kernel("log_eval"))
        for k in ("slope", "log_inv"):
            m[f"orlicz.{k}.calls"] = calls(kernel(k))
            m[f"orlicz.{k}.self_s"] = self_s(kernel(k))
        m["orlicz.analysis.self_s"] = self_s(
            exact(*(f"orlicz.{a}" for a in _ANALYSIS)))

        owner_name = np.where(owner >= 0, name[np.maximum(owner, 0)], -1)
        for label, span in (("OrliczModular", _NORM_OWNERS[0]),
                            ("OrliczSpace", _NORM_OWNERS[1])):
            norms = calls(exact(span))
            nid = self.name_id.get(span, -2)
            evals = int(np.count_nonzero(log_eval & (owner_name == nid)))
            m[f"spaces.{label}.norms"] = norms
            m[f"spaces.{label}.self_s"] = self_s(exact(span))
            m[f"spaces.{label}.log_evals_per_norm"] = evals / norms if norms else 0.0
        for fn in ("kappa_estimate", "norming_functional"):
            m[f"spaces.{fn}.calls"] = calls(exact(f"spaces.{fn}"))
            m[f"spaces.{fn}.self_s"] = self_s(exact(f"spaces.{fn}"))
        m["spaces.lattice.norms"] = calls(exact(*_LATTICE))
        m["spaces.lattice.self_s"] = self_s(exact(*_LATTICE))

        m["kfunc.k_numeric.calls"] = calls(exact("kfunc.k_numeric"))
        m["kfunc.k_numeric.self_s"] = self_s(exact("kfunc.k_numeric"))
        kr = self.k_results
        m["kfunc.sweeps_mean"] = float(np.mean([r[0] for r in kr])) if kr else 0.0
        m["kfunc.unconverged_ratio"] = (
            sum(1 for r in kr if not r[1]) / len(kr) if kr else 0.0)
        m["kfunc.gap_rel_max"] = max((r[2] for r in kr), default=0.0)

        search = exact("shift.shift_constant_estimate")
        search_mask = mask(search)
        evals = sum(self.shift_evals)
        m["shift.search.calls"] = calls(search)
        m["shift.search.self_s"] = self_s(search)
        m["shift.evals"] = evals
        # inclusive time of the outermost searches (a schedule nests none here)
        outer = search_mask & ~np.isin(parent, np.flatnonzero(search_mask))
        busy = float(np.sum(dur[outer]))
        m["shift.evals_per_s"] = evals / busy if busy > 0 else 0.0
        norm_ids = ids(lambda n: n.endswith(".norm_values"))
        direct = np.isin(name, norm_ids) & np.isin(parent, np.flatnonzero(search_mask))
        m["shift.norms_per_eval"] = (
            int(np.count_nonzero(direct)) / evals if evals else 0.0)

        m["transfer.majorization.self_s"] = self_s(exact("transfer.majorization_transfer"))
        m["transfer.k_transfer.self_s"] = self_s(exact("transfer.k_transfer"))
        m["transfer.op_norm.self_s"] = self_s(exact("transfer.op_norm"))
        m["transfer.apply.calls"] = calls(exact("transfer.PositiveMatrix.apply"))
        me = self.matrix_entries
        m["transfer.entries_mean"] = float(np.mean(me)) if me else 0.0

        m["measure.calls"] = calls(layer("measure"))
        m["measure.self_s"] = self_s(layer("measure"))
        m["verdict.classify.self_s"] = self_s(layer("verdict"))
        m["specdsl.parse.self_s"] = self_s(layer("specdsl"))
        m["cli.main.self_s"] = self_s(layer("cli"))
        return m

    def dump(self, path: str):
        """Write the spans as one compressed numpy archive."""
        name, parent, _, start, end, elems = self._arrays()
        os.makedirs(os.path.dirname(path), exist_ok=True)
        np.savez_compressed(path, names=np.array(self.names), name=name,
                            parent=parent, task=np.array(self.span_task, dtype=np.int64),
                            start=start, end=end, elems=elems)
