"""Only ``spaces`` dispatches on the concrete space classes.

The algorithm modules ask a space what it is through its own methods
(``e_space``, ``norm_rows_on``, ``norm_rows``, ``weighted_lp_form``,
``boyd``, ``generator``).  This test
reads their source and fails when one of them tests for a concrete class
from ``spaces``, or imports one outside the one deliberate exception
(``verdict`` builds ``OrliczModular``s).  It also keeps ``verdict`` free of
searches, and one class per space (ell_infty is
``WeightedLp`` at p = inf with unit weights; ``LinftySeq`` only builds it; a
reversed or geometrically weighted weighted ell_p is a ``WeightedLp``, and
``OrderReversed`` and ``GeometricWeighted`` only build spaces; every other
space is reversed and weighted by the one private class ``_Conjugated``, which
answers no ``weighted_lp_form`` of its own and never wraps itself),
one weighted-lp row formula (``spaces._wlp_norms``, which norms every space
whose form answers) and otherwise one norm formula per space -- ``norm_rows``
and ``norm_rows_on`` on the base classes decide between the form and a space's
own ``_rows`` or ``_rows_on``, with the one-row ``norm_values`` and ``fn_norm``
on the base classes only -- one exactness answer (the weighted-lp forms,
which also tell K's route and the verdict's pair with L_infty whether a side
is a weighted ell_infty, so no space answers ``is_linf``;
``weighted_lp_form()``, read from the form a sequence space computes once,
and ``weighted_lp_form_on(f)``, read on ``SpaceSpec`` alone from the L_p
exponent ``_lp`` a function space fixes at construction, so a power's
exponent is read from the profile once per space; from the forms
``SeqSpaceSpec`` alone derives the
certified ``shift_upper`` and ``reversed_space``, the unit norms, the bounds
on ||tau_m|| and the norming functionals, so ``WeightedLp`` is only its
constructor and spec string; no module tells a power from a generator's
name), two hooks per concrete sequence space (``_rows``, which answers the
norming functionals too, and ``_shift_norm_upper``), one row call per block
sum (``norm_rows(X, grad=True)``) and one ratio-of-rows helper
(``spaces._row_ratios``) behind the three searches, the
shift search on batched rows,
one Luxemburg solver (one fused profile call per Newton step, the one
Newton stop and the only reader of a profile's curvature besides the
start) behind one Orlicz row path (``_orlicz_rows``, its one caller, which
the modular and the function space both call), one decreasing rearrangement
(``measure._decreasing``, one sort per batch of rows behind ``rearrange``,
``dyadic_envelope`` and the Lorentz and space-from-sequence rows), one
multiplicative ascent (``ascent._ascend_steps``) with one stop rule (one
accept margin, one set of stop labels and ``ascent.stop_level``), the index
extremes from a band scan in bounded blocks, one drop scan behind Phi+/-
(``_count_drops``), one input front end for the Orlicz analyses (one t-grid
check, ``_log_grid``, and one omega table, ``_omega_table``), one
representation of a family of block pairs, one K scan per vector for a whole
t-grid (``kfunc._k_grid``) with one level scan behind both exact K routes
(``kfunc._k_path``, whose segment rule serves a weighted-lp side against a
weighted ell_infty) and one template front end per side (``kfunc._side``),
the dyadic levels
lambda_n = F^{-1}(2^{-n}) solved in one place (``OrliczFn.log_lambda``, once
per generator), one window check (``spaces._check_windows``, which every
pairing of a vector, family or window with a space calls, so a mismatch is
one ``UsageError`` everywhere), one representation of a positive
operator (the factor stack ``G``, ``Y``, ``d`` of ``PositiveMatrix``), and
classes built from their source as written: no dataclass, named tuple or
``exec``.
"""

import ast
import functools
import inspect
import itertools
from pathlib import Path

import pytest

import couplekit.analysis as analysis
import couplekit.spaces as spaces
from couplekit import Window, parse_seq_space
from couplekit.shift import InterlacedFamily

SRC = Path(spaces.__file__).parent

# the one deliberate exception: verdict builds the modular spaces of the
# counterexample pair
ALLOWED_IMPORTS = {"verdict": {"OrliczModular"}}
MODULES = ("kfunc", "transfer", "verdict", "shift", "kappa", "cli")


def _spaces_classes() -> set[str]:
    tree = ast.parse((SRC / "spaces.py").read_text())
    return {node.name for node in tree.body if isinstance(node, ast.ClassDef)}


def _concrete_space_classes() -> set[str]:
    bases = (spaces.SpaceSpec, spaces.SeqSpaceSpec)
    return {name for name in _spaces_classes()
            if issubclass(getattr(spaces, name), bases)
            and getattr(spaces, name) not in bases}


def _names(node) -> set[str]:
    return {n.id if isinstance(n, ast.Name) else n.attr
            for n in ast.walk(node) if isinstance(n, (ast.Name, ast.Attribute))}


def _isinstance_classes(tree) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.Call) and isinstance(node.func, ast.Name)
                and node.func.id == "isinstance" and len(node.args) == 2):
            found |= _names(node.args[1])
    return found


def _imports_from(tree, module: str) -> set[str]:
    found = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == module:
            found |= {alias.name for alias in node.names}
    return found


def test_concrete_classes_are_found():
    assert {"LpSpace", "WeightedLp", "_Conjugated", "InducedSeq"} <= _concrete_space_classes()
    assert "SpaceSpec" not in _concrete_space_classes()
    # ell_infty is WeightedLp at p = inf, not a class of its own, and the
    # public reversal and geometric weighting only build spaces
    assert not {"LinftySeq", "OrderReversed", "GeometricWeighted"} & _spaces_classes()
    # a wrapper answers no closed form of its own
    assert "weighted_lp_form" not in vars(spaces._Conjugated)


def test_one_linf_answer():
    # the weighted-lp form with p = inf is the only answer to "is this side
    # ell_infty": no module asks a space anything else
    for path in SRC.glob("*.py"):
        assert "is_linf" not in path.read_text(), path.name


def test_one_conjugation_class():
    # reversal and b^n weights have one class, and a chain of them folds into
    # one instance around a space that is not conjugated
    assert {name for name in _concrete_space_classes() if name.startswith("_")} == {"_Conjugated"}
    win = Window("Z-", -6, -1)
    for inner in ("seq:orlicz-modular:gen=<example1>", "seq:induced:<lorentz:p=2,w=pow:0.5>"):
        for chain in itertools.product(("rev:<{}>", "seq:from:<{}>,weightbase=0.7",
                                        "seq:from:<{}>,weightbase=1"), repeat=3):
            spec = functools.reduce(lambda s, op: op.format(s), chain, inner)
            E = parse_seq_space(spec, win)
            assert E.window == win, spec
            if isinstance(E, spaces._Conjugated):
                assert not isinstance(E.inner, spaces._Conjugated), spec


@pytest.mark.parametrize("module", MODULES)
def test_no_space_type_dispatch_outside_spaces(module):
    tree = ast.parse((SRC / f"{module}.py").read_text())
    tested = _isinstance_classes(tree) & _spaces_classes()
    assert not tested, f"{module}.py tests for {sorted(tested)}; ask the space instead"
    imported = _imports_from(tree, "spaces") & _concrete_space_classes()
    assert imported <= ALLOWED_IMPORTS.get(module, set()), (
        f"{module}.py imports {sorted(imported)} from spaces")


def test_verdict_runs_no_search():
    # a verdict reads certificates only: a finite search can neither certify
    # nor falsify a uniform shift constant (``shift-test`` runs one)
    tree = ast.parse((SRC / "verdict.py").read_text())
    assert not _imports_from(tree, "shift") | _imports_from(tree, "ascent")
    assert "budget" not in _names(tree)


def _calls(tree, attr: str) -> bool:
    return any(isinstance(node, ast.Attribute) and node.attr == attr
               for node in ast.walk(tree))


def _row_roots(tree) -> list:
    """The list comprehensions of powers: a scalar root taken per row."""
    return [node for node in ast.walk(tree) if isinstance(node, ast.ListComp)
            and isinstance(node.elt, ast.BinOp) and isinstance(node.elt.op, ast.Pow)]


def test_one_weighted_lp_row_formula():
    # spaces._wlp_norms is the one place a row's weighted-lp root is taken:
    # the brudnyi annotation calls it, and no other function has a copy
    found = [f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
             for fn in _functions(ast.parse(path.read_text())) if _row_roots(fn)]
    assert found == ["spaces._wlp_norms"]
    verdict = next(fn for fn in _functions(ast.parse((SRC / "verdict.py").read_text()))
                   if fn.name == "brudnyi_evidence")
    assert "_wlp_norms" in _called(verdict)


def test_one_norm_formula_per_sequence_space():
    # the base class norms a space by its form when it has one, else by the
    # space's own _rows; a weighted ell_p always has a form, so no formula
    assert "norm_rows" in vars(spaces.SeqSpaceSpec)
    for name in _concrete_space_classes():
        cls = getattr(spaces, name)
        if issubclass(cls, spaces.SeqSpaceSpec):
            assert not {"norm_values", "norm_rows"} & set(vars(cls)), f"{name}"
            assert ("_rows" in vars(cls)) is (name != "WeightedLp"), f"{name}"


def _reads_name(node) -> bool:
    return any(isinstance(n, ast.Attribute) and n.attr == "name" for n in ast.walk(node))


def test_one_exactness_answer():
    # the weighted-lp form is the one answer to "is this space exactly a
    # weighted ell_p": no flag beside it (the names are spelled in two parts
    # so that this file does not match itself)
    gone = ("exact_weighted" + "_lp", "_is" + "_power")
    for path in [*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        text = path.read_text()
        assert not [word for word in gone if word in text], path.name
    # the form is computed once per sequence space and read on the base
    # class; the shift bound and the reversal derive from it there
    for method in ("weighted_lp_form", "shift_upper", "reversed_space"):
        assert method in vars(spaces.SeqSpaceSpec)
        for name in _concrete_space_classes():
            if (name, method) != ("_Conjugated", "reversed_space"):
                assert method not in vars(getattr(spaces, name)), f"{name} defines {method}"
    # a power is read from the profile: spaces reads no generator's name,
    # and of the algorithm modules only the counterexample-pair annotation does
    assert not _reads_name(ast.parse((SRC / "spaces.py").read_text()))
    for module in MODULES:
        readers = {fn.name for fn in _functions(ast.parse((SRC / f"{module}.py").read_text()))
                   if _reads_name(fn)}
        assert readers <= ({"_is_brudnyi_pair"} if module == "verdict" else set()), module


def test_one_answer_from_the_form():
    # unit norms, the bounds on ||tau_m|| and the norming functionals are read
    # from the form on the base class, which hands a space without one to its
    # private hooks
    for method in ("norm_rows", "unit_norm", "unit_norms", "shift_norm_upper"):
        assert method in vars(spaces.SeqSpaceSpec), method
        for name in _concrete_space_classes():
            assert method not in vars(getattr(spaces, name)), f"{name} defines {method}"
    tree = ast.parse((SRC / "spaces.py").read_text())
    wlp = next(node for node in tree.body
               if isinstance(node, ast.ClassDef) and node.name == "WeightedLp")
    assert {fn.name for fn in _functions(wlp)} == {"__init__", "spec_string"}
    # a block sum takes the norms and functionals of all its blocks in one
    # row call, in no loop: no per-block vector and no second solve
    block = _qualified_functions()["transfer._add_block_sum"]
    calls = [node for node in ast.walk(block) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Attribute) and node.func.attr == "norm_rows"]
    assert len(calls) == 1
    assert [(kw.arg, getattr(kw.value, "value", None)) for kw in calls[0].keywords] == [
        ("grad", True)]
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not any(calls[0] in set(ast.walk(node))
                   for node in ast.walk(block) if isinstance(node, loops))
    assert not _called(block) & {"norming_functional", "norming_values", "SeqVec"}


def test_two_hooks_per_sequence_space():
    # a sequence space answers from its rows: its unit norms are rows of the
    # identity and its norming functionals come back with its norms, so of
    # the base class's methods a concrete class overrides only its row
    # function and its bound on ||tau_m|| (besides the constructor, the spec
    # string, the generator and a conjugated space's cached reversal)
    base = spaces.SeqSpaceSpec
    own = {"__init__", "spec_string", "generator", "reversed_space"}
    found = set()
    for name in _spaces_classes():
        cls = getattr(spaces, name)
        assert not {"_unit_norm", "_norming_rows", "norming_rows"} & set(vars(cls)), name
        if issubclass(cls, base) and cls is not base:
            found.add(name)
            hooks = {m for m in vars(cls) if callable(getattr(base, m, None))} - own
            assert hooks <= {"_rows", "_shift_norm_upper"}, f"{name} overrides {hooks}"
    assert {"WeightedLp", "OrliczModular", "_Conjugated", "InducedSeq"} <= found
    # the three searches divide norms of stacked rows through one helper
    fns = _qualified_functions()
    for name in ("kappa._shift_ratios", "shift._ratios", "transfer._op_norm_lower"):
        assert "_row_ratios" in _called(fns[name]), name
    assert _called(fns["spaces._row_ratios"]) >= {"norm_rows", "divide"}


def test_one_norm_formula_per_function_space():
    # the base class norms the pieces by the form when it answers, else by the
    # space's own _rows_on; L_p's form always answers, so it has no formula
    assert "norm_closure" not in vars(spaces.SpaceSpec)
    assert "norm_rows_on" in vars(spaces.SpaceSpec)
    found = set()
    for name in _concrete_space_classes():
        cls = getattr(spaces, name)
        if issubclass(cls, spaces.SpaceSpec):
            found.add(name)
            assert not {"fn_norm", "norm_closure", "norm_rows_on"} & set(vars(cls)), f"{name}"
            assert ("_rows_on" in vars(cls)) is (name != "LpSpace"), f"{name}"
    assert {"LpSpace", "LorentzSpace", "OrliczSpace", "FromSequenceSpace"} <= found
    defined = {fn.name for path in SRC.glob("*.py")
               for fn in _functions(ast.parse(path.read_text()))}
    assert not {"norm_closure", "_norm_closure", "_lp_form_on"} & defined
    # a function space's form is read on the base class from its L_p
    # exponent, fixed at construction: a power's exponent is read from the
    # profile once per Orlicz space or modular, not once per norm
    assert "weighted_lp_form_on" in vars(spaces.SpaceSpec)
    for name in found:
        assert "weighted_lp_form_on" not in vars(getattr(spaces, name)), name
    fns = _qualified_functions()
    assert {name for name, fn in fns.items() if "_power_exponent" in _called(fn)} == {
        "spaces.OrliczModular.__init__", "spaces.OrliczSpace.__init__"}


def test_one_window_check():
    # data meets a space's window through one check, spaces._check_windows,
    # which every pairing of a vector, family or window with a space calls
    fns = _qualified_functions()
    assert [name for name in fns if name.endswith("._check_windows")] == [
        "spaces._check_windows"]
    for name in ("kfunc._side", "kfunc.k_block_estimate", "shift.InterlacedFamily.validate",
                 "spaces.SeqSpaceSpec.norm", "kfunc.rho_profile", "transfer._check_vectors",
                 "transfer.op_norm", "transfer.rank_one_shift"):
        assert "_check_windows" in _called(fns[name]), name
    for module in ("kfunc", "shift", "transfer"):
        tree = ast.parse((SRC / f"{module}.py").read_text())
        assert "_check_windows" in _imports_from(tree, "spaces"), module
    # the message is spelled in two parts so that this file does not match itself
    gone = "vector window does not match" + " space window"
    for path in [*SRC.glob("*.py"), *Path(__file__).parent.glob("*.py")]:
        assert gone not in path.read_text(), path.name


def test_shift_search_evaluates_rows():
    tree = ast.parse((SRC / "shift.py").read_text())
    assert not _calls(tree, "norm_values")
    assert _calls(tree, "norm_rows")


def _functions(tree):
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))]


def test_one_luxemburg_solver():
    solvers = [f"{path.stem}.{fn.name}" for path in sorted(SRC.glob("*.py"))
               for fn in _functions(ast.parse(path.read_text()))
               if "luxemburg" in fn.name.lower()]
    assert solvers == ["orlicz._luxemburg_log"]
    # one row path: the solver's one caller is the row function, which both
    # Orlicz spaces call
    fns = _qualified_functions()
    callers = [name for name, fn in fns.items() if "_luxemburg_log" in _called(fn)]
    assert callers == ["orlicz._orlicz_rows"]
    for name in ("spaces.OrliczModular._rows", "spaces.OrliczSpace._rows_on"):
        assert "_orlicz_rows" in _called(fns[name]), name
    # no zero-pattern grouping and no bracket of its own on the function path
    assert not {"tobytes", "inf", "setdefault"} & _names(fns["spaces.OrliczSpace._rows_on"])


def _called(fn) -> set[str]:
    return {node.func.id if isinstance(node.func, ast.Name) else node.func.attr
            for node in ast.walk(fn) if isinstance(node, ast.Call)
            and isinstance(node.func, (ast.Name, ast.Attribute))}


def test_luxemburg_step_calls_fused_kernel():
    tree = ast.parse((SRC / "orlicz.py").read_text())
    called = _called(next(fn for fn in _functions(tree) if fn.name == "_luxemburg_log"))
    assert "log_eval_slope" in called
    assert not {"log_eval", "slope"} & called


def _qualified_functions() -> dict:
    """Every module function and method of the package, by qualified name."""
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    fns = {f"{stem}.{fn.name}": fn for stem, tree in trees.items() for fn in tree.body
           if isinstance(fn, ast.FunctionDef)}
    fns.update({f"{stem}.{cls.name}.{fn.name}": fn for stem, tree in trees.items()
                for cls in tree.body if isinstance(cls, ast.ClassDef) for fn in _functions(cls)})
    return fns


def test_one_decreasing_rearrangement():
    # f* has one implementation, measure._decreasing: the one sort in measure
    # and spaces, behind rearrange, dyadic_envelope and the Lorentz and
    # space-from-sequence rows, each of which sorts a batch once and builds no
    # step function per row
    fns = _qualified_functions()
    sorts = {"argsort", "sort", "lexsort"}
    assert {name for name, fn in fns.items() if name.split(".")[0] in ("measure", "spaces")
            and _called(fn) & sorts} == {"measure._decreasing"}
    for name in ("measure.rearrange", "measure.dyadic_envelope",
                 "spaces.LorentzSpace._rows_on", "spaces.FromSequenceSpace._rows_on"):
        calls = [node for node in ast.walk(fns[name]) if isinstance(node, ast.Call)
                 and isinstance(node.func, ast.Name) and node.func.id == "_decreasing"]
        assert len(calls) == 1, name
    tree = ast.parse((SRC / "spaces.py").read_text())
    assert not {"rearrange", "dyadic_envelope", "with_values", "StepFunction"} & _called(tree)
    assert not {"_piece_integral", "segment_at"} & {fn.name for fn in _functions(tree)}


def test_one_newton_stop():
    # the stop tolerance, and the threshold derived from a profile's
    # curvature, live in the solver alone; the curvature is read by the
    # solver (the stop) and by the row function (the start) only
    fns = _qualified_functions()
    tol = [name for name, fn in fns.items() if "_NEWTON_TOL" in _names(fn)]
    assert tol == ["orlicz._luxemburg_log"]
    assert "sqrt" in _called(fns["orlicz._luxemburg_log"])
    readers = [name for name, fn in fns.items() if "curvature" in _called(fn)]
    assert readers == ["orlicz._luxemburg_log", "orlicz._orlicz_rows"]


def test_one_row_state_threshold():
    # the batch size that selects the solver's array row state is read by
    # the solver alone, so there is still one solver and no option
    fns = _qualified_functions()
    assert [name for name, fn in fns.items() if "_ARRAY_ROWS" in _names(fn)] == [
        "orlicz._luxemburg_log"]


def test_one_multiplicative_ascent():
    trees = {path.stem: ast.parse(path.read_text()) for path in sorted(SRC.glob("*.py"))}
    fns = {f"{stem}.{fn.name}": fn for stem, tree in trees.items() for fn in _functions(tree)}
    assert [name for name in fns if name.endswith("._ascend_steps")] == ["ascent._ascend_steps"]
    for name in ("shift.shift_constant_estimate", "kappa._best_shift_ratio",
                 "transfer._op_norm_lower"):
        assert "_ascend_steps" in _called(fns[name]), f"{name} has its own ascent"
    for name in ("kappa._best_shift_ratio", "transfer._op_norm_lower"):
        assert not _called(fns[name]) & {"norm", "norm_values"}, f"{name} solves single rows"
    assert "kappa._shift_ratio" not in fns
    # one stop rule: one accept margin and one set of stop labels, assigned in
    # ``ascent`` only, and one stop level that the shift search, kappa and the
    # op_norm lower bound call instead of dividing by 1 + margin themselves
    labels = {"ACCEPT_REL", "STOP_BUDGET", "STOP_TARGET", "STOP_UPPER", "STOP_OVERFLOW"}
    for stem, tree in trees.items():
        assigned = {t.id for node in ast.walk(tree) if isinstance(node, ast.Assign)
                    for t in node.targets if isinstance(t, ast.Name)}
        assert assigned & labels == (labels if stem == "ascent" else set()), stem
        assert "_OP_REL" not in _names(tree), stem
    for name in ("shift.shift_constant_estimate", "kappa._best_shift_ratio",
                 "transfer._op_norm_lower"):
        assert _called(fns[name]) >= {"stop_level", "stop_reason"}, name
        assert "isinf" not in _called(fns[name]), f"{name} tests overflow itself"
        margins = [node for node in ast.walk(fns[name]) if isinstance(node, ast.BinOp)
                   and isinstance(node.op, ast.Div) and isinstance(node.right, ast.BinOp)
                   and isinstance(node.right.op, ast.Add)]
        assert not margins, f"{name} computes its own stop level"
    # op_norm's columns come from the factor stack, not the dense entries
    assert "entries" not in _names(fns["transfer._op_norm_lower"])


def test_dyadic_levels_solved_in_one_place():
    # lambda_n = F^{-1}(2^{-n}) is solved by OrliczFn.log_lambda alone, which
    # keeps each generator's levels; the modular and lambda_seq read it, and
    # no other function solves h(u) = -n log 2 itself
    fns = _qualified_functions()
    for name in ("spaces.OrliczModular.__init__", "analysis.lambda_seq"):
        assert "log_lambda" in _called(fns[name]) and "log_inv" not in _called(fns[name]), name
    solvers = [name for name, fn in fns.items()
               for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Attribute) and node.func.attr == "log_inv"
               and _names(node) & {"LOG2", "_log_w"}]
    assert solvers == ["orlicz.OrliczFn.log_lambda"]


def test_shift_search_ascends_once_per_wave():
    # a restart the budget cuts takes its state from the lane's accept log;
    # it is never run again alone
    tree = ast.parse((SRC / "shift.py").read_text())
    fn = next(fn for fn in _functions(tree) if fn.name == "shift_constant_estimate")
    ascents = [node for node in ast.walk(fn) if isinstance(node, ast.Call)
               and isinstance(node.func, ast.Name) and node.func.id == "_ascend_steps"]
    assert len(ascents) == 1
    assert "_ascend" not in {fn.name for fn in _functions(tree)}


def test_index_extremes_scan_bounded_blocks():
    # no hull sweep and no full pair table: the chord slopes of the band and
    # of its rescans are taken in blocks of at most 2^14 pairs
    tree = ast.parse((SRC / "analysis.py").read_text())
    fns = {fn.name: fn for fn in _functions(tree)}
    assert "_tangent" not in fns
    assert not _calls(tree, "meshgrid")
    assert _called(fns["_chord_slope_range"]) >= {"_row_slope_extremes"}
    loops = [node for node in ast.walk(fns["_row_slope_extremes"])
             if isinstance(node, ast.For) and "_BAND_BLOCK" in _names(node.iter)]
    assert len(loops) == 1
    assert analysis._BAND_BLOCK <= 1 << 14


def test_one_drop_scan():
    # counter and elasticity_report reach Phi+/- only through _count_drops,
    # a lockstep block scan that takes the blocks' extremes once; no other
    # function runs a running extremum of its own but w_witness's row rule (a
    # running minimum per x) and its w recursion (a running maximum over rows)
    tree = ast.parse((SRC / "analysis.py").read_text())
    fns = {fn.name: fn for fn in _functions(tree)}
    for name in ("counter", "elasticity_report"):
        assert "_count_drops" in _called(fns[name]), name
    assert [name for name, fn in fns.items() if _calls(fn, "accumulate")] == \
        ["_count_drops", "_profit_rows", "w_witness"]
    assert "reduceat" in _called(fns["_count_drops"])
    # elasticity_report counts Phi+ and Phi- of every x in one lockstep call:
    # exactly one _count_drops call, in no loop or comprehension
    report = fns["elasticity_report"]
    drops = [node for node in ast.walk(report) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_count_drops"]
    assert len(drops) == 1
    loops = (ast.For, ast.While, ast.ListComp, ast.SetComp, ast.DictComp, ast.GeneratorExp)
    assert not any(drops[0] in set(ast.walk(node))
                   for node in ast.walk(report) if isinstance(node, loops))


T_GRID_ARGS = {"grid", "t_grid", "t_range", "log_t"}
# the calls that turn a t-grid into a t-grid or a log grid
GRID_VALUED = {"asarray", "log", "TGrid", "_log_grid", "_check_counter_grid"}


def _from_t_grid(fn) -> set[str]:
    """The names in fn bound to a t-grid argument, or to a grid made from one
    by indexing or by the calls of ``GRID_VALUED``."""
    names = {a.arg for a in fn.args.args} & T_GRID_ARGS
    assigns = [node for node in ast.walk(fn) if isinstance(node, ast.Assign)
               and _called(node.value) <= GRID_VALUED]
    while True:
        new = {t.id for node in assigns if _names(node.value) & names
               for target in node.targets for t in ast.walk(target) if isinstance(t, ast.Name)}
        if new <= names:
            return names
        names |= new


def test_one_analysis_front_end():
    # counter, elasticity_report, rv_defect and w_witness read their t-grid
    # through _log_grid and omega through _omega_table: only _log_grid takes
    # the log of a raw t-grid (indices keeps its own, set-like one: any order,
    # repeats), only _omega_table shifts the profile by kappa, and only
    # _log_grid checks that a t-grid increases
    tree = ast.parse((SRC / "analysis.py").read_text())
    fns = _functions(tree)
    logs, shifts, increasing = set(), set(), set()
    for fn in fns:
        grid_names = _from_t_grid(fn)
        for node in ast.walk(fn):
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.args and _names(node.args[0]) & grid_names
                    and node.func.attr == "log" and _names(node.func) == {"np", "log"}):
                logs.add(fn.name)
            if (isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
                    and node.func.attr == "log_eval" and node.args
                    and isinstance(node.args[0], ast.BinOp)
                    and isinstance(node.args[0].op, ast.Sub)
                    and _names(node.args[0].right) & {"kappa", "kappas"}):
                shifts.add(fn.name)
            if (isinstance(node, ast.Compare) and isinstance(node.left, ast.Call)
                    and _names(node.left.func) == {"np", "diff"}
                    and _names(node.left) & grid_names
                    and isinstance(node.comparators[0], ast.Constant)
                    and node.comparators[0].value == 0):
                increasing.add(fn.name)
    assert logs == {"_log_grid", "indices"}
    assert shifts == {"_omega_table"}
    assert increasing == {"_log_grid"}
    analyses = {fn.name: fn for fn in fns
                if fn.name in ("counter", "elasticity_report", "rv_defect", "w_witness")}
    assert len(analyses) == 4
    for name, fn in analyses.items():
        assert "_omega_table" in _called(fn), name
        assert not _called(fn) & {"log_eval", "_finite_profile"}, name


def test_one_family_representation():
    # a family of block pairs is two (pairs, width) arrays, in the search and
    # in the transfers alike
    assert list(inspect.signature(InterlacedFamily).parameters) == ["window", "X", "Y"]
    fns = {fn.name for fn in _functions(ast.parse((SRC / "shift.py").read_text()))}
    assert "_family_mats" not in fns
    assert "hasattr" not in _called(ast.parse((SRC / "transfer.py").read_text()))


def test_no_code_generated_at_import():
    # each class is built from its source as written: no module imports
    # dataclasses or a named-tuple factory, or calls exec
    generated = {"dataclasses", "dataclass", "NamedTuple", "namedtuple", "exec"}
    for file in sorted(SRC.glob("*.py")):
        tree = ast.parse(file.read_text())
        imported = {alias.name for node in ast.walk(tree)
                    if isinstance(node, (ast.Import, ast.ImportFrom)) for alias in node.names}
        modules = {node.module for node in ast.walk(tree) if isinstance(node, ast.ImportFrom)}
        assert not generated & (imported | modules | _names(tree)), file.stem


def test_one_k_scan_per_vector():
    # a t-grid goes to the K engine whole: k_profile and k_transfer have no
    # per-t k_numeric loop, k_numeric is the engine's one-point case, and the
    # block estimates read their splits from prefix and suffix norm tables
    fns = {f"{path.stem}.{fn.name}": fn for path in sorted(SRC.glob("*.py"))
           for fn in _functions(ast.parse(path.read_text()))}
    for name in ("kfunc.k_profile", "transfer.k_transfer"):
        assert "_k_grid" in _called(fns[name]), name
        assert not _called(fns[name]) & {"k_numeric", "k_block_estimate"}, name
    assert _called(fns["kfunc.k_numeric"]) == {"_k_grid"}
    assert "_block_points" in _called(fns["kfunc.k_block_estimate"])
    assert _called(fns["transfer.k_transfer"]) >= {"_block_points", "_prefix_norms",
                                                    "_suffix_norms"}
    assert [name for name in fns if name.endswith("._prefix_norms")] == ["kfunc._prefix_norms"]


def test_one_k_level_scan():
    # K against L_infty is the ell_infty case of the split path: one level
    # scan serves both exact routes, and the segment rule and the golden
    # steps run only from it (golden steps also in descent's line search);
    # one front end asks a space for its rows and its weighted-lp form, once
    # per side of the couple
    tree = ast.parse((SRC / "kfunc.py").read_text())
    fns = {fn.name: fn for fn in _functions(tree)}
    assert not {"_k_linf", "_k_l1", "_norm_rows", "_lp_form"} & set(fns)
    # the other np.unique is descent's truncation trials
    assert {name for name, fn in fns.items() if "unique" in _called(fn)} == {
        "_k_path", "_trial_splits"}
    for step in ("_k_linf_at", "_segment_root"):
        assert [name for name, fn in fns.items() if step in _called(fn)] == ["_k_path"], step
    assert {name for name, fn in fns.items() if "_golden_steps" in _called(fn)} == {
        "_k_linf_at", "_golden_min"}
    protocol = {"norm_rows_on", "e_space", "weighted_lp_form_on", "weighted_lp_form"}
    assert {name for name, fn in fns.items() if _called(fn) & protocol} == {"_side"}
    sides = [node for node in ast.walk(fns["_k_grid"]) if isinstance(node, ast.Call)
             and isinstance(node.func, ast.Name) and node.func.id == "_side"]
    assert len(sides) == 2
    assert [name for name, fn in fns.items() if "_side" in _called(fn)] == ["_k_grid"]
    result = next(node for node in tree.body
                  if isinstance(node, ast.ClassDef) and node.name == "KResult")
    assert "upper" not in {fn.name for fn in _functions(result)}


def test_one_representation_of_a_positive_operator():
    # the factor stack is the one stored form of a positive matrix: nothing
    # rebuilds it from the steps, and the matrix, its bounds and its lower
    # search read it
    tree = ast.parse((SRC / "transfer.py").read_text())
    fns = {fn.name: fn for fn in _functions(tree)}
    classes = {node.name: node for node in tree.body if isinstance(node, ast.ClassDef)}
    assert "_Step" not in classes
    assert "_factors" not in fns and not _calls(tree, "_factors")
    assert not _called(classes["PositiveMatrix"]) & {"array", "stack", "vstack"}
    for name in ("apply", "_upper_bound", "_op_norm_lower"):
        assert {"G", "Y", "d"} <= _names(fns[name]), name
    # the rank-one constant reads the block rows of the block sum itself
    assert "Y" in _names(fns["_rank_one_constant"])
    assert "PositiveMatrix" not in _called(fns["_rank_one_constant"])
