"""The record types keep their constructors, equality, hashing, read-only
fields, reprs and JSON key orders: each case below was read off the
records' behaviour and is checked field by field."""

import inspect
import math

import numpy as np
import pytest

from couplekit.analysis import ElasticityReport, IndexReport, WWitnessReport
from couplekit.errors import UsageError
from couplekit.kappa import KappaEstimate
from couplekit.fnspaces import BoydIndices, PowerWeight, StepFunction
from couplekit.kfunc import KResult, SeparationFit
from couplekit.measure import Window
from couplekit.shift import InterlacedFamily, ShiftEstimate, ShiftWitness
from couplekit.transfer import _LowerSearch
from couplekit.verdict import CoupleReport

_FAM = InterlacedFamily(Window("Z", 0, 1), [[1.0, 0.0]], [[0.0, 1.0]])
_FAM_REPR = ("InterlacedFamily(window=Window(kind='Z', lo=0, hi=1), "
             "X=array([[1., 0.]]), Y=array([[0., 1.]]))")
_ARR = (np.array([1.0]), np.array([0]), np.array([1]))

# class, required arguments, optional parameters with their defaults, repr
# of the record built from the required arguments alone
CASES = [
    (StepFunction, dict(domain="unit", breakpoints=(0, 0.5, 1), values=(2, 1)), {},
     "StepFunction(domain='unit', breakpoints=(0.0, 0.5, 1.0), values=(2.0, 1.0))"),
    (Window, dict(kind="Z-", lo=-4, hi=-1), {}, "Window(kind='Z-', lo=-4, hi=-1)"),
    (PowerWeight, dict(exponent=0.5), {}, "PowerWeight(exponent=0.5)"),
    (BoydIndices, dict(p=1.0, q=2.0, p_err=0.0, q_err=0.1, method="analytic"), {},
     "BoydIndices(p=1.0, q=2.0, p_err=0.0, q_err=0.1, method='analytic')"),
    (InterlacedFamily, dict(window=_FAM.window, X=_FAM.X, Y=_FAM.Y), {}, _FAM_REPR),
    (ShiftWitness, dict(space_spec="seq:lp:p=2", side="rsp", window=_FAM.window,
                        family=_FAM, alpha=[1.0], ratio=1.0, seed=0), {},
     f"ShiftWitness(space_spec='seq:lp:p=2', side='rsp', window=Window(kind='Z', lo=0, "
     f"hi=1), family={_FAM_REPR}, alpha=[1.0], ratio=1.0, seed=0)"),
    (ShiftEstimate, dict(c_hat=1.0, witness=None, side="rsp", evals=3, budget=10),
     dict(history=[], stop="budget", upper=None),
     "ShiftEstimate(c_hat=1.0, witness=None, side='rsp', evals=3, budget=10, "
     "history=[], stop='budget', upper=None)"),
    (KResult, dict(t=1.0, value=2.0, lower=1.5, x_mass=1.0, y_mass=1.0, sweeps=1,
                   converged=True), dict(split=None),
     "KResult(t=1.0, value=2.0, lower=1.5, x_mass=1.0, y_mass=1.0, sweeps=1, "
     "converged=True)"),
    (SeparationFit, dict(beta=0.5, C0=1.0, separated=True), dict(residuals={}, rho={}),
     "SeparationFit(beta=0.5, C0=1.0, separated=True, residuals={}, rho={})"),
    (KappaEstimate, dict(plus_lb=2.0, plus_est=2.0, minus_lb=0.5, minus_est=0.5),
     dict(table={}, table_ub={}, plus_ub=math.inf, minus_ub=math.inf),
     "KappaEstimate(plus_lb=2.0, plus_est=2.0, minus_lb=0.5, minus_est=0.5, table={}, "
     "table_ub={}, plus_ub=inf, minus_ub=inf)"),
    (CoupleReport, dict(spaces={}, indices={}, applicable=[], verdict="v", caveat_level="c"),
     dict(evidence={}, reasons=[], seeds={}, windows={}),
     "CoupleReport(spaces={}, indices={}, applicable=[], verdict='v', caveat_level='c', "
     "evidence={}, reasons=[], seeds={}, windows={})"),
    (IndexReport, dict(alpha_inf=1.0, beta_inf=2.0, alpha_0=1.5, beta_0=2.5, delta2=0.0,
                       err_inf=0.01, err_0=0.02), {},
     "IndexReport(alpha_inf=1.0, beta_inf=2.0, alpha_0=1.5, beta_0=2.5, delta2=0.0, "
     "err_inf=0.01, err_0=0.02)"),
    (ElasticityReport, dict(x_grid=_ARR[0], phi_plus=_ARR[1], phi_minus=_ARR[2], fit_r=1.0,
                            fit_logC1=0.0, fit_residual=0.0, classification="elastic",
                            side="plus", C0=2.0), {},
     "ElasticityReport(x_grid=array([1.]), phi_plus=array([0]), phi_minus=array([1]), "
     "fit_r=1.0, fit_logC1=0.0, fit_residual=0.0, classification='elastic', side='plus', "
     "C0=2.0)"),
    (WWitnessReport, dict(log_t=_ARR[0], w=_ARR[0], C1=1.0, C0=2.0), {},
     "WWitnessReport(log_t=array([1.]), w=array([1.]), C1=1.0, C0=2.0)"),
    (_LowerSearch, dict(lower=1.0, upper=None, evals=0, stop="upper"), {},
     "_LowerSearch(lower=1.0, upper=None, evals=0, stop='upper')"),
]
_IDS = [c[0].__name__ for c in CASES]
FROZEN = (StepFunction, Window, PowerWeight)


@pytest.mark.parametrize("cls, required, optional, text", CASES, ids=_IDS)
def test_constructor_repr_and_defaults(cls, required, optional, text):
    params = inspect.signature(cls).parameters
    assert list(params) == [*required, *optional]
    assert [n for n, p in params.items() if p.default is not p.empty] == list(optional)
    rec = cls(*required.values())
    assert repr(rec) == text
    assert repr(cls(**required)) == text
    for name, default in optional.items():
        assert getattr(rec, name) == default, name
    # a default container is the record's own
    other = cls(*required.values())
    for name, default in optional.items():
        if isinstance(default, (list, dict)):
            assert getattr(rec, name) is not getattr(other, name), name


@pytest.mark.parametrize("cls, required, optional, text", CASES, ids=_IDS)
def test_equality_and_hash(cls, required, optional, text):
    a, b = cls(*required.values()), cls(*required.values())
    assert a == a and not a != a
    if cls is not _LowerSearch:  # a record never equals a tuple of its fields
        assert a != tuple(required.values())
    if cls is InterlacedFamily:  # identity equality, identity hash
        assert a != b and hash(a) != hash(b)
        return
    assert a == b and not a != b
    name, value = next(iter(required.items()))
    changed = {**required, name: "Z" if cls is Window else
               "halfline" if cls is StepFunction else 0.25 if cls is PowerWeight else None}
    assert a != cls(**changed)
    if cls in FROZEN:
        assert hash(a) == hash(b) and len({a, b}) == 1
    elif cls is not _LowerSearch:
        with pytest.raises(TypeError):
            hash(a)


@pytest.mark.parametrize("cls", FROZEN, ids=lambda c: c.__name__)
def test_frozen_fields_refuse_assignment(cls):
    required = next(c[1] for c in CASES if c[0] is cls)
    rec = cls(**required)
    for name in required:
        with pytest.raises(AttributeError):
            setattr(rec, name, None)
        with pytest.raises(AttributeError):
            delattr(rec, name)
        assert getattr(rec, name) is not None
    if cls is StepFunction:  # the derived arrays are read-only too
        with pytest.raises(AttributeError):
            rec.lengths = None
        assert rec.lengths.tolist() == [0.5, 0.5]


def test_mutable_records_take_assignment():
    k = KResult(1.0, 2.0, 1.5, 1.0, 1.0, 1, True)
    k.value = 3.0
    assert k.value == 3.0 and k == KResult(1.0, 3.0, 1.5, 1.0, 1.0, 1, True)


def test_constructor_checks_still_run():
    with pytest.raises(ValueError, match="window needs lo <= hi"):
        Window("Z", 1, 0)
    with pytest.raises(ValueError, match="positive exponent"):
        PowerWeight(0.0)
    with pytest.raises(ValueError, match="strictly increasing"):
        StepFunction("unit", (0, 0.5, 0.5), (1, 1))
    with pytest.raises(UsageError, match="side must be"):
        ShiftWitness("seq:lp:p=2", "up", _FAM.window, _FAM, [1.0], 1.0, 0)
    with pytest.raises(UsageError, match="non-finite"):
        InterlacedFamily(_FAM.window, [[np.nan, 0.0]], [[0.0, 1.0]])


def test_json_key_order():
    cases = {
        "Window": (Window("Z", 0, 1), ["kind", "lo", "hi"]),
        "BoydIndices": (BoydIndices(1.0, 2.0, 0.0, 0.1, "analytic"),
                        ["p", "q", "p_err", "q_err", "method"]),
        "IndexReport": (IndexReport(1.0, 2.0, 1.5, 2.5, 0.0, 0.01, 0.02),
                        ["alpha_inf", "beta_inf", "alpha_0", "beta_0", "delta2", "err_inf",
                         "err_0", "boyd_unit", "boyd_halfline"]),
        "InterlacedFamily": (_FAM, ["window", "pairs"]),
        "ShiftWitness": (ShiftWitness("seq:lp:p=2", "rsp", _FAM.window, _FAM, [1.0], 1.0, 0),
                         ["space", "side", "window", "family", "alpha", "ratio", "seed"]),
        "CoupleReport": (CoupleReport({}, {}, [], "v", "c"),
                         ["spaces", "indices", "theorem", "applicable_theorems", "verdict",
                          "caveat_level", "evidence", "reasons", "seeds", "windows"]),
        "ElasticityReport": (ElasticityReport(*_ARR, 1.0, 0.0, 0.0, "elastic", "plus", 2.0),
                             ["C0", "side", "x", "phi_plus", "phi_minus", "fit",
                              "classification"]),
    }
    for name, (rec, keys) in cases.items():
        assert list(rec.to_json_dict()) == keys, name
    assert IndexReport(1.0, 2.0, 1.5, 2.5, 0.0, 0.01, 0.02).to_json_dict() == {
        "alpha_inf": 1.0, "beta_inf": 2.0, "alpha_0": 1.5, "beta_0": 2.5, "delta2": 0.0,
        "err_inf": 0.01, "err_0": 0.02, "boyd_unit": [1.0, 2.0], "boyd_halfline": [1.0, 2.5]}
