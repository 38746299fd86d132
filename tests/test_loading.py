"""Import cost follows use.

``import couplekit`` loads no submodule; the first read of an exported name
loads the module that defines it and what that module imports, and each CLI
command imports its own modules.  Each load is checked in a fresh
interpreter, since this one has loaded every module already.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import couplekit

ROOT = Path(__file__).resolve().parent.parent
PERFBENCH = ROOT / "perfbench"

# the names the package exported when it imported every submodule eagerly,
# each under the module that defines it now
EXPORTED = {
    "analysis": "IndexReport TGrid counter elasticity_report indices lambda_seq phi_minus "
                "phi_plus rv_defect w_witness",
    "errors": "ConvergenceError CoupleKitError HypothesisError UsageError",
    "kappa": "KappaEstimate kappa_estimate",
    "kfunc": "KResult SeparationFit fit_separation k_block_estimate k_l1_linf_oracle k_numeric "
             "k_profile rho_profile",
    "measure": "HALFLINE UNIT SeqVec StepFunction Window char_fn default_unit_window "
               "dyadic_envelope rearrange zero_fn",
    "orlicz": "ConvexifiedFn MinimalFn OrliczFn brudnyi_pair brudnyi_schedule convexify "
              "elastic_non_lorentz example1 logfactor_fn power pwpower sample_profile",
    "shift": "LSP RSP InterlacedFamily ShiftEstimate ShiftWitness family_ratio gen_interlaced "
             "replay_witness shift_constant_estimate shift_schedule",
    "spaces": "BoydIndices FromSequenceSpace GeometricWeighted InducedSeq LinftySeq "
              "LorentzSpace LpSpace OrderReversed OrliczModular OrliczSpace PowerWeight "
              "SeqSpaceSpec SpaceSpec WeightedLp dyadic_lp linf_space",
    "specdsl": "parse_any_space parse_generator parse_seq_space parse_space",
    "transfer": "PositiveMatrix k_transfer majorization_transfer op_norm rank_one_shift",
    "verdict": "CoupleReport brudnyi_evidence classify_couple",
}
NAMES = {name: module for module, names in EXPORTED.items() for name in names.split()}

# a benchmark workload's set-up, as perfbench/run.py makes it: build the
# workload on the package, draw its first round and warm up
_SET_UP = """
import tempfile
import couplekit as ck
from workloads import WORKLOADS, Notes
with tempfile.TemporaryDirectory() as tmp:
    wl = WORKLOADS[{workload!r}](ck, 7, Notes(), tmp)
    wl.round(0)
    wl.warmup()
"""


def _run(code: str) -> str:
    """stdout of ``code`` in a fresh interpreter that imports couplekit from
    this checkout and the benchmark's modules from perfbench/."""
    path = [os.path.dirname(couplekit.__path__[0]), str(PERFBENCH), os.environ.get("PYTHONPATH", "")]
    env = {**os.environ, "PYTHONPATH": os.pathsep.join(path)}
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                          text=True, timeout=120)
    assert proc.returncode == 0, proc.stderr
    return proc.stdout


def _loaded(code: str) -> set[str]:
    """The couplekit submodules loaded once ``code`` has run."""
    probe = code + ("\nimport json, sys\nprint(json.dumps(sorted(m.partition('.')[2] for m in "
                    "sys.modules if m.startswith('couplekit.'))))\n")
    return set(json.loads(_run(probe).splitlines()[-1]))


def test_import_loads_no_submodule():
    assert _loaded("import couplekit") == set()


def test_orlicz_shift_set_up_loads_only_the_orlicz_stack():
    assert _loaded(_SET_UP.format(workload="orlicz-shift")) == {
        "errors", "measure", "ascent", "orlicz", "spaces", "shift"}


def test_kfunc_transfer_set_up_loads_no_orlicz_module():
    loaded = _loaded(_SET_UP.format(workload="kfunc-transfer"))
    assert {"kfunc", "transfer", "spaces"} <= loaded
    assert not {"orlicz", "analysis", "kappa", "specdsl", "verdict"} & loaded


def _cli_loaded(argv: list[str]) -> set[str]:
    """The submodules loaded by one ``cli.main`` call that exits 0."""
    return _loaded(f"from couplekit import cli\nassert cli.main({argv!r}) == 0\n")


def test_readme_shift_test_loads_no_analysis_kappa_or_k_module(tmp_path):
    # the README's shift-test space, side and window, at a smaller budget
    argv = ["shift-test", "--space", "seq:from:<seq:orlicz-modular:gen=<example1>>,"
            "weightbase=1.4142135623730951", "--side", "rsp", "--window=-64:-1",
            "--budget", "200", "--seed", "11", "--out", str(tmp_path / "shift.json")]
    loaded = _cli_loaded(argv)
    assert {"shift", "spaces", "orlicz"} <= loaded
    assert not {"analysis", "kappa", "kfunc", "transfer", "verdict"} & loaded


def test_exact_verdict_loads_no_analysis_or_kappa(tmp_path):
    loaded = _cli_loaded(["verdict", "--X", "lp:p=2", "--Y", "linf",
                          "--out", str(tmp_path / "verdict.json")])
    assert {"verdict", "spaces"} <= loaded
    assert not {"analysis", "kappa"} & loaded


def test_generate_command_loads_no_search_or_k_module(tmp_path):
    dump = tmp_path / "grid.csv"
    code = ("from couplekit import cli\n"
            f"assert cli.main(['generate', '--gen', 'power:p=2', '--dump', {str(dump)!r}, "
            "'--points', '5']) == 0\n")
    loaded = _loaded(code)
    assert dump.read_text().count("\n") == 6
    assert {"cli", "specdsl", "orlicz"} <= loaded
    assert not {"kfunc", "transfer", "shift", "verdict", "spaces", "ascent", "analysis",
                "kappa"} & loaded


def test_every_exported_name_is_its_module_attribute():
    for name, module in NAMES.items():
        assert getattr(couplekit, name) is getattr(getattr(couplekit, module), name), name


def test_dir_and_star_import_list_every_exported_name():
    assert set(NAMES) <= set(dir(couplekit))
    assert {"orlicz", "spaces", "cli", "__version__"} <= set(dir(couplekit))
    namespace = {}
    exec("from couplekit import *", namespace)
    assert set(NAMES) <= set(namespace)


def test_unknown_name_is_an_attribute_error():
    assert not hasattr(couplekit, "no_such_name")


def test_benchmark_tracer_wraps_the_lazily_loaded_layers():
    # the tracer reads each layer as an attribute of the package and rebinds
    # the names resolved before it was installed, as the benchmark's set-up
    # resolves k_numeric
    code = f"""
import importlib.util, sys
import couplekit
spec = importlib.util.spec_from_file_location("tracer", {str(PERFBENCH / "tracer.py")!r})
tracer = importlib.util.module_from_spec(spec)
spec.loader.exec_module(tracer)
k_numeric = couplekit.k_numeric
tr = tracer.Tracer()
tr.install(couplekit)
for layer in tracer.LAYERS:
    assert getattr(couplekit, layer) is sys.modules["couplekit." + layer], layer
assert couplekit.k_numeric is not k_numeric
tr.active = True
couplekit.k_numeric(0.5, couplekit.char_fn(0, 0.5), couplekit.LpSpace(1), couplekit.linf_space())
tr.active = False
print([tr.names[i] for i in tr.span_name])
"""
    assert "kfunc.k_numeric" in _run(code)
