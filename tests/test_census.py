"""``tools/census.py`` enumerates every def the package holds and attributes
a call made under its hook to the def that was called; the census runs
themselves take minutes and are not run here."""

import builtins
import importlib
import importlib.util
import inspect
from importlib.machinery import SourceFileLoader
from pathlib import Path

_PATH = Path(__file__).resolve().parent.parent / "tools" / "census.py"
_spec = importlib.util.spec_from_file_location("census_tool", _PATH)
census = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(census)


def _members(obj):
    """The functions bound in a module's or class's namespace, unwrapped
    from static and class methods, properties and caches; nested classes too."""
    for value in vars(obj).values():
        if isinstance(value, (staticmethod, classmethod)):
            value = value.__func__
        if isinstance(value, property):
            yield from (f for f in (value.fget, value.fset, value.fdel) if f is not None)
        elif inspect.isclass(value):
            yield value
        elif callable(value):
            yield inspect.unwrap(value)


def test_enumeration_finds_every_def_the_modules_bind():
    found = set()
    for file in census.PACKAGE.glob("*.py"):
        module = importlib.import_module(f"couplekit.{file.stem}" if file.stem != "__init__"
                                         else "couplekit")
        path = str(file.resolve())
        todo = [module]
        while todo:
            for member in _members(todo.pop()):
                if inspect.isclass(member):
                    if member.__module__ == module.__name__:
                        todo.append(member)
                elif (inspect.isfunction(member) and member.__code__.co_filename == path
                      and member.__name__ != "<lambda>"):
                    found.add((path, member.__code__.co_firstlineno))
    defs = census.enumerate_defs()
    assert {d.key for d in defs} == found
    assert len(defs) == len(found) and all(d.lines >= 2 for d in defs)


def test_a_call_under_the_hook_is_attributed_to_its_def():
    from couplekit.measure import Window

    names = {d.key: d.name for d in census.enumerate_defs()}
    win = Window("Z", 0, 3)
    with census.recording() as seen:
        win.reversed()
    # genexprs and nested helpers have code objects of their own, not defs
    called = {names[key] for key in census.reached(seen) if key in names}
    assert called == {"measure.Window.reversed", "measure.Window.__init__"}


def test_load_table_sizes_each_loaded_module_and_its_called_def_lines():
    import couplekit.errors  # noqa: F401

    assert {"__init__", "errors"} <= set(census.loaded_modules())
    text = (census.PACKAGE / "errors.py").read_text()
    lines, tokens = census.module_size("errors")
    assert lines == text.count("\n") and tokens > lines
    defs = census.enumerate_defs()
    check = next(d for d in defs if d.name == "errors.check_budget")
    runs_of = {d: ["w"] if d is check else [] for d in defs}
    header, row, total = census.load_table("w", ["errors"], runs_of)
    assert row.split() == ["#", "errors", f"{lines:,d}", f"{tokens:,d}", str(check.lines),
                           "/", str(check.lines)]
    assert total.split()[1] == "total" and total.split()[2:] == row.split()[2:]


def test_setup_timers_split_compiling_from_building_classes(tmp_path):
    build_class = builtins.__build_class__
    path = tmp_path / "census_probe.py"
    path.write_text("import dataclasses\n\n\nclass A:\n    class B:\n        pass\n\n\n"
                    "@dataclasses.dataclass\nclass C:\n    x: int = 0\n")
    spec = importlib.util.spec_from_file_location("census_probe", path)
    module = importlib.util.module_from_spec(spec)
    with census.setup_timers() as (spent, calls):
        spec.loader.exec_module(module)
    # B is built inside A's body, so it is A's time; C is a class and a dataclass
    assert calls == {"compile (other)": 1, "classes": 2, "dataclasses": 1}
    assert spent.keys() == calls.keys() and all(s > 0 for s in spent.values())
    assert builtins.__build_class__ is build_class
    assert "source_to_code" not in vars(SourceFileLoader)
    assert module.C(3).x == 3
