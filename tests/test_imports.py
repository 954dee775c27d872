"""Each command loads only what it runs, and the package resolves its names on demand."""

import importlib
import sys

import pytest

import optodicke

from fresh_interpreter import loaded_modules

SUBMODULES = ("model", "solver", "diagram", "rabi", "cli")
# numpy.random pulls in secrets, hashlib and hmac; numpy.ma comes with a plain np.unique.
UNWANTED = ("numpy.random", "numpy.ma")
# What the closed forms, and the commands that print them, run without.
ARRAY_LAYERS = {"numpy", "optodicke.solver", "optodicke.diagram"}
SCALAR_COMMANDS = ("turning-point", "sp-closure")

COMMANDS = [
    ["roots", "--g", "1.5", "--zeta", "1"],
    ["sweep", "--g", "0:3:11", "--zeta", "1"],
    ["phase-diagram", "--g", "0:3:9", "--zeta", "0:3:5"],
    ["turning-point", "--zeta", "1"],
    ["sp-closure"],
    ["rabi-compare", "--g", "0:3:5", "--n-max", "50"],
]


def test_package_import_loads_no_submodule():
    loaded = loaded_modules("import optodicke")
    assert "optodicke" in loaded
    assert not [name for name in loaded if name.startswith("optodicke.")]


def test_cli_import_loads_neither_the_ed_nor_unused_numpy_parts():
    loaded = loaded_modules("import optodicke.cli")
    assert "optodicke.cli" in loaded
    assert not loaded & {"optodicke.rabi", *UNWANTED}


@pytest.mark.parametrize("argv", COMMANDS, ids=[argv[0] for argv in COMMANDS])
def test_command_loads_only_what_it_runs(argv):
    loaded = loaded_modules(argv=argv)
    assert not loaded & set(UNWANTED)
    assert ("optodicke.rabi" in loaded) == (argv[0] == "rabi-compare")
    assert ("numpy" in loaded) == (argv[0] not in SCALAR_COMMANDS)


# A run that must exit with a given code, stderr discarded.
_EXITS = """
import contextlib, io, optodicke.cli
with contextlib.redirect_stderr(io.StringIO()):
    assert optodicke.cli.run({argv!r}) == {code}
"""


@pytest.mark.parametrize("code", [
    "import optodicke.cli",
    "import optodicke\n"
    "assert optodicke.turning_point(optodicke.ModelParams(zeta=1.0)) > 1.0",
    _EXITS.format(argv=["turning-point", "--omega", "-1"], code=2),
    _EXITS.format(argv=["sp-closure", "--omega", "-1"], code=2),
    _EXITS.format(argv=["sp-closure", "--omega", "1e300"], code=2),  # OutOfRange
    _EXITS.format(argv=["turning-point", "--zeta", "0"], code=3),  # NotFound
], ids=["cli", "turning_point", "turning-point-exit-2", "sp-closure-exit-2",
        "sp-closure-out-of-range", "turning-point-exit-3"])
def test_closed_forms_load_no_array_layer(code):
    assert not loaded_modules(code) & ARRAY_LAYERS


@pytest.mark.parametrize("fmt", ["csv", "json"])
@pytest.mark.parametrize("argv", [["turning-point", "--zeta", "1"], ["sp-closure"]],
                         ids=SCALAR_COMMANDS)
def test_scalar_command_loads_no_array_layer(argv, fmt):
    assert not loaded_modules(argv=[*argv, "--format", fmt]) & ARRAY_LAYERS


def test_names_resolve_to_their_submodule_objects():
    assert len(optodicke.__all__) == len(set(optodicke.__all__)) == 22
    for name in optodicke.__all__:
        value = getattr(optodicke, name)
        home = value.__module__
        assert home in {f"optodicke.{module}" for module in SUBMODULES}, name
        assert getattr(importlib.import_module(home), name) is value, name
    assert set(optodicke.__all__) <= set(dir(optodicke))
    assert set(SUBMODULES) <= set(dir(optodicke))


def test_star_import_binds_every_name():
    namespace: dict = {}
    exec("from optodicke import *", namespace)
    assert set(optodicke.__all__) <= set(namespace)
    for name in optodicke.__all__:
        assert namespace[name] is getattr(optodicke, name)


def test_submodules_resolve_as_attributes_in_a_fresh_interpreter():
    check = "\n".join(f"assert optodicke.{name} is sys.modules['optodicke.{name}']"
                      for name in SUBMODULES)
    loaded = loaded_modules("import optodicke\n" + check)
    assert {f"optodicke.{name}" for name in SUBMODULES} <= loaded
    assert all(getattr(optodicke, name) is sys.modules[f"optodicke.{name}"]
               for name in SUBMODULES)


def test_unknown_name_raises_attribute_error():
    with pytest.raises(AttributeError, match="no_such_name"):
        optodicke.no_such_name
