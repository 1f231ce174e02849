"""What each entry loads: ``import orbitinv`` loads no submodule, the notation
loads no operation, and each CLI subcommand loads only the modules it runs.

The load checks run in fresh interpreters and read ``sys.modules``.
"""

import importlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

import orbitinv

SRC = Path(__file__).resolve().parents[1] / "src"
ENV = dict(os.environ, PYTHONPATH=str(SRC))

# Prints the loaded ``orbitinv`` modules, space-separated and sorted.
LOADED = ('print(" ".join(sorted(m for m in sys.modules '
          'if m == "orbitinv" or m.startswith("orbitinv."))))')


def fresh(code: str, *argv: str, flags=()) -> str:
    proc = subprocess.run([sys.executable, *flags, "-c", code, *argv], env=ENV,
                          capture_output=True, text=True, timeout=60)
    assert proc.stderr == "", proc.stderr
    return proc.stdout


def loaded_by(code: str) -> set[str]:
    return set(fresh(f"import sys\n{code}\n{LOADED}").split())


class TestPackageImport:
    def test_import_loads_no_submodule(self):
        assert loaded_by("import orbitinv") == {"orbitinv"}

    def test_notation_loads_no_operation(self):
        assert loaded_by("import orbitinv.textio") == {
            "orbitinv", "orbitinv.textio", "orbitinv.invariants", "orbitinv.cyclegraph"}

    def test_first_access_loads_the_submodule(self):
        assert loaded_by("import orbitinv\norbitinv.textio.parse('{b=0;(o,g=0,f=1,s=0,t=0)}')") == {
            "orbitinv", "orbitinv.textio", "orbitinv.invariants", "orbitinv.cyclegraph"}
        assert "orbitinv.capping" in loaded_by("from orbitinv import cap_off")

    def test_star_import_under_warnings_as_errors(self):
        code = ("from orbitinv import *\nimport orbitinv\n"
                "assert sorted(k for k in globals() if not k.startswith('_')) "
                "== sorted([*orbitinv.__all__, 'orbitinv'])\nprint('ok')")
        assert fresh(code, flags=("-W", "error")) == "ok\n"


# The submodules behind the package's names, and the count of those names.
MODULES = ["capping", "census", "cyclegraph", "elements", "formality", "invariants",
           "jsonio", "polyq", "series", "textio"]
NAME_COUNT = 63


class TestExportTable:
    def test_table_covers_every_library_module(self):
        files = {p.stem for p in (SRC / "orbitinv").glob("*.py")}
        assert sorted(orbitinv._EXPORTS) == MODULES == sorted(files - {"__init__", "cli"})

    def test_names_are_unique(self):
        assert len(orbitinv.__all__) == len(set(orbitinv.__all__)) == NAME_COUNT

    @pytest.mark.parametrize("name", sorted(orbitinv._ORIGIN))
    def test_name_resolves_to_its_module_attribute(self, name):
        module = importlib.import_module(f"orbitinv.{orbitinv._ORIGIN[name]}")
        assert orbitinv.__getattr__(name) is getattr(module, name)
        assert getattr(orbitinv, name) is getattr(module, name)

    @pytest.mark.parametrize("name", MODULES)
    def test_submodule_attribute(self, name):
        module = importlib.import_module(f"orbitinv.{name}")
        assert orbitinv.__getattr__(name) is module
        assert getattr(orbitinv, name) is module

    def test_dir_lists_names_and_submodules(self):
        assert set(orbitinv.__all__) | set(MODULES) <= set(dir(orbitinv))
        assert "__version__" in dir(orbitinv)

    def test_unknown_name_is_an_attribute_error(self):
        with pytest.raises(AttributeError, match="has no attribute 'cli_main'"):
            orbitinv.cli_main
        assert not hasattr(orbitinv, "to_json")


BASE = {"orbitinv", "orbitinv.cli", "orbitinv.textio", "orbitinv.invariants",
        "orbitinv.cyclegraph"}
SERIES = {"orbitinv.series", "orbitinv.polyq"}
FORMALITY = {"orbitinv.formality", "orbitinv.elements", *SERIES}
# The encoder imports every result type it encodes.
JSON = {"orbitinv.jsonio", "orbitinv.capping", *FORMALITY}
DATUM = "{b=0;(o,g=1,f=2,s=1,t=0)}"
SUBCOMMANDS = {
    "validate": (["validate", DATUM], set()),
    "canon": (["canon", DATUM], set()),
    "equiv": (["equiv", DATUM, DATUM], set()),
    "classify2d": (["classify2d", "1", "1", "0"], set()),
    "cap": (["cap", "{b=0;(o,g=0,f=0,s=0,t=1);G=[<F,RP,SE,RP>]}"], {"orbitinv.capping"}),
    "betti": (["betti", DATUM], SERIES),
    "poincare": (["poincare", DATUM, "--upto", "3"], SERIES),
    "formal": (["formal", DATUM], FORMALITY),
    "euler": (["euler", "{b=1;(o,g=0,f=0,s=0,t=0);(3,2),(5,3)}"], FORMALITY),
    "enumerate": (["enumerate", "--bounds", "max_g=0", "max_f=1"], {"orbitinv.census"}),
}
RUN_CLI = ("import contextlib, io, sys\nfrom orbitinv.cli import main\n"
           "with contextlib.redirect_stdout(io.StringIO()):\n"
           "    assert main(sys.argv[1:]) == 0\n" + LOADED)


class TestSubcommandLoads:
    def test_every_subcommand_pinned(self):
        from orbitinv.cli import COMMANDS

        assert sorted(SUBCOMMANDS) == sorted(COMMANDS)

    @pytest.mark.parametrize("command", SUBCOMMANDS)
    def test_loads_only_its_modules(self, command):
        argv, extra = SUBCOMMANDS[command]
        assert set(fresh(RUN_CLI, *argv).split()) == BASE | extra

    @pytest.mark.parametrize("command", ["validate", "poincare", "enumerate"])
    def test_json_loads_the_encoder(self, command):
        argv, extra = SUBCOMMANDS[command]
        assert set(fresh(RUN_CLI, *argv, "--json").split()) == BASE | extra | JSON
