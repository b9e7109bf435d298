import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str, *args: str) -> subprocess.CompletedProcess:
    """``python -c code args`` run in a fresh interpreter with the checkout's
    ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    return subprocess.run([sys.executable, "-c", code, *args], env=env, capture_output=True,
                          text=True, check=True, timeout=60)


def run_cli(*argv: str) -> tuple[int, str, bool]:
    """(exit code, standard error, whether numpy was loaded) of ``bispinor
    argv`` run to its end in a fresh interpreter."""
    out = run_python("import sys\n"
                     "from bispinor import cli\n"
                     "try:\n"
                     "    rc = cli.main(sys.argv[1:])\n"
                     "except SystemExit as exc:\n"
                     "    rc = exc.code\n"
                     "print('numpy' in sys.modules, rc)", *argv)
    loaded, rc = out.stdout.split()[-2:]
    return int(rc), out.stderr, loaded == "True"


def test_import_loads_no_heavy_dependencies():
    code = ("import sys, bispinor, bispinor.harness; "
            "print(sorted({'scipy', 'sympy', 'hypothesis', 'pandas'} & set(sys.modules)))")
    assert run_python(code).stdout.strip() == "[]"


def test_cli_import_leaves_the_registry_unloaded():
    # spectrum and texture never run a check, so they do not load the registry
    code = ("import sys, bispinor.cli; "
            "print('bispinor.harness.checks' in sys.modules); "
            "from bispinor.harness import run_all; "
            "print(run_all.__module__)")
    assert run_python(code).stdout.split() == ["False", "bispinor.harness.checks"]


def test_cli_import_leaves_the_report_unloaded():
    # the exporters write no conformance report; the package serves the
    # report classes on first use
    code = ("import sys, bispinor.cli; "
            "print('bispinor.harness.report' in sys.modules); "
            "from bispinor.harness import ConformanceReport, ReportEntry; "
            "print(ConformanceReport.__module__, ReportEntry.__module__)")
    assert run_python(code).stdout.split() == ["False", "bispinor.harness.report",
                                        "bispinor.harness.report"]


def test_cli_import_leaves_the_physics_modules_unloaded():
    # the exporters need only multivector and spectrum; the package init
    # imports no submodule
    code = ("import sys, bispinor.cli; "
            "print(sorted(m for m in ('biortho', 'momenta', 'timereversal', 'ideal') "
            "if 'bispinor.' + m in sys.modules))")
    assert run_python(code).stdout.strip() == "[]"


def test_import_loads_neither_dataclasses_nor_inspect():
    # @dataclass pulled in inspect, dis, tokenize and ast: most of the
    # package's import time (the configuration and report are namedtuples)
    code = ("import sys; before = set(sys.modules); import bispinor, bispinor.harness; "
            "print(sorted({'dataclasses', 'inspect'} & (set(sys.modules) - before)))")
    assert run_python(code).stdout.strip() == "[]"


def test_cli_import_loads_no_numpy():
    code = "import sys, bispinor.cli; print('numpy' in sys.modules)"
    assert run_python(code).stdout.strip() == "False"


def test_help_and_config_errors_finish_without_numpy():
    # numpy loads only once a command has valid work to do
    assert run_cli("--help") == (0, "", False)
    assert run_cli("spectrum", "--gamma=2") == (
        2, "error: gamma=2.0 outside the open unit interval (-1, 1)\n", False)
    rc, err, loaded = run_cli("spectrum", "--bogus")
    assert (rc, loaded) == (2, False) and "unrecognized arguments: --bogus" in err


def test_valid_export_loads_numpy():
    assert run_cli("spectrum", "--gamma=0.3", "--beta=1", "--grid=-1:1:2") == (0, "", True)
