import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[1] / "src"


def run_python(code: str) -> str:
    """Standard output of ``python -c code`` in a fresh interpreter with the
    checkout's ``src`` first on the path."""
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(filter(None, [str(SRC), env.get("PYTHONPATH")]))
    out = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True,
                         text=True, check=True, timeout=60)
    return out.stdout


def test_import_loads_no_heavy_dependencies():
    code = ("import sys, bispinor, bispinor.harness; "
            "print(sorted({'scipy', 'sympy', 'hypothesis', 'pandas'} & set(sys.modules)))")
    assert run_python(code).strip() == "[]"


def test_cli_import_leaves_the_registry_unloaded():
    # spectrum and texture never run a check, so they do not load the registry
    code = ("import sys, bispinor.cli; "
            "print('bispinor.harness.checks' in sys.modules); "
            "from bispinor.harness import run_all; "
            "print(run_all.__module__)")
    assert run_python(code).split() == ["False", "bispinor.harness.checks"]


def test_cli_import_leaves_the_report_unloaded():
    # the exporters write no conformance report; the package serves the
    # report classes on first use
    code = ("import sys, bispinor.cli; "
            "print('bispinor.harness.report' in sys.modules); "
            "from bispinor.harness import ConformanceReport, ReportEntry; "
            "print(ConformanceReport.__module__, ReportEntry.__module__)")
    assert run_python(code).split() == ["False", "bispinor.harness.report",
                                        "bispinor.harness.report"]


def test_cli_import_leaves_the_physics_modules_unloaded():
    # the exporters need only multivector and spectrum; the package init
    # imports no submodule
    code = ("import sys, bispinor.cli; "
            "print(sorted(m for m in ('biortho', 'momenta', 'timereversal', 'ideal') "
            "if 'bispinor.' + m in sys.modules))")
    assert run_python(code).strip() == "[]"
