"""numpy is loaded only by array work.

Each check runs in a fresh interpreter, because this test process has numpy
loaded already. Importing the package, running the scalar subcommands and
calling the scalar entry points with Fraction and int arguments must leave
numpy out of sys.modules; the oracle and array curve calls load it.
"""

import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT, SCENARIO_DIR

#: every pinned CLI invocation: the shipped scenarios plus the benchmark's table game
EXPECTED = json.loads((REPO_ROOT / "hsbench" / "cli_expected.json").read_text())


def numpy_loaded(body: str) -> bool:
    """Run body in a new interpreter with src/ first on the path; True if numpy got imported."""
    code = "import sys\nsys.path.insert(0, sys.argv[1])\n" + body + "\nprint('numpy' in sys.modules)\n"
    proc = subprocess.run(
        [sys.executable, "-c", code, str(REPO_ROOT / "src")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr
    return {"True": True, "False": False}[proc.stdout.splitlines()[-1]]


def run_cli(*invocations: tuple[list[str], int]) -> str:
    """Code that runs cli.main on each argv, stdout discarded, and checks its exit code."""
    lines = ["import contextlib, io", "from hazardsignal.cli import main"]
    for argv, code in invocations:
        lines.append("with contextlib.redirect_stdout(io.StringIO()):")
        lines.append(f"    assert main({argv!r}) == {code}, {argv!r}")
    return "\n".join(lines)


def test_package_import_leaves_numpy_unloaded():
    assert not numpy_loaded("import hazardsignal\nimport hazardsignal.cli")


@pytest.mark.parametrize("command", ["solve", "sweep", "optimize-p", "optimize-s"])
def test_scalar_subcommands_leave_numpy_unloaded(command):
    invocations = [
        ([command, key.split(" ")[1]], want["exit"])
        for key, want in EXPECTED.items()
        if key.split(" ")[0] == command
    ]
    assert len(invocations) == 4
    assert not numpy_loaded(run_cli(*invocations))


def test_fraction_and_int_arguments_leave_numpy_unloaded():
    # curve calls, an inverse, posterior_no_signal, a profile's fixed point and a sweep
    assert not numpy_loaded((REPO_ROOT / "tests" / "scalar_calls.py").read_text(encoding="utf-8"))


def test_rejected_text_leaves_numpy_unloaded():
    # the scalar path refuses text itself rather than handing it to np.asarray
    assert not numpy_loaded(
        "import hazardsignal as hs\n"
        "try:\n"
        "    hs.AffineHazard(0.5, 0.2)('0.5')\n"
        "except hs.InputError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('a str argument was accepted')"
    )


@pytest.mark.parametrize(
    "body",
    [
        run_cli(
            (["oracle-check", str(SCENARIO_DIR / "zero_signal_optimum.scn"), "--grid-step", "0.1"], 0)
        ),
        "import hazardsignal as hs\nhs.TableHazard(((0.0, 0.1), (1.0, 0.9)))([0.25, 0.5])",
    ],
    ids=["oracle-check", "table-array-call"],
)
def test_array_work_loads_numpy(body):
    assert numpy_loaded(body)
