"""numpy is loaded only by the oracle's scan.

Only oracle.py imports numpy, which the first test checks in the source.
The others run in a fresh interpreter, because this test process has numpy
loaded already. Scalar work runs with sys.modules["numpy"] set to None, so
any import of numpy raises ImportError there, as it does where numpy is not
installed: importing the package, refusing text and lists, the scalar entry
points called with Fraction and int arguments, and the scalar subcommands,
whose pinned invocations must keep the exit codes and stdout digests that
hsbench/cli_expected.json records. oracle-check loads numpy.
"""

import ast
import json
import subprocess
import sys

import pytest

from conftest import REPO_ROOT

#: every pinned CLI invocation: the shipped scenarios plus the benchmark's table game
EXPECTED = json.loads((REPO_ROOT / "hsbench" / "cli_expected.json").read_text())


def run_child(body: str, numpy: bool = False) -> None:
    """Run body in a new interpreter with src/ first on the path; it must exit 0.

    numpy cannot be imported there unless numpy is True, and then body must import it.
    """
    code = "import sys\nsys.path.insert(0, sys.argv[1])\n"
    if numpy:
        body += "\nassert 'numpy' in sys.modules, 'numpy was not imported'"
    else:
        code += "sys.modules['numpy'] = None\n"
    proc = subprocess.run(
        [sys.executable, "-c", code + body, str(REPO_ROOT / "src")],
        cwd=REPO_ROOT,
        capture_output=True,
        text=True,
        timeout=120,
    )
    assert proc.returncode == 0, proc.stderr


def run_cli(*keys: str) -> str:
    """Code that runs cli.main on each pinned invocation and checks its exit code and stdout digest."""
    lines = ["import contextlib, hashlib, io", "from hazardsignal.cli import main"]
    for key in keys:
        want = EXPECTED[key]
        lines += [
            "with contextlib.redirect_stdout(io.StringIO()) as out:",
            f"    code = main({key.split(' ')!r})",
            "got = code, hashlib.sha256(out.getvalue().encode('utf-8')).hexdigest()",
            f"assert got == ({want['exit']}, {want['sha256']!r}), ({key!r}, got)",
        ]
    return "\n".join(lines)


def test_numpy_imports_live_in_the_oracle_only():
    importers = set()
    for path in sorted((REPO_ROOT / "src" / "hazardsignal").glob("*.py")):
        for node in ast.walk(ast.parse(path.read_text(encoding="utf-8"))):
            if isinstance(node, ast.Import):
                names = [alias.name for alias in node.names]
            elif isinstance(node, ast.ImportFrom):
                names = [node.module or ""]
            else:
                continue
            if any(name == "numpy" or name.startswith("numpy.") for name in names):
                importers.add(path.name)
    assert importers == {"oracle.py"}


def test_package_import_leaves_numpy_unloaded():
    run_child("import hazardsignal\nimport hazardsignal.cli")


@pytest.mark.parametrize("command", ["solve", "sweep", "optimize-p", "optimize-s"])
def test_scalar_subcommands_leave_numpy_unloaded(command):
    keys = [key for key in EXPECTED if key.split(" ")[0] == command]
    assert len(keys) == 4
    run_child(run_cli(*keys))


def test_fraction_and_int_arguments_leave_numpy_unloaded():
    # curve calls, an inverse, posterior_no_signal, a profile's fixed point and a sweep
    run_child((REPO_ROOT / "tests" / "scalar_calls.py").read_text(encoding="utf-8"))


def test_rejected_text_leaves_numpy_unloaded():
    # the scalar path refuses text itself rather than handing it to np.asarray
    run_child(
        "import hazardsignal as hs\n"
        "try:\n"
        "    hs.AffineHazard(0.5, 0.2)('0.5')\n"
        "except hs.InputError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('a str argument was accepted')"
    )


def test_rejected_list_leaves_numpy_unloaded():
    # a curve takes one number: a list is refused without turning to numpy
    run_child(
        "import hazardsignal as hs\n"
        "for curve in (hs.AffineHazard(0.5, 0.2), hs.PowerHazard(2.0), hs.LinearReach(0.9),\n"
        "              hs.TableHazard(((0.0, 0.1), (1.0, 0.9))), hs.ConstantReach(0.4)):\n"
        "    try:\n"
        "        curve([0.25, 0.5])\n"
        "    except hs.InputError as e:\n"
        "        assert str(e).endswith('must be a number, got [0.25, 0.5]'), e\n"
        "    else:\n"
        "        raise SystemExit(f'{curve!r} accepted a list')"
    )


@pytest.mark.parametrize(
    "body", [run_cli("oracle-check scenarios/zero_signal_optimum.scn")], ids=["oracle-check"]
)
def test_array_work_loads_numpy(body):
    run_child(body, numpy=True)
