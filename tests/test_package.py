"""The package namespace, the README's library example and what importing
the package loads."""
import ast
import contextlib
import io
import json
import math
import re
import subprocess
import sys
from pathlib import Path

import peergrade
from peergrade import analytics, calibration, core, em, evaluation, gibbs, oracle, synth

README = Path(__file__).resolve().parent.parent / "README.md"
PACKAGE = Path(peergrade.__file__).resolve().parent
LIBRARY_MODULES = (analytics, calibration, core, em, evaluation, gibbs, oracle, synth)


def _section_blocks(section: str, lang: str) -> list[str]:
    text = README.read_text()
    body = text.split(f"\n## {section}\n", 1)[1].split("\n## ", 1)[0]
    return re.findall(rf"```{lang}\n(.*?)```", body, flags=re.S)


class TestNamespace:
    def test_every_module_name_resolves_in_its_module(self):
        for module in LIBRARY_MODULES:
            missing = [name for name in module.__all__ if not hasattr(module, name)]
            assert not missing, f"{module.__name__}.__all__ lists undefined {missing}"

    def test_no_name_is_listed_by_two_modules(self):
        owner: dict[str, str] = {}
        for module in LIBRARY_MODULES:
            for name in module.__all__:
                assert name not in owner, f"{name} is in {owner.get(name)}.__all__ and {module.__name__}.__all__"
                owner[name] = module.__name__

    def test_package_all_is_the_modules_all_plus_version(self):
        expected = [name for module in LIBRARY_MODULES for name in module.__all__] + ["__version__"]
        assert peergrade.__all__ == expected
        for module in LIBRARY_MODULES:
            for name in module.__all__:
                assert getattr(peergrade, name) is getattr(module, name)

    def test_star_import_binds_exactly_all(self):
        namespace: dict = {}
        exec("from peergrade import *", namespace)
        del namespace["__builtins__"]
        assert sorted(namespace) == sorted(peergrade.__all__)


def test_subprocesses_fail_on_a_runtime_warning():
    """Subprocesses that the tests start, CLI runs among them, turn a
    RuntimeWarning into an error, as pyproject's filterwarnings makes the
    test process do."""
    proc = subprocess.run([sys.executable, "-c", "import warnings; warnings.warn('leaked', RuntimeWarning)"],
                          capture_output=True, text=True, timeout=60)
    assert proc.returncode == 1
    assert "RuntimeWarning: leaked" in proc.stderr


def test_readme_quick_start_runs(tmp_path, monkeypatch):
    grades_csv, truth_csv = _section_blocks("Data formats", "csv")
    (quick_start,) = _section_blocks("Library quick start", "python")
    (tmp_path / "data").mkdir()
    (tmp_path / "data" / "grades.csv").write_text(grades_csv)
    (tmp_path / "data" / "truth.csv").write_text(truth_csv)
    monkeypatch.chdir(tmp_path)
    out = io.StringIO()
    with contextlib.redirect_stdout(out):
        exec(compile(quick_start, str(README), "exec"), {"__name__": "__main__"})
    estimate, conf, bias, point_bias = (float(line) for line in out.getvalue().split())
    assert math.isfinite(estimate) and math.isfinite(bias)
    assert point_bias == bias
    assert 0.0 < conf <= 1.0


def _eager_scipy_imports(path: Path) -> list[str]:
    """'file:line: statement' for each import of scipy in path that runs when
    the module is imported, that is, anywhere outside a function body."""
    found = []

    def visit(node: ast.AST) -> None:
        for child in ast.iter_child_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
                continue
            if isinstance(child, ast.Import):
                modules = [alias.name for alias in child.names]
            elif isinstance(child, ast.ImportFrom) and child.level == 0:
                modules = [child.module]
            else:
                modules = []
            if any(m.split(".")[0] == "scipy" for m in modules):
                found.append(f"{path.name}:{child.lineno}: {ast.unparse(child)}")
            visit(child)

    visit(ast.parse(path.read_text(), str(path)))
    return found


class TestScipyStaysUnloaded:
    """Only the oracle's reliability grid needs scipy, and importing
    scipy.special costs a process about 0.3 s, so neither importing the
    package nor any CLI command loads it."""

    def test_no_module_imports_scipy_at_module_level(self):
        found = [hit for path in sorted(PACKAGE.glob("*.py")) for hit in _eager_scipy_imports(path)]
        assert not found, "scipy imported at module level:\n" + "\n".join(found)

    def test_the_check_finds_eager_imports_only(self, tmp_path):
        path = tmp_path / "mod.py"
        path.write_text("import numpy\nimport scipy.special as sp\nif True:\n    from scipy import stats\n"
                        "class C:\n    from scipy.special import erf\n"
                        "def f():\n    from scipy.special import gammaincinv\n    return gammaincinv\n")
        assert _eager_scipy_imports(path) == [
            "mod.py:2: import scipy.special as sp",
            "mod.py:4: from scipy import stats",
            "mod.py:6: from scipy.special import erf",
        ]

    def test_import_and_every_command_leave_scipy_unloaded(self, tmp_path):
        """One fresh interpreter imports the package, then runs each command
        on a tiny synth set and lists the scipy modules loaded after it."""
        data, out = tmp_path / "data", tmp_path / "out"
        grades, truth = ["--grades", str(data / "grades.csv")], ["--truth", str(data / "truth.csv")]
        fit = ["--sweeps", "20", "--burnin", "5"]
        sims = ["--sims", "5"]
        commands = [["synth", "--students", "40", "--gt", "2", "--super-grades", "10", "--seed", "1",
                     "--out", str(data)]]
        commands += [["infer", *grades, "--model", model.value, *fit, "--out", str(out / model.value)]
                     for model in peergrade.Model]
        commands += [
            ["infer", *grades, "--engine", "em", "--out", str(out / "em")],
            ["evaluate", *grades, *truth, *fit, *sims, "--out", str(out / "evaluate")],
            ["evaluate", *grades, *truth, "--engine", "em", *sims, "--out", str(out / "evaluate-em")],
            ["calibrate", *grades, *truth, *fit, *sims, "--out", str(out / "calibrate")],
            ["rounds", *grades, *fit, "--max-rounds", "2", "--out", str(out / "rounds")],
            ["rounds", *grades, *fit, "--max-rounds", "2", "--method", "empirical",
             "--out", str(out / "rounds-empirical")],
            ["analyze", *grades, *fit, "--out", str(out / "analyze")],
            ["identifiability", "--students", "30", "--gt", "2", "--super-grades", "10", "--counts", "4",
             *fit, *sims, "--out", str(out / "identifiability")],
        ]
        code = (
            "import contextlib, io, json, sys\n"
            "import peergrade, peergrade.io\n"
            "from peergrade import cli\n"
            "def scipy(): return sorted(m for m in sys.modules if m.split('.')[0] == 'scipy')\n"
            "seen = [[0, scipy()]]\n"
            "for args in json.load(sys.stdin):\n"
            "    with contextlib.redirect_stdout(io.StringIO()):\n"
            "        status = cli.main(args)\n"
            "    seen.append([status, scipy()])\n"
            "print(json.dumps(seen))\n"
        )
        proc = subprocess.run([sys.executable, "-c", code], input=json.dumps(commands),
                              capture_output=True, text=True, timeout=600)
        assert proc.returncode == 0, proc.stderr
        seen = json.loads(proc.stdout)
        assert len(seen) == 1 + len(commands)
        for args, (status, loaded) in zip([["import peergrade, peergrade.io"]] + commands, seen):
            assert (status, loaded) == (0, []), " ".join(args)
