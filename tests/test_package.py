"""The package namespace and the README's library example."""
import contextlib
import io
import math
import re
from pathlib import Path

import peergrade
from peergrade import analytics, calibration, core, em, evaluation, gibbs, oracle, synth

README = Path(__file__).resolve().parent.parent / "README.md"
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
    estimate, conf, bias = (float(line) for line in out.getvalue().split())
    assert math.isfinite(estimate) and math.isfinite(bias)
    assert 0.0 < conf <= 1.0
