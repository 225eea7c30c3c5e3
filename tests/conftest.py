import os
import threading
from pathlib import Path

import numpy as np
import pytest

from peergrade import GradingGraph, Model, PeerGrade, SynthConfig, generate

# pyproject's pythonpath setting reaches only the test process; CLI
# subprocesses the tests start find this checkout's package through PYTHONPATH.
_SRC = str(Path(__file__).resolve().parents[1] / "src")
os.environ["PYTHONPATH"] = os.pathsep.join(filter(None, (_SRC, os.environ.get("PYTHONPATH"))))


@pytest.fixture(autouse=True)
def no_thread_outlives_its_test():
    """Fail a test that leaves a thread it started running."""
    before = set(threading.enumerate())
    yield
    left = [t.name for t in threading.enumerate() if t not in before and t.is_alive()]
    assert not left, f"threads still running after the test: {left}"


def make_graph(rows, **kwargs) -> GradingGraph:
    """rows: (assignment, grader, gradee, score) tuples."""
    return GradingGraph([PeerGrade(a, v, u, z) for (a, v, u, z) in rows], **kwargs)


@pytest.fixture(scope="session")
def small_pg1():
    """An 80-student single-assignment network with 3 super-graded submissions."""
    cfg = SynthConfig(
        n_students=80, n_assignments=1, grades_per_grader=4,
        n_ground_truth=3, super_grades=20, model=Model.PG1, seed=101,
    )
    return generate(cfg)


@pytest.fixture(scope="session")
def hci_shaped():
    """Full-size network shaped like a large MOOC assignment: 3600 students,
    4 grades each, 3 submissions super-graded by 160 students."""
    cfg = SynthConfig(
        n_students=3600, n_assignments=1, grades_per_grader=4,
        n_ground_truth=3, super_grades=160, model=Model.PG1, seed=0,
    )
    return generate(cfg)


@pytest.fixture
def rng():
    return np.random.default_rng(2024)
