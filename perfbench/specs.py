"""Workload shapes and run lengths. Standard library only, so that the set-up
timer in ``run.py`` starts before numpy, scipy or peergrade is imported.

``FULL`` holds the shapes the benchmark measures; ``TOY`` holds the same
workloads shrunk so the harness tests finish in seconds.
"""
from __future__ import annotations

from dataclasses import dataclass, replace


@dataclass(frozen=True)
class Spec:
    """One workload: the network it generates and how long its fits run."""

    students: int
    assignments: int
    model: str  # generating model: pg1bias, pg1, pg2 or pg3
    ground_truth: int = 3
    super_grades: int = 160
    grades_per_grader: int = 4
    sweeps: int = 800  # CLI default
    burnin: int = 80  # CLI default
    sims: int = 3000  # CLI default
    threads: int = 1
    tiny_sweeps: int = 0  # sweeps per tiny-network Gibbs fit (mcmc-small only)


WORKLOADS = ("mooc-36k", "course-4x3k6", "experiments-hci", "mcmc-small")

FULL = {
    # HCI shape at 10x: one assignment, 36k students, 3 submissions graded by 160 peers.
    "mooc-36k": Spec(students=36_000, assignments=1, model="pg1"),
    # a four-assignment course drawn from the random-walk bias model.
    "course-4x3k6": Spec(students=3_600, assignments=4, model="pg2"),
    # the HCI-shaped network; evaluate/calibrate/rounds on a pool of two workers.
    "experiments-hci": Spec(students=3_600, assignments=1, model="pg1", threads=2),
    # the HCI shape drawn from the score-linked model. The per-student
    # Metropolis loop costs about 0.1 s a sweep here, so 800 sweeps would
    # take 80 s; 50 sweeps keep a run inside its time budget.
    "mcmc-small": Spec(students=3_600, assignments=1, model="pg3", sweeps=50, burnin=10,
                       tiny_sweeps=5_000),
}

TOY = {
    "mooc-36k": replace(FULL["mooc-36k"], students=300, super_grades=40, sweeps=60, burnin=10),
    "course-4x3k6": replace(FULL["course-4x3k6"], students=200, super_grades=40, sweeps=60, burnin=10),
    # 160 super graders as at full size: with smaller pools the Gibbs/EM
    # evaluation gap is too noisy for its check.
    "experiments-hci": replace(FULL["experiments-hci"], students=400, sweeps=200, burnin=20, sims=300),
    "mcmc-small": replace(FULL["mcmc-small"], students=120, super_grades=30, sweeps=20, burnin=5,
                          tiny_sweeps=2_000),
}
