"""Probabilistic models of peer grading.

Infers submission true scores and grader bias/reliability from noisy peer
grades, via Gibbs sampling or MAP coordinate ascent, with a brute-force
grid oracle, accuracy/calibration experiments, synthetic network generation
and residual diagnostics. See the CLI (`peergrade --help`) for the file
formats.

The package exports each library module's `__all__`; file readers and
writers live in `peergrade.io`.
"""
from . import analytics, calibration, core, em, evaluation, gibbs, oracle, synth
from .analytics import *  # noqa: F401,F403
from .calibration import *  # noqa: F401,F403
from .core import *  # noqa: F401,F403
from .em import *  # noqa: F401,F403
from .evaluation import *  # noqa: F401,F403
from .gibbs import *  # noqa: F401,F403
from .oracle import *  # noqa: F401,F403
from .synth import *  # noqa: F401,F403

__version__ = "0.1.0"

__all__ = [
    name
    for module in (analytics, calibration, core, em, evaluation, gibbs, oracle, synth)
    for name in module.__all__
] + ["__version__"]
