"""Start-up cost: building the default workloads must not import scipy.

``scipy.optimize`` backs only the offline Hungarian oracle; loading it at
import time cost most of a run's start-up and tens of MB of resident memory
on paths that never solve an assignment.  The check runs in a fresh
interpreter so modules other tests already imported cannot hide a
regression.
"""

import os
import subprocess
import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"

_PROBE = """
import sys
from repro.experiments.config import EndToEndConfig
from repro.experiments.endtoend import run_endtoend
from repro.experiments.scenario import ScenarioConfig, run_scenario_comparison
from repro.platform.coordinator import Coordinator
from repro.platform.policies import react_policy
from repro.platform.server import REACTServer
from repro.scenarios.baselines import scenario_policies

EndToEndConfig(seed=42)
ScenarioConfig(seed=7)
for policy in [react_policy(cycles=1000), *scenario_policies()]:
    policy.build_matcher()
    policy.build_weight_function()
print(",".join(sorted(m for m in sys.modules if m.split(".")[0] == "scipy")))
"""


def _loaded_scipy_modules(probe: str) -> str:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + os.pathsep + env.get("PYTHONPATH", "")
    done = subprocess.run(
        [sys.executable, "-c", probe],
        env=env,
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
    )
    return done.stdout.strip()


def test_default_workload_setup_leaves_scipy_unloaded():
    assert _loaded_scipy_modules(_PROBE) == ""


def test_hungarian_oracle_still_loads_scipy_on_use():
    probe = """
import sys
import numpy as np
from repro.core.matching.hungarian import HungarianMatcher
from repro.graph.bipartite import BipartiteGraph
assert "scipy.optimize" not in sys.modules
result = HungarianMatcher().match(BipartiteGraph.full(np.array([[0.5, 1.0], [1.0, 0.2]])))
assert result.size == 2
print("scipy.optimize" in sys.modules)
"""
    assert _loaded_scipy_modules(probe) == "True"
