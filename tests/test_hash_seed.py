"""Results do not depend on ``PYTHONHASHSEED``.

Set and dict iteration over strings (carriers, array names) follows the
interpreter's hash seed, so any result that leaks such an order would
differ between seeds.  A small ``gcd`` laxity sweep runs in two fresh
interpreters with different seeds; its Figure 13 rows, evaluation
counts and estimate totals must be identical.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

_SWEEP = """
import json
from repro.core.search import SearchConfig
from repro.experiments.laxity import run_laxity_sweep
from repro.explore import engine_for_benchmark

laxities = (1.0, 2.0)
search = SearchConfig(max_depth=4, max_candidates=10, max_iterations=5, seed=0)
sweep = run_laxity_sweep("gcd", laxities=laxities, n_passes=8, search=search)
engine = engine_for_benchmark("gcd", n_passes=8)
totals = []
for laxity in laxities:
    for mode in ("area", "power"):
        estimate = engine.run(mode, laxity, search=search).design \\
            .evaluate().estimate
        totals.append(repr(estimate.breakdown()))
print(json.dumps({
    "rows": [point.row() for point in sweep.points],
    "points": [repr(point) for point in sweep.points],
    "evaluations": sweep.evaluations,
    "totals": totals,
}))
"""


def _sweep_under(hash_seed: str) -> dict:
    src = str(Path(__file__).resolve().parents[1] / "src")
    env = dict(os.environ, PYTHONHASHSEED=hash_seed,
               PYTHONPATH=os.pathsep.join(
                   filter(None, [src, os.environ.get("PYTHONPATH")])))
    out = subprocess.run([sys.executable, "-c", _SWEEP], env=env,
                         capture_output=True, text=True, timeout=300,
                         check=True).stdout
    return json.loads(out)


def test_sweep_is_identical_under_two_hash_seeds():
    first, second = _sweep_under("0"), _sweep_under("1")
    assert first["evaluations"] > 0
    assert first == second
