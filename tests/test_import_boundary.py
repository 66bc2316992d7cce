"""Import boundary: loading repro pulls in neither scipy nor networkx.

scipy takes longer to import than all of repro, and only one function,
``repro.analysis.stats.summarize``, calls it, so it imports scipy when
called.  networkx is not a dependency
at all: topologies keep their own adjacency map.  The probe runs in a
fresh interpreter, because this test session may already hold scipy.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import numpy as np
from scipy import stats

import repro

SRC = Path(repro.__file__).resolve().parents[1]

SAMPLES = [10.0, 12.0, 8.0, 11.0, 9.0]

PROBE = f"""
import importlib, json, pkgutil, sys

import repro

modules = [info.name
           for info in pkgutil.walk_packages(repro.__path__, "repro.")]
for name in modules:
    importlib.import_module(name)
report = {{"modules": modules,
          "loaded_after_import": sorted(
              name for name in ("scipy", "networkx") if name in sys.modules)}}

from repro.analysis.stats import summarize

summary = summarize({SAMPLES!r})
report["scipy_after_summarize"] = "scipy.stats" in sys.modules
report["ci"] = [summary.ci_low, summary.ci_high]
report["networkx_at_exit"] = "networkx" in sys.modules
print(json.dumps(report))
"""


def _probe():
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        filter(None, [str(SRC), env.get("PYTHONPATH")]))
    done = subprocess.run([sys.executable, "-c", PROBE], env=env,
                          capture_output=True, text=True, timeout=300)
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.splitlines()[-1])


def test_importing_every_module_loads_neither_scipy_nor_networkx():
    report = _probe()
    assert {"repro.analysis.stats", "repro.fault.availability",
            "repro.network.topology"} <= set(report["modules"])
    assert report["loaded_after_import"] == []
    # The first call that needs scipy loads it; nothing loads networkx.
    assert report["scipy_after_summarize"] is True
    assert report["networkx_at_exit"] is False

    values = np.asarray(SAMPLES)
    mean = float(values.mean())
    halfwidth = float(float(values.std(ddof=1)) / np.sqrt(values.size)
                      * stats.t.ppf((1 + 0.95) / 2.0, values.size - 1))
    assert report["ci"] == [mean - halfwidth, mean + halfwidth]
