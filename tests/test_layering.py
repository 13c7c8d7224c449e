"""Import layering: what a fresh interpreter pulls in for common entry points.

Each check runs in a new interpreter so modules imported by other tests
cannot mask an import the entry point makes itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import repro

SRC = str(Path(repro.__file__).resolve().parents[1])

KERNEL_ONLY_DESIGN = """
import json, sys
from repro.kernel import Module, Signal, Simulator, ns

class Counter(Module):
    def __init__(self, name, sim):
        super().__init__(name, sim=sim)
        self.count = Signal(sim, 0, f"{name}.count")
        self.echo = Signal(sim, 0, f"{name}.echo")
        self.add_method(self.follow, sensitivity=[self.count.value_changed])
        self.add_thread(self.tick)

    def follow(self):
        self.echo.write(self.count.read())

    def tick(self):
        for i in range(3):
            self.count.write(i + 1)
            yield ns(1)

sim = Simulator()
top = Counter("top", sim)
sim.initialize()
sim.run()
assert top.echo.read() == 3
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _fresh(code: str) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, capture_output=True, text=True, check=True
    )
    return done.stdout


def test_kernel_design_imports_no_analysis_layer():
    modules = json.loads(_fresh(KERNEL_ONLY_DESIGN))
    assert "repro.kernel.simulator" in modules
    assert [m for m in modules if m.startswith("repro.analysis")] == []


def test_dse_import_needs_no_networkx():
    out = _fresh("import sys, repro.dse; print('networkx' in sys.modules)")
    assert out.strip() == "False"
