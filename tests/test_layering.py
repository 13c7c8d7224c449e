"""Import layering: what a fresh interpreter pulls in for common entry points.

Each check runs in a new interpreter so modules imported by other tests
cannot mask an import the entry point makes itself.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

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


WATCHDOG_TRIP = """
import json, sys
from repro.kernel import DeadlockReport, Simulator, ns

sim = Simulator()

def spin():
    while True:
        yield ns(10)

sim.spawn("spinner", spin)
sim.run(max_wall_s=0.05)
assert sim.watchdog_fired
assert isinstance(sim.watchdog_report, DeadlockReport), sim.watchdog_report
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

FAULT_TRIAL = """
import json, sys
from repro.faults import SCENARIOS, run_campaign

report = run_campaign(SCENARIOS["minimal"], trials=1, seed=1)
assert report.trials == 1
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""

EXAMPLES = Path(SRC).parent / "examples"

#: Runs an example as ``__main__``; its stdout goes to stderr so the last
#: stdout line is the module list.
RUN_EXAMPLE = """
import json, runpy, sys
stdout, sys.stdout = sys.stdout, sys.stderr
runpy.run_path(sys.argv[1], run_name="__main__")
sys.stdout = stdout
print(json.dumps(sorted(m for m in sys.modules if m.startswith("repro"))))
"""


def _fresh(code: str, *args: str, cwd=None) -> str:
    env = dict(os.environ, PYTHONPATH=SRC)
    done = subprocess.run(
        [sys.executable, "-c", code, *args],
        env=env,
        cwd=cwd,
        capture_output=True,
        text=True,
        check=True,
    )
    return done.stdout


def _analysis_modules(stdout: str):
    return [m for m in json.loads(stdout) if m.startswith("repro.analysis")]


def test_kernel_design_imports_no_analysis_layer():
    out = _fresh(KERNEL_ONLY_DESIGN)
    assert "repro.kernel.simulator" in json.loads(out)
    assert _analysis_modules(out) == []


def test_dse_import_loads_no_analysis_layer():
    code = "import json, sys, repro.dse; print(json.dumps(sorted(sys.modules)))"
    assert _analysis_modules(_fresh(code)) == []


@pytest.mark.parametrize(
    "example", ["quickstart.py", "wireless_multistandard.py", "multifabric_modem.py"]
)
def test_simulation_examples_load_no_analysis_layer(example, tmp_path):
    out = _fresh(RUN_EXAMPLE, str(EXAMPLES / example), cwd=tmp_path)
    assert _analysis_modules(out) == []


def test_watchdog_trip_loads_no_analysis_layer():
    out = _fresh(WATCHDOG_TRIP)
    assert "repro.kernel.deadlock" in json.loads(out)
    assert _analysis_modules(out) == []


def test_fault_campaign_loads_no_analysis_layer():
    out = _fresh(FAULT_TRIAL)
    assert "repro.faults.campaign" in json.loads(out)
    assert _analysis_modules(out) == []


def test_dse_import_needs_no_networkx():
    out = _fresh("import sys, repro.dse; print('networkx' in sys.modules)")
    assert out.strip() == "False"
