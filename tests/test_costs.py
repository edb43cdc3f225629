import importlib.util
from pathlib import Path

COSTS = Path(__file__).resolve().parents[1] / "tools" / "costs.py"


def test_costs_script_loads_without_running(capsys):
    """``tools/costs.py`` imports by name the private pieces it times
    (``oracle._plan``, ``solvers._RunContext``), so loading it fails here
    when one is renamed; loading runs none of its timings."""
    spec = importlib.util.spec_from_file_location("costs", COSTS)
    costs = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(costs)
    assert callable(costs.main)
    compile(costs.COLD_IMPORT, "COLD_IMPORT", "exec")
    assert capsys.readouterr().out == ""
