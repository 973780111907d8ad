"""Every layer function that the benchmark's tracer wraps still exists.

Tier-1 does not run ``bench/``, so a renamed or deleted layer function would
otherwise show only in ``pytest bench``. This reads ``bench/tracer.py`` and
changes nothing there.
"""

import importlib
import importlib.util
from pathlib import Path

from votesim.group import GroupParams

TRACER = Path(__file__).resolve().parents[1] / "bench" / "tracer.py"


def test_every_traced_layer_function_resolves():
    spec = importlib.util.spec_from_file_location("bench_tracer", TRACER)
    tracer = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracer)
    missing = []
    for module_name, names in tracer.LAYER_FUNCTIONS.items():
        module = importlib.import_module(f"votesim.{module_name}")
        for name in names:
            # the tracer wraps GroupParams methods on the class
            grouped = module_name == "group" and name in tracer.GROUP_METHODS
            if not callable(getattr(GroupParams if grouped else module, name, None)):
                missing.append(f"{module_name}.{name}")
    assert missing == []
