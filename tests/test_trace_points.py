"""The benchmark's tracer wraps program attributes by name.

`perfbench/tracing.py` reads each wrapped attribute through
`owner.__dict__[attr]`, so an attribute that moves to a base class or a
helper breaks the benchmark's trace passes. This test loads the tracer
from its file and checks every wrap point against the program.
"""

import importlib.util
from pathlib import Path

import gapedit

TRACING = Path(__file__).parents[1] / "perfbench" / "tracing.py"


def _wrap_points():
    spec = importlib.util.spec_from_file_location("perfbench_tracing",
                                                  TRACING)
    tracing = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(tracing)
    return tracing._wrap_points(gapedit)


def test_every_wrapped_attribute_is_the_owners_own():
    points = _wrap_points()
    assert points
    missing = [f"{owner.__name__}.{attr}"
               for owner, attr, _, _ in points if attr not in vars(owner)]
    assert missing == []
