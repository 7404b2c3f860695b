"""Time one cold set-up of the engine in this fresh interpreter.

    python3 perfbench/setup_probe.py <src dir> <action type>...

Imports ``g2orbits`` from the given source directory, builds the action
spec of each type and prints the seconds this took.
"""

import sys
import time

start = time.perf_counter()
sys.path.insert(0, sys.argv[1])
import g2orbits  # noqa: E402

for action_type in sys.argv[2:]:
    g2orbits.action_spec(action_type)
print(time.perf_counter() - start)
