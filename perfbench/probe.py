"""Child process of the set-up measurement: a fresh interpreter imports
malmsten and finishes one cold evaluation of each route named in argv.

Usage: python3 probe.py SRC_DIR METHOD [METHOD ...]; prints seconds taken.
"""

import sys
import time

t0 = time.perf_counter()
sys.path.insert(0, sys.argv[1])

from malmsten import cli  # noqa: E402
from malmsten.domain import Angle  # noqa: E402

for method in sys.argv[2:]:
    cli.evaluate(Angle(1.0), method)
print(repr(time.perf_counter() - t0))
