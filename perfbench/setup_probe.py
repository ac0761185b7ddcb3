"""Print the seconds a fresh interpreter takes to import isofib.cli and build
its argument parser (the CLI's set-up before any work), then the median time
of the reference computation in the same interpreter::

    python3 perfbench/setup_probe.py SRC_DIR
"""

import statistics
import sys
from time import perf_counter

sys.path.insert(0, sys.argv[1])
start = perf_counter()
import isofib.cli  # noqa: E402

isofib.cli.build_parser()
elapsed = perf_counter() - start

from reference import reference_seconds  # noqa: E402

print(elapsed, statistics.median(reference_seconds() for _ in range(5)))
