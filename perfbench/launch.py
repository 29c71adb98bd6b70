"""One flowdigits CLI invocation in a fresh process, as the console script runs it.

Usage: ``python launch.py <flowdigits arguments>``, with ``src`` on
PYTHONPATH. It notes the monotonic clock (system-wide on Linux, so the
parent can subtract its spawn time) once numpy is imported, before any
flowdigits code runs, and again once ``flowdigits.cli`` is imported. When
the command ends it writes both times and the process's peak RSS to the
file named by PERFBENCH_STATS. When PERFBENCH_TRACE names a file, the
tracer is installed before the command runs and its table is written there;
untraced runs never import it.
"""

import os
import sys
import time

# Imported on its own first (flowdigits imports it anyway): the time to get
# here is the host-speed yardstick, taken on the op's own CPU and moment.
import numpy  # noqa: F401

numpy_ready = time.monotonic()

from flowdigits import cli  # noqa: E402

ready = time.monotonic()


def peak_rss_kb() -> int:
    """High-water RSS of this process image (VmHWM).

    ``ru_maxrss`` is not used: Linux carries the parent's RSS at fork time
    into it, so it would report the benchmark's own size.
    """
    with open("/proc/self/status", encoding="ascii") as status:
        for line in status:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    return 0


if __name__ == "__main__":
    trace_path = os.environ.get("PERFBENCH_TRACE")
    tracer = None
    if trace_path:
        from tracer import Tracer

        tracer = Tracer()
        tracer.install()
    try:
        code = cli.main(sys.argv[1:])
    finally:
        with open(os.environ["PERFBENCH_STATS"], "w", encoding="ascii") as handle:
            handle.write(f"{numpy_ready!r} {ready!r} {peak_rss_kb()}")
        if tracer is not None:
            tracer.dump(trace_path)
    sys.exit(code)
