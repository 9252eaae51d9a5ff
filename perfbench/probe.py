"""Set-up probe: one fresh interpreter's import and config-build times.

Run as ``python3 perfbench/probe.py <workload> <seed>``.  Prints one JSON
line with the seconds spent importing ``repro``, then ``repro.cli`` (what
``python -m repro`` loads), then the workload's own modules and configs,
and the median time of the reference kernel in this process (see
``reference.py``).  The caller times the whole process, interpreter
start-up included.
"""

import json
import statistics
import sys
import time

from workloads import WORKLOADS, use_source_tree


def main() -> None:
    name, seed = sys.argv[1], int(sys.argv[2])
    use_source_tree()
    t0 = time.perf_counter()
    import repro  # noqa: F401

    t1 = time.perf_counter()
    import repro.cli  # noqa: F401

    t2 = time.perf_counter()
    WORKLOADS[name]().setup(seed)
    t3 = time.perf_counter()
    from reference import kernel

    print(json.dumps({"import.repro_s": t1 - t0, "import.cli_s": t2 - t1,
                      "config_s": t3 - t2,
                      "kernel_s": statistics.median(kernel() for _ in range(3))}))


if __name__ == "__main__":
    main()
