"""One set-up sample, in a fresh interpreter: import copsurv, then draw the
workload's input from the seed and write it.  Prints one JSON line with
the two times.

    python3 perfbench/probe.py WORKLOAD SEED OUT_CSV [full|tiny]

Run from the root of a checkout; `run.py` starts it several times and
reports the median as `setup_s`.
"""

import json
import sys
import time
from pathlib import Path


def main(argv):
    workload, seed, out_csv = argv[0], int(argv[1]), Path(argv[2])
    t0 = time.perf_counter()
    sys.path.insert(0, str(Path.cwd() / "src"))
    import copsurv.cli  # noqa: F401  (the import is what is timed)
    t1 = time.perf_counter()
    import workloads

    sizes = getattr(workloads, (argv[3] if len(argv) > 3 else "full").upper())
    inputs = workloads.make_inputs(workload, seed, sizes[workload])
    workloads.write_inputs(inputs, out_csv)
    t2 = time.perf_counter()
    print(json.dumps({"import_s": t1 - t0, "inputs_s": t2 - t1}))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
