"""Set-up probe: build one workload in a fresh interpreter, then print "ready".

    python3 perfbench/setup_probe.py <workload> <seed> <workdir>

run.py times the launch of this script up to the "ready" line; that span is
`setup_s`: interpreter start, `import htx`, and building the workload's
config, mixture, operator, schedule, model and drifts.
"""

import os

for _var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
    os.environ[_var] = "1"

import sys  # noqa: E402
from pathlib import Path  # noqa: E402

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

import workloads  # noqa: E402

if __name__ == "__main__":
    name, seed, workdir = sys.argv[1], int(sys.argv[2]), Path(sys.argv[3])
    workloads.WORKLOADS[name](seed, workdir)
    print("ready", flush=True)
