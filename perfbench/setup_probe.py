"""Set-up probe: import msindex from src/, load the reference tables,
run the warm-up analyze, then print "ready".  run.py starts it in a
fresh interpreter several times and times each start until "ready"."""

import os
import sys
from pathlib import Path

from workloads import setup

if __name__ == "__main__":
    os.environ.setdefault("OPENBLAS_NUM_THREADS", "1")
    setup(Path(__file__).resolve().parent.parent / "src")
    print("ready", flush=True)
    sys.exit(0)
