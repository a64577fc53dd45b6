"""Benchmark entry point; see gvbench/bench.py for what a run does.

    python3 gvbench/run.py --workload fcn-cd --seed 1 --seconds 25 --trace 0
    python3 gvbench/run.py --workload all --repeat 10 --seed 1
"""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))

from gvbench.bench import main  # noqa: E402

if __name__ == "__main__":
    sys.exit(main())
