import sys
from pathlib import Path

# The benchmark drives the checkout's own sources, as gvbench/bench.py does.
sys.path.insert(0, str(Path(__file__).resolve().parents[2] / "src"))
