"""Put the checkout's sources and the benchmark's modules on the test path,
as ``perfbench/run.py`` does at start-up."""

import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
for path in (HERE, HERE.parent / "src"):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))
