"""Put the program's sources on the path for the benchmark's own tests.

Run from the repository root: ``python3 -m pytest bench/tests``.
"""

import sys
from pathlib import Path

SRC = Path(__file__).resolve().parents[2] / "src"
if str(SRC) not in sys.path:
    sys.path.insert(0, str(SRC))
