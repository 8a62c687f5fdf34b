"""Make the benchmark's modules importable by their bare names, as its
scripts import each other."""

import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent))
