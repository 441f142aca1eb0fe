import sys
from pathlib import Path

_BENCH = Path(__file__).resolve().parents[1]
sys.path[:0] = [str(_BENCH), str(_BENCH.parent / "src"), str(_BENCH / "control")]
