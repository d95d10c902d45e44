"""Test setup: import braidkit from this checkout's ``src``, in the test
process and in the CLI processes the tests start, so that
``python -m pytest`` tests this code from a plain checkout."""

import os
import sys
from pathlib import Path

SRC = str(Path(__file__).resolve().parent.parent / "src")
sys.path.insert(0, SRC)
os.environ["PYTHONPATH"] = os.pathsep.join([SRC, *filter(None, [os.environ.get("PYTHONPATH")])])
