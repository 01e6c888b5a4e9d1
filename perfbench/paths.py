"""Where the benchmark finds the package and puts its output."""

import os

ROOT = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
SRC = os.path.join(ROOT, "src")
FIXTURE_DIR = os.path.join(SRC, "pwlham", "fixtures")
OUT_DIR = os.path.join(ROOT, "perfbench", "out")
