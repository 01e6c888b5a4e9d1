"""One fresh process's set-up: interpreter start, ``import pwlham`` and
building a workload's inputs from its seed.  The benchmark times this
process end to end to report ``setup_s``, and starts it with the
checkout's ``src/`` on PYTHONPATH.

Usage: setup_probe.py WORKLOAD SEED
"""

import sys

import workloads

if __name__ == "__main__":
    workloads.WORKLOADS[sys.argv[1]](int(sys.argv[2]))
