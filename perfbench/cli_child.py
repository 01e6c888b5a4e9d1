"""Run one ``python -m pwlham`` command with the benchmark's tracer installed.

Usage: cli_child.py TRACE_OUT OP_ID FLAGS ARGS...

The traced cli workload runs this instead of ``python -m pwlham ARGS...``;
the command itself runs unchanged through ``runpy``.  FLAGS holds "k" to
keep raw spans and "c" to install the call counters.  The tracer's
aggregates (and any raw spans) go to TRACE_OUT as JSON for the parent to
merge.  The parent starts it with the checkout's ``src/`` on PYTHONPATH.
"""

import json
import runpy
import sys

from tracer import Tracer


def main() -> int:
    out_path, op_id, flags = sys.argv[1], int(sys.argv[2]), sys.argv[3]
    sys.argv = ["pwlham", *sys.argv[4:]]
    tracer = Tracer(keep_ops=op_id + 1 if "k" in flags else 0, counters="c" in flags)
    tracer.install()
    tracer.begin_op(op_id)
    status = 0
    try:
        runpy.run_module("pwlham", run_name="__main__", alter_sys=True)
    except SystemExit as exc:
        status = exc.code
    finally:
        tracer.uninstall()
        with open(out_path, "w", encoding="utf-8") as fh:
            json.dump(tracer.to_dict(), fh)
    return status


if __name__ == "__main__":
    sys.exit(main())
