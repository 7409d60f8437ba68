"""Run the groupspec CLI like `python -m groupspec.cli ARGS`, with the layer
tracer installed; writes the layer counts to $PERFBENCH_TRACE_OUT on exit.

    python3 -X importtime perfbench/cli_child.py spectrum 'PSL(3,3)'
"""

import json
import os
import runpy

import tracer as tracing

tracer = tracing.Tracer()
tracing.install(tracer)
try:
    runpy.run_module("groupspec.cli", run_name="__main__", alter_sys=True)
finally:
    with open(os.environ["PERFBENCH_TRACE_OUT"], "w", encoding="utf-8") as fh:
        json.dump(tracer.raw(), fh)
