"""Span recording for fleet worker processes of a traced benchmark run.

Python imports ``sitecustomize`` at start-up from the first directory on
``sys.path`` that has one. A traced unit puts this directory first on
the ``PYTHONPATH`` its fleet workers inherit, together with
``REPRO_E2E_SPANS``; every other process never sees this file.
"""

import os

if os.environ.get("REPRO_E2E_SPANS"):
    import trace  # this directory's trace.py, which precedes the stdlib

    trace.trace_process()
