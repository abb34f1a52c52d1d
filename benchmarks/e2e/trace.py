"""Span recorder for the traced runs of the end-to-end benchmark.

Nothing inside ``src/`` knows about it. :func:`install` wraps public
functions of each layer from the outside, rebinding every module
namespace that holds them: ``warmed_core``, for example, lives in
``repro.snapshot.fork``, ``repro.snapshot`` and ``repro.snapshot.batch``.
Each call then becomes one span, recorded as name, start, end, parent
and pid, plus a few counts taken where the work happens.

Spans are kept in memory and appended to ``<dir>/spans-<pid>.jsonl``
whenever a thread's outermost span closes. That flush point matters
because pool workers are killed by ``Pool.terminate`` and never run
exit handlers. Forked pool workers inherit the wrappers and start an
empty stack, so their spans are never children of the parent's
``run_many``. Fleet workers are fresh interpreters. They get the
wrappers from ``sitecustomize.py`` in this directory, which
:meth:`Tracing.start` puts on ``PYTHONPATH``.

``perf_counter`` reads ``CLOCK_MONOTONIC`` on Linux, a clock shared by
every process of the machine, so spans from different pids line up.
"""

import atexit
import functools
import importlib
import itertools
import json
import os
import sys
import threading
import time
import types
from collections import defaultdict

#: environment variable naming the span directory of a traced process
ENV = "REPRO_E2E_SPANS"
HERE = os.path.dirname(os.path.abspath(__file__))

#: span names of the three workload entry points (the roots)
ROOTS = (
    "campaign.executor.run_campaign",
    "fleet.service.fleet_run",
    "harness.experiments.headline",
)


class Recorder:
    """Collects the spans of one process and writes them per pid."""

    def __init__(self, directory):
        self.directory = directory
        self._ids = itertools.count(1)
        self._reset()
        os.register_at_fork(after_in_child=self._reset)

    def _reset(self):
        # a forked child keeps neither the parent's open spans nor its
        # unflushed records: they belong to the parent's file
        self._pid = os.getpid()
        self._local = threading.local()
        self._lock = threading.Lock()
        self._done = []

    def redirect(self, directory):
        """Flush what is recorded so far, then write to ``directory``."""
        self.flush()
        self.directory = directory

    def call(self, name, fn, args, kwargs, attrs=None):
        """Run ``fn(*args, **kwargs)`` inside a span called ``name``.

        ``attrs(args, kwargs, result)`` returns extra fields for the
        record; it runs only when the call returns normally.
        """
        stack = getattr(self._local, "stack", None)
        if stack is None:
            stack = self._local.stack = []
        span_id = f"{self._pid}:{next(self._ids)}"
        record = {
            "name": name, "id": span_id, "pid": self._pid,
            "parent": stack[-1] if stack else None,
        }
        stack.append(span_id)
        record["start"] = time.perf_counter()
        try:
            result = fn(*args, **kwargs)
            if attrs is not None:
                record.update(attrs(args, kwargs, result))
            return result
        finally:
            record["end"] = time.perf_counter()
            stack.pop()
            with self._lock:
                self._done.append(record)
            if not stack:
                self.flush()

    def add(self, record):
        """Record a span that was not produced by :meth:`call`."""
        with self._lock:
            self._done.append(dict(record, pid=self._pid))

    def flush(self):
        with self._lock:
            records, self._done = self._done, []
        if not records:
            return
        os.makedirs(self.directory, exist_ok=True)
        path = os.path.join(self.directory, f"spans-{self._pid}.jsonl")
        with open(path, "a") as fh:
            for record in records:
                fh.write(json.dumps(record) + "\n")


# ----------------------------------------------------------------------
# what gets wrapped
# ----------------------------------------------------------------------
def _hit(args, kwargs, result):
    return {"hit": result is not None}


def _scheme(args, kwargs, result):
    scheme = args[0].scheme
    return {"scheme": getattr(scheme, "name", str(scheme))}


def _nbytes(args, kwargs, result):
    return {"bytes": len(result)}


def _ledger_event(args, kwargs, result):
    return {"event": args[1].get("event")}


#: (module, attribute path, attrs callback) of every plainly wrapped call
TARGETS = (
    ("repro.campaign.executor", "run_campaign", None),
    ("repro.fleet.service", "fleet_run", None),
    ("repro.harness.experiments", "headline", None),
    ("repro.harness.parallel", "run_many", None),
    ("repro.harness.parallel", "prewarm_snapshots", None),
    ("repro.harness.parallel", "ResultCache.load", _hit),
    ("repro.harness.parallel", "ResultCache.store", None),
    ("repro.uarch.batchcore", "build_plan", None),
    ("repro.uarch.batchstream", "build_tapes", None),
    ("repro.uarch.batchcore", "BatchEngine.run", None),
    ("repro.snapshot.fork", "ensure_snapshot", None),
    ("repro.snapshot.fork", "warmed_core", None),
    ("repro.harness.runner", "warm_core", None),
    ("repro.harness.runner", "build_core", None),
    ("repro.harness.runner", "measure", None),
    ("repro.harness.runner", "run_one", _scheme),
    ("repro.campaign.journal", "Journal.append", None),
    ("repro.campaign.report", "write_reports", None),
    ("repro.fleet.protocol", "encode", _nbytes),
    ("repro.fleet.protocol", "decode_frames", None),
    ("repro.fleet.ledger", "LeaseLedger.append", _ledger_event),
    ("repro.fleet.merge", "merge_journals", None),
    ("repro.uarch.batchkernel", "load_kernel", None),
)


def _span_name(module_name, path):
    return module_name[len("repro."):] + "." + path


def _plain(recorder, name, fn, attrs):
    @functools.wraps(fn)
    def wrapper(*args, **kwargs):
        return recorder.call(name, fn, args, kwargs, attrs)
    return wrapper


def _core_run(recorder, fn):
    # OoOCore.run(n) retires up to n more instructions; count the delta
    @functools.wraps(fn)
    def run(self, *args, **kwargs):
        before = self.stats.committed
        return recorder.call(
            "uarch.pipeline.OoOCore.run", fn, (self,) + args, kwargs,
            lambda a, k, stats: {"committed": stats.committed - before},
        )
    return run


def _run_batch(recorder, fn):
    # the report is output-only, so passing one when the caller passed
    # none changes nothing but what the span can say about the batch
    from repro.snapshot.batch import BatchReport

    @functools.wraps(fn)
    def run_batch(specs, snapshot_dir, report=None, force_evict=None):
        report = report if report is not None else BatchReport()
        return recorder.call(
            "snapshot.batch.run_batch", fn,
            (specs, snapshot_dir, report, force_evict), {},
            lambda a, k, result: {
                "lanes": report.n_lanes,
                "vector": report.vector_lanes,
                "evicted": len(report.evictions),
                "fallback": report.fallback_reason is not None,
            },
        )
    return run_batch


def install(recorder):
    """Wrap every target for ``recorder``; returns a function undoing it."""
    module_funcs = {}  # id(original) -> (original, wrapper)
    undo = []

    def wrap_attr(owner, attr, wrapper):
        undo.append((owner, attr, getattr(owner, attr)))
        setattr(owner, attr, wrapper)

    for module_name, path, attrs in TARGETS:
        module = importlib.import_module(module_name)
        name = _span_name(module_name, path)
        if "." in path:
            cls, attr = path.split(".")
            owner = getattr(module, cls)
            wrap_attr(owner, attr,
                      _plain(recorder, name, getattr(owner, attr), attrs))
        else:
            fn = getattr(module, path)
            module_funcs[id(fn)] = (fn, _plain(recorder, name, fn, attrs))
    batch = importlib.import_module("repro.snapshot.batch")
    module_funcs[id(batch.run_batch)] = (
        batch.run_batch, _run_batch(recorder, batch.run_batch)
    )
    pipeline = importlib.import_module("repro.uarch.pipeline")
    wrap_attr(pipeline.OoOCore, "run",
              _core_run(recorder, pipeline.OoOCore.run))

    # fleet frames are decoded by json.loads inside read_message; give
    # the protocol module its own json whose loads is a span
    protocol = importlib.import_module("repro.fleet.protocol")
    own_json = types.SimpleNamespace(**vars(protocol.json))
    own_json.loads = _plain(recorder, "fleet.protocol.decode",
                            protocol.json.loads, None)
    wrap_attr(protocol, "json", own_json)

    for module in list(sys.modules.values()):
        if not getattr(module, "__name__", "").startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            pair = module_funcs.get(id(value))
            if pair is not None and pair[0] is value:
                wrap_attr(module, attr, pair[1])

    def uninstall():
        recorder.flush()
        for owner, attr, original in reversed(undo):
            setattr(owner, attr, original)
    return uninstall


class Tracing:
    """Turns span recording on and off around single workload units.

    While on, fleet workers started by the unit inherit ``ENV`` and a
    ``PYTHONPATH`` that loads ``sitecustomize.py`` from this directory.
    """

    def __init__(self):
        self.recorder = None
        self._undo = None
        self._saved_env = None

    def start(self, directory):
        if self.recorder is None:
            self.recorder = Recorder(directory)
        self.recorder.redirect(directory)
        self._undo = install(self.recorder)
        self._saved_env = {k: os.environ.get(k) for k in (ENV, "PYTHONPATH")}
        os.environ[ENV] = directory
        path = os.environ.get("PYTHONPATH")
        os.environ["PYTHONPATH"] = HERE + (os.pathsep + path if path else "")

    def stop(self):
        self._undo()
        for key, value in self._saved_env.items():
            if value is None:
                os.environ.pop(key, None)
            else:
                os.environ[key] = value


def trace_process():
    """Record this whole process into ``$REPRO_E2E_SPANS`` (fleet workers).

    Besides the wrapped calls, a ``process`` span covers the time from
    here to interpreter exit: the denominator of the workers' busy ratio.
    """
    recorder = Recorder(os.environ[ENV])
    install(recorder)
    start = time.perf_counter()

    def finish():
        recorder.add({
            "name": "process", "id": f"{os.getpid()}:0", "parent": None,
            "start": start, "end": time.perf_counter(),
        })
        recorder.flush()
    atexit.register(finish)


# ----------------------------------------------------------------------
# analysis
# ----------------------------------------------------------------------
def load_spans(directory):
    spans = []
    for name in sorted(os.listdir(directory)):
        if name.startswith("spans-") and name.endswith(".jsonl"):
            with open(os.path.join(directory, name)) as fh:
                spans.extend(json.loads(line) for line in fh if line.strip())
    return spans


def _dur(span):
    return span["end"] - span["start"]


def analyse(spans, root_pid):
    """Per-layer metrics and a per-span-name table for one unit's spans.

    ``root_pid`` is the process that called the workload entry point;
    its root span is the unit's wall time. Returns ``(metrics, table)``
    where ``table`` maps span name to ``[calls, inclusive_s, self_s]``.
    Self time is a span's duration minus its children's, which share its
    thread and therefore never overlap.
    """
    by_id = {s["id"]: s for s in spans}
    children = defaultdict(list)
    for s in spans:
        if s["parent"] in by_id:
            children[s["parent"]].append(s)
    self_s = {
        s["id"]: _dur(s) - sum(_dur(c) for c in children[s["id"]])
        for s in spans
    }

    def ancestors(span):
        while span["parent"] in by_id:
            span = by_id[span["parent"]]
            yield span["name"]

    table = defaultdict(lambda: [0, 0.0, 0.0])
    named = defaultdict(list)
    for s in spans:
        row = table[s["name"]]
        row[0] += 1
        row[1] += _dur(s)
        row[2] += self_s[s["id"]]
        named[s["name"]].append(s)

    def incl(name, keep=None):
        return sum(_dur(s) for s in named[name] if keep is None or keep(s))

    def calls(name, keep=None):
        return sum(1 for s in named[name] if keep is None or keep(s))

    def own(name):
        return sum(self_s[s["id"]] for s in named[name])

    def ratio(num, den):
        return num / den if den else 0.0

    root = next(
        s for s in reversed(spans)
        if s["pid"] == root_pid and s["name"] in ROOTS
        and s["parent"] is None
    )
    wall = _dur(root)
    covered = sum(_dur(c) for c in children[root["id"]])

    batches = named["snapshot.batch.run_batch"]
    lanes = sum(s["lanes"] for s in batches)
    forks = [
        s for s in named["snapshot.fork.warmed_core"]
        if not any(c["name"] == "harness.runner.warm_core"
                   for c in children[s["id"]])
    ]
    baseline = lambda s: s["scheme"] == "FAULT_FREE"  # noqa: E731
    core_s = incl("uarch.pipeline.OoOCore.run")
    committed = sum(
        s["committed"] for s in named["uarch.pipeline.OoOCore.run"])
    loads = named["harness.parallel.ResultCache.load"]
    grants = [
        s["start"] for s in named["fleet.ledger.LeaseLedger.append"]
        if s["event"] == "lease"
    ]
    workers = [
        s for s in named["process"] if s["pid"] != root_pid
    ]
    worker_pids = {s["pid"] for s in workers}
    busy = incl("harness.parallel.run_many",
                lambda s: s["pid"] in worker_pids and s["parent"] is None)

    metrics = {
        "uarch.batchcore.engine_run_s": incl(
            "uarch.batchcore.BatchEngine.run"),
        "uarch.batchcore.build_plan_s": incl("uarch.batchcore.build_plan"),
        "uarch.batchstream.build_tapes_s": incl(
            "uarch.batchstream.build_tapes"),
        "snapshot.batch.calls": len(batches),
        "snapshot.batch.lanes": lanes,
        "snapshot.batch.vector_lane_ratio": ratio(
            sum(s["vector"] for s in batches), lanes),
        "snapshot.batch.evicted_lanes": sum(s["evicted"] for s in batches),
        "snapshot.batch.fallback_batches": sum(s["fallback"] for s in batches),
        "snapshot.batch.scalar_lane_s": incl(
            "harness.runner.measure",
            lambda s: "snapshot.batch.run_batch" in ancestors(s)),
        "snapshot.batch.self_s": own("snapshot.batch.run_batch"),
        "snapshot.fork.cold_warmups": calls("harness.runner.warm_core"),
        "snapshot.fork.warmup_s": incl("harness.runner.warm_core"),
        "snapshot.fork.forks": len(forks),
        "snapshot.fork.fork_s": sum(_dur(s) for s in forks),
        "harness.runner.baselines": calls("harness.runner.run_one", baseline),
        "harness.runner.baseline_s": incl("harness.runner.run_one", baseline),
        "harness.runner.scheme_runs": calls(
            "harness.runner.run_one", lambda s: not baseline(s)),
        "harness.runner.scheme_run_s": incl(
            "harness.runner.run_one", lambda s: not baseline(s)),
        "harness.runner.build_core_s": incl("harness.runner.build_core"),
        "uarch.pipeline.core_run_s": core_s,
        "uarch.pipeline.committed": committed,
        "uarch.pipeline.inst_per_s": ratio(committed, core_s),
        "harness.parallel.run_many_s": incl("harness.parallel.run_many"),
        "harness.parallel.run_many_self_s": own("harness.parallel.run_many"),
        "harness.parallel.prewarm_s": incl(
            "harness.parallel.prewarm_snapshots"),
        "harness.parallel.cache_load_s": incl(
            "harness.parallel.ResultCache.load"),
        "harness.parallel.cache_store_s": incl(
            "harness.parallel.ResultCache.store"),
        "harness.parallel.cache_hit_ratio": ratio(
            sum(s["hit"] for s in loads), len(loads)),
        "campaign.journal.appends": calls("campaign.journal.Journal.append"),
        "campaign.journal.append_s": incl("campaign.journal.Journal.append"),
        "campaign.report.write_s": incl("campaign.report.write_reports"),
        "campaign.executor.self_s": own("campaign.executor.run_campaign"),
        "fleet.protocol.frames": calls("fleet.protocol.encode"),
        "fleet.protocol.bytes": sum(
            s["bytes"] for s in named["fleet.protocol.encode"]),
        "fleet.protocol.encode_s": incl("fleet.protocol.encode"),
        "fleet.protocol.decode_s": incl("fleet.protocol.decode"),
        "fleet.ledger.appends": calls("fleet.ledger.LeaseLedger.append"),
        "fleet.ledger.append_s": incl("fleet.ledger.LeaseLedger.append"),
        "fleet.merge.merge_s": incl("fleet.merge.merge_journals"),
        "fleet.coordinator.first_lease_s": (
            min(grants) - root["start"] if grants else 0.0),
        "fleet.worker.busy_ratio": ratio(busy, sum(_dur(s) for s in workers)),
        "trace.coverage": ratio(covered, wall),
        "trace.other_s": wall - covered,
    }
    return metrics, {name: row for name, row in table.items()}
