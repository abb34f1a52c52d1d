"""Cache tags that do not fit the kernel's tag arrays.

The compiled kernel keeps its cache tags as ``batchkernel.TAG_DTYPE``
(int32), so at 64-byte lines an address of 2**37 or more has a tag that
does not fit. Synthetic programs stay far below that (their addresses
end near 0x50400000), but a trace file may carry any address. A batch
whose stream holds such a tag, in the warmup or in the window, must fall
back to the scalar path under the named reason,
``batchcore.TAG_OVERFLOW``, and still equal its scalar run; the same
trace inside the range runs as a kernel lane. The batch plans from a
cold trace-file core, as it would from ``runner.cold_core``.
"""

import itertools
import json

import pytest

from repro.core.schemes import SchemeKind, make_scheme
from repro.harness.runner import RunSpec, measure
from repro.mem.hierarchy import MemoryHierarchy
from repro.uarch.config import CoreConfig
from repro.uarch.pipeline import OoOCore
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile
from repro.workloads.trace import TraceGenerator
from repro.workloads.tracefile import FileTrace

#: the measured window: 1000 fault-free instructions after 500 of warmup
SPEC = RunSpec("bzip2", SchemeKind.FAULT_FREE, 0.97, n_instructions=1000,
               warmup=500)
#: an offset that puts a data address past 2**37
FAR = 1 << 37
#: which records carry a far address: none, some of the warmup's, or
#: the window's
SPANS = {"in range": range(0), "warmup": range(100, 400),
         "window": range(SPEC.warmup, 3000)}


def _records(span):
    """A bzip2 trace as JSON lines, data addresses in ``span`` moved far."""
    program = build_program(get_profile("bzip2"), seed=2)
    insts = itertools.islice(TraceGenerator(program, seed=1), 3000)
    out = []
    for k, inst in enumerate(insts):
        record = {"pc": inst.pc, "op": inst.op.name,
                  "srcs": list(inst.static.srcs)}
        if inst.static.dest is not None:
            record["dest"] = inst.static.dest
        if inst.is_mem:
            record["addr"] = inst.mem_addr + (FAR if k in span else 0)
        if inst.is_branch:
            record["taken"] = inst.taken
        out.append(json.dumps(record))
    return out


def _core(records, warmup=0):
    """A core fetching ``records``, run through ``warmup`` commits."""
    core = OoOCore(CoreConfig.core1(), FileTrace(records), MemoryHierarchy(),
                   make_scheme(SchemeKind.FAULT_FREE))
    if warmup:
        core.run(warmup)
    return core


def _digest(result):
    return (result.stats.as_dict(), dict(result.cache_stats),
            repr(result.energy.__dict__))


@pytest.mark.parametrize("span", sorted(SPANS))
def test_trace_file_tags_run_as_a_lane_or_fall_back_by_name(span,
                                                            monkeypatch):
    from repro.snapshot import batch
    from repro.uarch import batchkernel
    from repro.uarch.batchcore import TAG_OVERFLOW

    if batchkernel.load_kernel() is None:
        pytest.skip("no compiled batch kernel")
    records = _records(SPANS[span])
    monkeypatch.setattr(batch, "cold_core", lambda spec: _core(records))
    monkeypatch.setattr(batch, "warmed_core",
                        lambda spec, snapshot_dir: _core(records, spec.warmup))
    report = batch.BatchReport()
    [lane] = batch.run_batch([SPEC], None, report)
    far = span != "in range"
    assert report.fallback_reason == (TAG_OVERFLOW if far else None)
    assert report.vector_lanes == (0 if far else 1)
    assert _digest(lane) == _digest(measure(_core(records, SPEC.warmup),
                                            SPEC))
