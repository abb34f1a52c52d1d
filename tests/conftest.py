"""Shared fixtures: small programs, cores, fault stacks, compiler runs."""

import shutil

import pytest

from repro.core.schemes import SchemeKind, make_scheme
from repro.core.tep import TimingErrorPredictor
from repro.faults.sensors import VoltageSensor
from repro.faults.timing import StageTimingModel, VoltageScaling
from repro.faults.variation import ProcessVariationModel
from repro.isa.instruction import StaticInst
from repro.isa.opcodes import OpClass
from repro.isa.program import BasicBlock, Program
from repro.mem.hierarchy import MemoryHierarchy
from repro.uarch.config import CoreConfig
from repro.uarch.pipeline import OoOCore
from repro.workloads.trace import TraceGenerator


def make_linear_program(n_blocks=4, block_len=5, loop=True):
    """A deterministic program: independent ALU chains, looping blocks."""
    blocks = []
    pc = 0x1000
    for b in range(n_blocks):
        insts = []
        for i in range(block_len - 1):
            insts.append(
                StaticInst(pc, OpClass.IALU, dest=(i % 8) + 1, srcs=())
            )
            pc += 4
        insts.append(StaticInst(pc, OpClass.BRANCH, srcs=(), taken_prob=0.0))
        pc += 4
        if loop:
            successors = [((b + 1) % n_blocks, 1.0)]
        elif b + 1 < n_blocks:
            successors = [(b + 1, 1.0)]
        else:
            successors = []  # program ends: the trace is finite
        blocks.append(BasicBlock(b, insts, successors))
    return Program(blocks, name="linear")


@pytest.fixture
def linear_program():
    return make_linear_program()


def make_core(program=None, scheme=SchemeKind.FAULT_FREE, injector=None,
              vdd=1.10, seed=0, config=None, tep=None):
    """Assemble a small core over a trace of ``program``."""
    program = program or make_linear_program()
    trace = TraceGenerator(program, seed=seed)
    scheme_obj = make_scheme(scheme)
    if scheme_obj.uses_tep and tep is None:
        tep = TimingErrorPredictor()
    sensor = VoltageSensor(vdd)
    core = OoOCore(
        config or CoreConfig.core1(),
        trace,
        MemoryHierarchy(),
        scheme_obj,
        injector=injector,
        tep=tep,
        sensor=sensor,
        vdd=vdd,
    )
    core.program = program
    return core


@pytest.fixture
def timing_model():
    return StageTimingModel(VoltageScaling(), ProcessVariationModel(seed=3))


@pytest.fixture
def compiler_log(tmp_path, monkeypatch):
    """A file that gets one line, the pid, per run of the C compiler.

    ``CC`` names a wrapper around the system compiler that logs its pid,
    every process of the test starts from an empty kernel cache, and
    this process's loaded kernel is forgotten before and after.
    """
    from repro.uarch import batchkernel

    cc = shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")
    if cc is None:
        pytest.skip("no C compiler")
    log = tmp_path / "cc.log"
    log.write_text("")
    wrapper = tmp_path / "cc"
    wrapper.write_text(f'#!/bin/sh\necho $$ >> "{log}"\nexec "{cc}" "$@"\n')
    wrapper.chmod(0o755)
    monkeypatch.setenv("CC", str(wrapper))
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path / "kernels"))
    batchkernel.reset_kernel_cache()
    yield log
    batchkernel.reset_kernel_cache()
