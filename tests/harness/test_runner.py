"""Run drivers: determinism, baselines, cache priming."""

import pytest

from repro.core.schemes import SchemeKind
from repro.faults.timing import VDD_LOW_FAULT, VDD_NOMINAL
from repro.harness.runner import (
    RunSpec,
    build_core,
    prime_caches,
    run_one,
    run_pair,
)
from repro.mem.hierarchy import MemoryHierarchy
from repro.workloads.generator import build_program
from repro.workloads.profiles import get_profile

_FAST = dict(n_instructions=1500, warmup=500)


def test_run_one_deterministic():
    spec = RunSpec("bzip2", SchemeKind.ABS, VDD_LOW_FAULT, seed=7, **_FAST)
    a = run_one(spec)
    b = run_one(spec)
    assert a.stats.as_dict() == b.stats.as_dict()
    assert a.energy.total == b.energy.total


def test_seed_changes_results():
    a = run_one(RunSpec("bzip2", seed=1, **_FAST))
    b = run_one(RunSpec("bzip2", seed=2, **_FAST))
    assert a.cycles != b.cycles


def test_fault_free_at_nominal_has_no_injector():
    core = build_core(RunSpec("astar", SchemeKind.FAULT_FREE, VDD_NOMINAL))
    assert core.injector is None


def test_fault_free_baseline_at_low_voltage_is_clean():
    result = run_one(
        RunSpec("astar", SchemeKind.FAULT_FREE, VDD_LOW_FAULT, **_FAST)
    )
    assert result.fault_rate == 0.0


def test_faulty_scheme_sees_faults():
    result = run_one(RunSpec("astar", SchemeKind.RAZOR, VDD_LOW_FAULT, **_FAST))
    assert result.stats.faults_total > 0


def test_run_pair_shares_trace():
    result, baseline = run_pair(
        "gcc", SchemeKind.ABS, VDD_LOW_FAULT, seed=3, **_FAST
    )
    assert baseline.spec.scheme is SchemeKind.FAULT_FREE
    assert baseline.fault_rate == 0.0
    assert result.spec.benchmark == baseline.spec.benchmark
    assert result.perf_overhead(baseline) == pytest.approx(
        result.cycles / baseline.cycles - 1.0
    )


def test_overhead_properties():
    result, baseline = run_pair(
        "gcc", SchemeKind.RAZOR, VDD_LOW_FAULT, seed=3, **_FAST
    )
    assert result.ed_overhead(baseline) == pytest.approx(
        result.edp / baseline.edp - 1.0
    )


def test_prime_caches_loads_bounded_regions():
    program = build_program(get_profile("mcf"), seed=1)
    hierarchy = MemoryHierarchy()
    prime_caches(program, hierarchy)
    # stats were reset by priming
    assert hierarchy.stats()["l1d_misses"] == 0
    # an L1-class address is resident afterwards
    l1_statics = [
        si for si in program.static_insts
        if si.is_mem and 0 < si.mem_region <= 4096
    ]
    assert l1_statics
    assert hierarchy.l1d.probe(l1_statics[0].mem_base)


def test_prime_caches_skips_streaming_regions():
    program = build_program(get_profile("mcf"), seed=1)
    hierarchy = MemoryHierarchy()
    prime_caches(program, hierarchy)
    streaming = [
        si for si in program.static_insts
        if si.is_mem and si.mem_region > 4 * 1024 * 1024
    ]
    if streaming:  # mcf has streaming statics
        assert not hierarchy.l2.probe(streaming[0].mem_base)


def test_spec_repr_readable():
    text = repr(RunSpec("astar", SchemeKind.CDS, 0.97))
    assert "astar" in text and "CDS" in text


def test_unknown_benchmark_raises():
    with pytest.raises(KeyError):
        run_one(RunSpec("spec_nonesuch", **_FAST))


def test_register_file_smaller_than_the_program_is_rejected():
    """The generator writes r1..r31, so 16 architectural registers cannot
    rename its program: build_core says so instead of an IndexError deep
    in rename, and constructing the config stays allowed."""
    from repro.uarch.config import CoreConfig

    spec = RunSpec("gcc", "ABS", 0.97, 600, 300, 1,
                   config=CoreConfig(n_arch_regs=16, n_phys_regs=40))
    with pytest.raises(ValueError, match=r"r31.*n_arch_regs=16"):
        run_one(spec)
    with pytest.raises(ValueError, match="n_arch_regs=16"):
        build_core(spec)
