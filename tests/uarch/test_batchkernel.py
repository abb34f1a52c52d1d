"""The compiled batch kernel's ABI table, build cache, and argument checks."""

import os
import re
import shutil

import pytest

from repro.uarch import batchkernel
from repro.uarch.batchkernel import (
    ARRAYS,
    CFLAGS,
    PARAMS,
    KernelABIError,
    abi_header,
    call_kernel,
    so_path,
)

np = pytest.importorskip("numpy")

_KERNEL_C = os.path.join(os.path.dirname(batchkernel.__file__), "batchkernel.c")


# ----------------------------------------------------------------------
# argument checks
# ----------------------------------------------------------------------
def _valid_args():
    """A small argument set that satisfies every table entry."""
    params = {name: 3 for name in PARAMS}
    arrays = {
        name: np.zeros(
            [batchkernel._extent(dim, params) for dim in shape], dtype=dtype
        )
        for name, dtype, shape in ARRAYS
    }
    return arrays, params


class _Recorder:
    def __init__(self):
        self.calls = 0

    def __call__(self, ptrs, prm):
        self.calls += 1


def test_valid_arguments_reach_the_kernel():
    fn = _Recorder()
    call_kernel(fn, *_valid_args())
    assert fn.calls == 1


def _mutations():
    def wrong_dtype(arrays, params):
        arrays["cec"] = arrays["cec"].astype(np.int32)

    def wrong_length(arrays, params):
        arrays["g_miss_off"] = np.zeros(params["NG"], dtype=np.int64)

    def not_contiguous(arrays, params):
        arrays["tape"] = np.zeros((3, 6), dtype=np.int16)[:, ::2]

    def not_an_array(arrays, params):
        arrays["op"] = [0, 0, 0]

    def missing_array(arrays, params):
        del arrays["wake"]

    def extra_array(arrays, params):
        arrays["wake2"] = arrays["wake"]

    def missing_param(arrays, params):
        del params["width"]

    def extra_param(arrays, params):
        params["widht"] = 4

    def float_param(arrays, params):
        params["target"] = 3.0

    return {
        "wrong_dtype": (wrong_dtype, "cec"),
        "wrong_length": (wrong_length, "g_miss_off"),
        "not_contiguous": (not_contiguous, "tape"),
        "not_an_array": (not_an_array, "op"),
        "missing_array": (missing_array, "wake"),
        "extra_array": (extra_array, "wake2"),
        "missing_param": (missing_param, "width"),
        "extra_param": (extra_param, "widht"),
        "float_param": (float_param, "target"),
    }


@pytest.mark.parametrize("case", sorted(_mutations()))
def test_abi_mismatch_is_named_and_never_reaches_c(case):
    mutate, culprit = _mutations()[case]
    arrays, params = _valid_args()
    mutate(arrays, params)
    fn = _Recorder()
    with pytest.raises(KernelABIError, match=culprit):
        call_kernel(fn, arrays, params)
    assert fn.calls == 0


# ----------------------------------------------------------------------
# the generated header and the C source agree with the table
# ----------------------------------------------------------------------
def test_header_matches_table():
    header = abi_header()
    arr = dict(re.findall(r"#define ARR_(\w+) (\d+)", header))
    ctype = {n: t for t, n in re.findall(r"typedef (\w+) arr_t_(\w+);", header)}
    prm = dict(re.findall(r"#define PRM_(\w+) (\d+)", header))
    assert arr == {name: str(i) for i, (name, _, _) in enumerate(ARRAYS)}
    assert prm == {name: str(i) for i, name in enumerate(PARAMS)}
    widths = {"bool": "uint8_t", "int8": "int8_t", "int16": "int16_t",
              "int32": "int32_t", "int64": "int64_t"}
    assert ctype == {name: widths[dt] for name, dt, _ in ARRAYS}


def _role_lists(header):
    """Macro name -> the argument names its generated X-macro list names."""
    lists = {}
    for macro, body in re.findall(
        r"#define (K_\w+)\(X(?:, c)?\) \\\n(.*?)/\* end \*/", header, re.S
    ):
        lists[macro] = re.findall(r"X\((\w+)", body)
    return lists


def test_role_lists_name_every_argument_once():
    lists = _role_lists(abi_header())
    assert sorted(lists) == [
        "K_LANE_ROWS", "K_LANE_SCALARS", "K_PARAMS", "K_PLAN_ARRAYS",
    ]
    listed = [name for names in lists.values() for name in names]
    declared = [name for name, _, _ in ARRAYS] + list(PARAMS)
    assert sorted(listed) == sorted(declared)
    assert lists["K_PARAMS"] == list(PARAMS)
    assert lists["K_LANE_SCALARS"] == [
        name for name, _, shape in ARRAYS if shape == ("N",)
    ]


def test_kernel_source_resolves_every_argument_by_name():
    with open(_KERNEL_C) as fh:
        src = re.sub(r"/\*.*?\*/", "", fh.read(), flags=re.S)
    assert not re.search(r"\b[Ap]\[\d+\]", src), "numeric argument index"
    emitted = {name for name, _ in batchkernel.shared_codes()}
    defined = set(re.findall(r"#define (\w+)", src))
    assert not defined & emitted, "hand-written copy of a generated code"
    arrays = {name for name, _, _ in ARRAYS}
    assert set(re.findall(r"\bARR\(A, (\w+)\)", src)) <= arrays | {"name"}
    assert set(re.findall(r"\bPRM\(p, (\w+)\)", src)) <= set(PARAMS) | {
        "name"
    }
    # every argument reaches the kernel by name: each role list is
    # expanded with a macro that reads ARR(A, name) or PRM(p, name)
    binders = set(re.findall(
        r"#define (\w+)\(name\b[^)]*\)[^\n]*\b(?:ARR\(A|PRM\(p), name\)", src
    ))
    lists = _role_lists(abi_header())
    bound_lists = {
        m for m, x in re.findall(r"\b(K_\w+)\((\w+)", src)
        if m in lists and x in binders
    }
    assert bound_lists == set(lists)
    assert {n for m in bound_lists for n in lists[m]} == arrays | set(PARAMS)


def test_lane_export_rows_are_pinned():
    batchcore = pytest.importorskip("repro.uarch.batchcore")
    assert batchcore._STATS_ROWS == (
        "committed", "fetched", "dispatched", "issued", "replays",
        "branch_mispredicts", "branches", "false_predictions", "ep_stalls",
        "slot_freezes", "padded_instructions", "wrong_path_fetched",
        "regreads", "regwrites", "broadcasts", "broadcast_occupancy",
        "iq_occupancy_accum", "lsq_searches", "store_forwards",
        "faults_total", "faults_predicted", "faults_unpredicted",
    )
    assert batchcore._CACHE_ROWS == (
        "l1d_hits", "l1d_misses", "l2_hits", "l2_misses", "mem_accesses",
    )


# ----------------------------------------------------------------------
# build cache and compiler handling
# ----------------------------------------------------------------------
def test_so_path_keys_on_compiler_and_flags(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    base = so_path("/usr/bin/cc")
    assert base == so_path("/usr/bin/cc")
    assert os.path.dirname(base) == str(tmp_path)
    assert so_path("/usr/bin/clang") != base
    assert so_path("/usr/bin/cc", CFLAGS + ("-march=native",)) != base
    assert so_path("/usr/bin/cc", ("-O0", "-shared", "-fPIC")) != base


def test_so_path_keys_on_abi_table(tmp_path, monkeypatch):
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    base = so_path("/usr/bin/cc")
    monkeypatch.setattr(batchkernel, "PARAMS", PARAMS[::-1])
    assert so_path("/usr/bin/cc") != base


def test_compile_failure_is_logged_with_compiler_stderr(
    tmp_path, monkeypatch, capsys
):
    cc = tmp_path / "broken-cc"
    cc.write_text("#!/bin/sh\necho 'fatal: broken toolchain' >&2\nexit 1\n")
    cc.chmod(0o755)
    monkeypatch.setenv("CC", str(cc))
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(tmp_path))
    assert batchkernel.build_kernel() is None
    err = capsys.readouterr().err
    assert "fatal: broken toolchain" in err
    assert str(cc) in err
    assert not list(tmp_path.glob("*.so")) and not list(tmp_path.glob("*.tmp"))


_HAVE_CC = any(shutil.which(cc) for cc in ("cc", "gcc", "clang"))


@pytest.mark.skipif(not _HAVE_CC, reason="no C compiler on PATH")
def test_kernel_compiles_when_a_compiler_is_present(monkeypatch):
    monkeypatch.delenv("CC", raising=False)
    batchkernel.reset_kernel_cache()
    try:
        assert batchkernel.load_kernel() is not None
    finally:
        batchkernel.reset_kernel_cache()


@pytest.mark.skipif(not _HAVE_CC, reason="no C compiler on PATH")
def test_kernel_cache_directory_is_created(tmp_path, monkeypatch):
    cache = tmp_path / "new" / "dir"
    monkeypatch.delenv("CC", raising=False)
    monkeypatch.setenv("REPRO_KERNEL_CACHE", str(cache))
    batchkernel.reset_kernel_cache()
    try:
        assert batchkernel.load_kernel() is not None
    finally:
        batchkernel.reset_kernel_cache()
    assert list(cache.glob("*.so"))
