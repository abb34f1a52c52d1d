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


def test_kernel_source_resolves_every_argument_by_name():
    with open(_KERNEL_C) as fh:
        src = re.sub(r"/\*.*?\*/", "", fh.read(), flags=re.S)
    assert not re.search(r"\b[Ap]\[\d+\]", src), "numeric argument index"
    used_arrays = set(re.findall(r"\bARR\(A, (\w+)\)", src))
    used_params = set(re.findall(r"\bPRM\(p, (\w+)\)", src))
    assert used_arrays == {name for name, _, _ in ARRAYS}
    assert used_params <= set(PARAMS)
    # a param the kernel never reads must at least size some array
    shape_params = {
        dim.partition("+")[0]
        for _, _, shape in ARRAYS for dim in shape if isinstance(dim, str)
    }
    assert set(PARAMS) - used_params <= shape_params


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
