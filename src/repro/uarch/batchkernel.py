"""The compiled batch kernel: its ABI table, build, and call.

``batchkernel.c`` advances every live lane of a
:class:`~repro.uarch.batchcore.BatchEngine` through a commit budget (a
batch's warmup, then its measurement window), in place on the engine's
structure-of-arrays state. This module compiles it with the
system C compiler the first time a batch runs and binds the entry point
via :mod:`ctypes`. No compiler, or a failed compile, makes
:func:`load_kernel` return ``None``; the batch then runs on the scalar
snapshot-fork path (same results, slower). A failed compile is reported
on stderr with the compiler's own output.

Kernel state is declared once, in :data:`ARRAYS` and :data:`PARAMS`.
Each array's role follows from its shape (:func:`role`): a *plan* array
is lane-invariant and owned by the plan, a per-lane *row* or per-lane
*scalar* (shape ``("N",)``) is owned by the engine. :func:`abi_header`
turns the tables into the C header the kernel is compiled against: one
X-macro list per role, from which the C side expands its context
struct, its argument binding and its per-lane load/store, plus every
code both sides share (eviction, freeze and selection codes, the
timestamp mask, the scratch limits). :func:`call_kernel` checks every
argument against the same tables by name, so the two sides cannot
drift apart by position.

The shared object is cached on disk, keyed by the C source, the
generated header, the compiler path, the flags and the platform. Set
``REPRO_KERNEL_CACHE`` to move the cache out of the default temp dir;
the directory is created on the first build.
"""

import ctypes
import hashlib
import operator
import os
import platform
import shutil
import subprocess
import sys
import tempfile

import numpy as np

from repro.core.vte import FreezeKind
from repro.isa.opcodes import FuKind
from repro.uarch.issue_queue import TIMESTAMP_MASK

#: length of the per-lane writeback and EP-stall rings, in cycles
RING = 4096
#: "never": event times not (yet) scheduled
INF = 1 << 60
#: the kernel's static selection scratch holds this many IQ entries / issues
MAX_IQ = 64
MAX_WIDTH = 8
#: the functional units the kernel's select loop is written for: Core-1's
FU_COUNTS = {FuKind.SIMPLE: 2, FuKind.COMPLEX: 1, FuKind.MEM: 1}
#: eviction codes (``EV_<name>``, numbered from 1) and the reason a
#: lane evicted with that code reports
EVICTIONS = (
    ("WILD_MEM", "safety-net replay (wild MEM fault)"),
    ("UNPADDED", "safety-net replay (unpadded)"),
    ("STREAM_END", "ran past the prepared stream"),
    ("WATCHDOG", "watchdog (hang or cycle budget)"),
    ("FORCED", "forced eviction (test hook)"),
)
#: VTE freeze kinds as the kernel's ``FRZ_<kind>`` codes
FREEZE_CODE = {kind: code for code, kind in enumerate(FreezeKind)}
#: selection-key modes as the kernel's ``SEL_<mode>`` codes: age order
#: (ABS), predicted-faulty first (FFS), predicted-faulty and critical
#: first (CDS)
SEL_MODE = {"AGE": 0, "FFS": 1, "CDS": 2}

#: type of the per-lane cache tag arrays: a line address shifted by the
#: line size. Synthetic programs stay far inside it; a plan whose tag
#: does not fit falls back (``batchcore.TAG_OVERFLOW``).
TAG_DTYPE = "int32"

CFLAGS = ("-O2", "-shared", "-fPIC")

#: Every int64 parameter, by name. Shapes in :data:`ARRAYS` refer to them.
PARAMS = (
    "N", "NS", "NW", "NG", "n_stores", "nst_alloc", "n_miss",
    "width", "depth", "iq_size", "rob_size", "lsq_size", "target",
    "redirect_penalty", "replay_recovery", "recovery_bubbles",
    "model_wrong_path", "tep_probe", "uses_vte", "uses_ep_stall",
    "tolerates", "sel_mode", "crit_threshold", "max_cycles", "hang_cycles",
    "tep_n", "tep_cmax",
    "l1d_shift", "l1d_mask", "l1d_assoc", "l1d_nsets",
    "l2_shift", "l2_mask", "l2_assoc", "l2_nsets",
    "lat_l1", "lat_l2", "lat_mem",
)

#: Every array argument as ``(name, dtype, shape)``. A shape entry is an
#: int, a parameter name, or ``"name+k"``; :func:`role` reads the shape.
#: A per-lane scalar named after a ``SimStats`` counter or a
#: ``MemoryHierarchy.stats()`` key is exported under that name.
ARRAYS = (
    # ---- plan: per-slot static state -----------------------------------
    ("op", "int64", ("NS",)),
    ("lat", "int64", ("NS",)),
    ("fu", "int64", ("NS",)),
    ("nsrcs", "int64", ("NS",)),
    ("has_dest", "int64", ("NS",)),
    ("is_load", "bool", ("NS",)),
    ("is_store", "bool", ("NS",)),
    ("is_mem", "bool", ("NS",)),
    ("cond_mispred", "bool", ("NS",)),
    ("ts", "int64", ("NS",)),
    ("SM", "int64", ("NS+1",)),
    ("M", "int64", ("NS+1",)),
    ("HD", "int64", ("NS+1",)),
    ("srank", "int64", ("NS",)),
    ("st_addr8", "int64", ("n_stores",)),
    ("addr8", "int64", ("NS",)),
    ("mem_addr", "int64", ("NS",)),
    ("ws0", "int64", ("NS",)),
    ("ws1", "int64", ("NS",)),
    ("tepi", "int64", ("NS",)),
    ("tept", "int64", ("NS",)),
    # ---- plan: fetch groups --------------------------------------------
    ("g_start", "int64", ("NG",)),
    ("g_len", "int64", ("NG",)),
    ("g_branches", "int64", ("NG",)),
    ("g_mispred", "bool", ("NG",)),
    ("g_has_miss", "bool", ("NG",)),
    ("g_miss_off", "int64", ("NG+1",)),
    ("miss_pcs", "int64", ("n_miss",)),
    # ---- plan: VTE effects by (predicted stage + 1, op) ------------------
    ("T_RR", "int64", (11, 8)),
    ("T_EX", "int64", (11, 8)),
    ("T_MEM", "int64", (11, 8)),
    ("T_WB", "int64", (11, 8)),
    ("T_FRZ", "int8", (11, 8)),
    ("T_HAS", "int64", (11, 8)),
    # ---- plan: per-op facts --------------------------------------------
    ("op_unpipelined", "bool", (8,)),
    # ---- engine: per-lane machine state (initial rows: plan.<name>0) ----
    ("tape", "int16", ("N", "NS")),
    ("pred", "int8", ("N", "NS")),
    ("pcrit", "bool", ("N", "NS")),
    ("cec", "int64", ("N", "NS")),
    ("wake", "int64", ("N", "NW")),
    ("iq_slot", "int64", ("N", "iq_size")),
    ("iq_len", "int64", ("N",)),
    ("conv_start", "int64", ("N", "depth")),
    ("conv_len", "int64", ("N", "depth")),
    ("fu_ni", "int64", ("N", 4)),
    ("wbring", "int16", ("N", RING)),
    ("epring", "int32", ("N", RING)),
    ("store_resolve", "int64", ("N", "nst_alloc")),
    ("premax", "int64", ("N", "nst_alloc")),
    ("frontier", "int64", ("N",)),
    ("pm_run", "int64", ("N",)),
    ("lsq_occ", "int64", ("N",)),
    ("free_cnt", "int64", ("N",)),
    ("cp", "int64", ("N",)),
    ("dp", "int64", ("N",)),
    ("blk_active", "bool", ("N",)),
    ("blk_resolve_v", "int64", ("N",)),
    ("blk_fetch_abs", "int64", ("N",)),
    ("resume_v", "int64", ("N",)),
    ("g_ptr", "int64", ("N",)),
    ("burned", "int64", ("N",)),
    ("v_end", "int64", ("N",)),
    ("last_commit_real", "int64", ("N",)),
    ("active", "bool", ("N",)),
    ("evict_code", "int64", ("N",)),
    ("force_at", "int64", ("N",)),
    ("tep_tag", "int64", ("N", "tep_n")),
    ("tep_cnt", "int64", ("N", "tep_n")),
    ("tep_stage", "int64", ("N", "tep_n")),
    ("tep_crit", "bool", ("N", "tep_n")),
    ("l1d_tags", TAG_DTYPE, ("N", "l1d_nsets", "l1d_assoc")),
    ("l1d_cnt", "int64", ("N", "l1d_nsets")),
    ("l2_tags", TAG_DTYPE, ("N", "l2_nsets", "l2_assoc")),
    ("l2_cnt", "int64", ("N", "l2_nsets")),
    # ---- engine: per-lane counters (start at zero) ----------------------
    ("committed", "int64", ("N",)),
    ("fetched", "int64", ("N",)),
    ("dispatched", "int64", ("N",)),
    ("issued", "int64", ("N",)),
    ("replays", "int64", ("N",)),
    ("branch_mispredicts", "int64", ("N",)),
    ("branches", "int64", ("N",)),
    ("false_predictions", "int64", ("N",)),
    ("ep_stalls", "int64", ("N",)),
    ("slot_freezes", "int64", ("N",)),
    ("padded_instructions", "int64", ("N",)),
    ("wrong_path_fetched", "int64", ("N",)),
    ("regreads", "int64", ("N",)),
    ("regwrites", "int64", ("N",)),
    ("broadcasts", "int64", ("N",)),
    ("broadcast_occupancy", "int64", ("N",)),
    ("iq_occupancy_accum", "int64", ("N",)),
    ("lsq_searches", "int64", ("N",)),
    ("store_forwards", "int64", ("N",)),
    ("faults_total", "int64", ("N",)),
    ("faults_predicted", "int64", ("N",)),
    ("faults_unpredicted", "int64", ("N",)),
    ("critical_marks_landed", "int64", ("N",)),
    ("stage_faults", "int64", ("N", 10)),
    ("fu_op_counts", "int64", ("N", 8)),
    ("fu_first", "int64", ("N", 8)),
    ("l1d_hits", "int64", ("N",)),
    ("l1d_misses", "int64", ("N",)),
    ("l2_hits", "int64", ("N",)),
    ("l2_misses", "int64", ("N",)),
    ("mem_accesses", "int64", ("N",)),
)

_C_TYPES = {
    "bool": "uint8_t", "int8": "int8_t", "int16": "int16_t",
    "int32": "int32_t", "int64": "int64_t",
}

_loaded = False
_fn = None


class KernelABIError(ValueError):
    """An argument to :func:`call_kernel` disagrees with the ABI table."""


def role(shape):
    """``"plan"``, ``"row"`` or ``"scalar"``: the role of an array of ``shape``.

    Only a shape that starts with ``"N"`` has one entry per lane; one
    with no further dimension is a per-lane scalar, which the kernel
    loads into its context before a lane runs and stores after.
    """
    if shape[0] != "N":
        return "plan"
    return "scalar" if len(shape) == 1 else "row"


def by_role(kind):
    """Names of the :data:`ARRAYS` entries of role ``kind``, in table order."""
    return tuple(name for name, _, shape in ARRAYS if role(shape) == kind)


def _c_extent(dim):
    """A shape entry as a C expression over the params of context ``c``."""
    return str(dim) if isinstance(dim, int) else f"((c).{dim})"


def shared_codes():
    """Every constant the C source shares with Python, as (name, value)."""
    yield from ((f"EV_{n}", code) for code, (n, _) in enumerate(EVICTIONS, 1))
    yield from ((f"FRZ_{k.name}", code) for k, code in FREEZE_CODE.items())
    yield from ((f"SEL_{mode}", code) for mode, code in SEL_MODE.items())
    yield "TS_MASK", TIMESTAMP_MASK
    yield "K_MAX_IQ", MAX_IQ
    yield "K_MAX_WIDTH", MAX_WIDTH
    yield "K_RING", RING
    yield "K_INF", f"INT64_C({INF})"


def abi_header():
    """The C header the kernel is compiled against, generated from the tables.

    Beside the index of every argument it emits one X-macro list per
    role: ``K_PLAN_ARRAYS(X)`` and ``K_LANE_SCALARS(X)`` call
    ``X(name, ctype)``, ``K_LANE_ROWS(X, c)`` calls
    ``X(name, ctype, stride)`` with the row stride read from the params
    of context ``c``, and ``K_PARAMS(X)`` calls ``X(name)``.
    """
    lines = [
        "/* Generated by repro.uarch.batchkernel.abi_header() from",
        " * ARRAYS and PARAMS; do not edit. */",
        "#include <stdint.h>",
        *(f"#define {name} {value}" for name, value in shared_codes()),
        "#define ARR(A, name) ((arr_t_##name *)(A)[ARR_##name])",
        "#define PRM(p, name) ((p)[PRM_##name])",
    ]
    for i, (name, dtype, _) in enumerate(ARRAYS):
        lines.append(f"#define ARR_{name} {i}")
        lines.append(f"typedef {_C_TYPES[dtype]} arr_t_{name};")
    for i, name in enumerate(PARAMS):
        lines.append(f"#define PRM_{name} {i}")
    lists = {"plan": [], "row": [], "scalar": []}
    for name, dtype, shape in ARRAYS:
        kind = role(shape)
        args = [name, _C_TYPES[dtype]]
        if kind == "row":
            args.append(" * ".join(_c_extent(d) for d in shape[1:]))
        lists[kind].append(f"X({', '.join(args)})")
    for macro, items in (
        ("K_PLAN_ARRAYS(X)", lists["plan"]),
        ("K_LANE_ROWS(X, c)", lists["row"]),
        ("K_LANE_SCALARS(X)", lists["scalar"]),
        ("K_PARAMS(X)", [f"X({name})" for name in PARAMS]),
    ):
        lines.append(f"#define {macro} \\")
        lines.extend(f"    {item} \\" for item in items)
        lines.append("    /* end */")
    return "\n".join(lines) + "\n"


def _source_path():
    return os.path.join(os.path.dirname(__file__), "batchkernel.c")


def _compiler():
    cc = os.environ.get("CC")
    if cc:
        return shutil.which(cc)
    return shutil.which("cc") or shutil.which("gcc") or shutil.which("clang")


def _cache_dir():
    return os.environ.get("REPRO_KERNEL_CACHE") or tempfile.gettempdir()


def so_path(cc, flags=CFLAGS):
    """Cache path of the shared object ``cc`` builds with ``flags``.

    Keyed by everything that shapes the binary: the C source, the
    generated ABI header, the compiler, the flags and the platform.
    """
    digest = hashlib.sha256()
    with open(_source_path(), "rb") as f:
        digest.update(f.read())
    for part in (abi_header(), cc, *flags, sys.platform, platform.machine()):
        digest.update(part.encode() + b"\0")
    return os.path.join(
        _cache_dir(), f"repro-batchkernel-{digest.hexdigest()[:16]}.so"
    )


def build_kernel():
    """Compile (or reuse) the shared object; returns its path or None."""
    cc = _compiler()
    if cc is None:
        print("[batchkernel] no C compiler found; batches run scalar",
              file=sys.stderr)
        return None
    try:
        so = so_path(cc)
    except OSError:
        return None
    if os.path.exists(so):
        return so
    tmp = f"{so}.{os.getpid()}.tmp"
    try:
        os.makedirs(os.path.dirname(so), exist_ok=True)
        with tempfile.TemporaryDirectory() as inc:
            with open(os.path.join(inc, "batchkernel_abi.h"), "w") as f:
                f.write(abi_header())
            subprocess.run(
                [cc, *CFLAGS, "-I", inc, "-o", tmp, _source_path()],
                check=True, capture_output=True, text=True, timeout=120,
            )
        os.replace(tmp, so)
    except (OSError, subprocess.SubprocessError) as exc:
        detail = getattr(exc, "stderr", None) or exc
        print(f"[batchkernel] compiling with {cc} failed; batches run "
              f"scalar:\n{detail}", file=sys.stderr)
        try:
            os.unlink(tmp)
        except OSError:
            pass
        return None
    return so


def load_kernel():
    """ctypes-bound ``repro_batch_run`` or None; result is memoized."""
    global _loaded, _fn
    if _loaded:
        return _fn
    _loaded = True
    so = build_kernel()
    if so is None:
        return None
    try:
        fn = ctypes.CDLL(so).repro_batch_run
    except (OSError, AttributeError):
        return None
    fn.argtypes = [
        ctypes.POINTER(ctypes.c_void_p),
        ctypes.POINTER(ctypes.c_int64),
    ]
    fn.restype = None
    _fn = fn
    return _fn


def reset_kernel_cache():
    """Forget the memoized load result (test hook)."""
    global _loaded, _fn
    _loaded = False
    _fn = None


def _extent(dim, params):
    if isinstance(dim, int):
        return dim
    name, _, extra = dim.partition("+")
    return params[name] + int(extra or 0)


def _check_names(kind, given, declared):
    missing = [n for n in declared if n not in given]
    extra = sorted(set(given) - set(declared))
    if missing or extra:
        raise KernelABIError(
            f"kernel {kind}: missing {missing}, unexpected {extra}"
        )


def call_kernel(fn, arrays, params):
    """Invoke ``fn`` with ``arrays`` and ``params`` (name -> value maps).

    Every entry is checked against :data:`ARRAYS` / :data:`PARAMS` by
    name, dtype, C-contiguity and element count before anything reaches
    C; a mismatch raises :class:`KernelABIError` naming the argument.
    """
    _check_names("params", params, PARAMS)
    _check_names("arrays", arrays, [name for name, _, _ in ARRAYS])
    prm = {}
    for name in PARAMS:
        try:
            prm[name] = operator.index(params[name])
        except TypeError:
            raise KernelABIError(
                f"kernel param {name!r}: {params[name]!r} is not an integer"
            ) from None
    for name, dtype, shape in ARRAYS:
        a = arrays[name]
        if not isinstance(a, np.ndarray) or a.dtype != np.dtype(dtype):
            got = getattr(a, "dtype", type(a).__name__)
            raise KernelABIError(
                f"kernel array {name!r}: dtype {got}, expected {dtype}"
            )
        if not a.flags["C_CONTIGUOUS"]:
            raise KernelABIError(f"kernel array {name!r}: not C-contiguous")
        count = 1
        for dim in shape:
            count *= _extent(dim, prm)
        if a.size != count:
            raise KernelABIError(
                f"kernel array {name!r}: {a.size} elements, expected "
                f"{count} for shape {shape}"
            )
    ptrs = (ctypes.c_void_p * len(ARRAYS))(
        *[arrays[name].ctypes.data for name, _, _ in ARRAYS]
    )
    vals = (ctypes.c_int64 * len(PARAMS))(*[prm[name] for name in PARAMS])
    fn(ptrs, vals)
