"""Fork-from-snapshot: the warm-once / measure-many entry points.

Every fork of one snapshot key fetches the *same* dynamic instruction
stream by construction: the trace generator's RNG is warmup-side state,
captured in the blob and restored identically into every fork, and
nothing on the measurement side (``measurement_seed``, storm knobs)
reseeds it. No cross-fork sharing machinery is needed to guarantee it —
an earlier shared fetch-decision tape was measured *slower* than just
re-walking the CFG per fork (the generator emits ~560k inst/s, several
times faster than the pipeline consumes them) and was removed.
"""

import sys

from repro.harness.runner import warm_core
from repro.snapshot.cache import SnapshotCache
from repro.snapshot.state import SnapshotError, capture_core, restore_core


def snapshot_eligible(spec):
    """True when ``spec``'s warmup may be served from a snapshot.

    Three exclusions:

    * no warmup — there is nothing to amortize;
    * ``verify`` — the lockstep golden model spans the warmup too, so a
      verified run cannot start from state it never observed;
    * ``corruption`` — the chaos hook corrupts state *during* warmup by
      design, so the warmup is not a pure function of the warmup prefix.

    ``verify``/``corruption`` live in the measurement suffix of the
    canonical form, which would otherwise alias their warmups onto clean
    snapshots — this gate is what keeps that sound (the partition test
    documents the argument).
    """
    return (
        getattr(spec, "warmup", 0) > 0
        and not getattr(spec, "verify", False)
        and not getattr(spec, "corruption", None)
    )


def _resolve_cache(directory):
    if isinstance(directory, SnapshotCache):
        return directory
    return SnapshotCache(directory)


def ensure_snapshot(spec, directory):
    """Make sure ``spec``'s warmup snapshot exists; return its key.

    A no-op when the snapshot is already cached. Used by
    :func:`repro.harness.parallel.run_many`'s pre-pass so each unique
    warmup prefix of a batch is warmed exactly once before the fan-out.
    """
    cache = _resolve_cache(directory)
    key = spec.warmup_key()
    if not cache.has(key):
        cache.put_blob(key, capture_core(warm_core(spec), spec))
    return key


def warmed_core(spec, directory):
    """A core at ``spec``'s warmup boundary: forked if cached, else cold.

    Any defect in a cached blob — truncation, corruption, a stale pickle
    that somehow survived version pruning — is logged, evicted, and
    recovered by a cold warmup whose snapshot replaces the bad entry. A
    bad snapshot must cost one recompute, never a failed run.
    """
    cache = _resolve_cache(directory)
    key = spec.warmup_key()
    blob = cache.get_blob(key)
    if blob is not None:
        try:
            return restore_core(blob)
        except SnapshotError as exc:
            print(
                f"[snapshot] discarding corrupt snapshot "
                f"{key + cache.suffix}: {exc}",
                file=sys.stderr,
            )
            cache.invalidate(key)
    core = warm_core(spec)
    cache.put_blob(key, capture_core(core, spec))
    return core
