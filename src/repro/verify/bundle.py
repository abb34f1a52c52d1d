"""Self-contained, replayable repro bundles for verification failures.

When a verified run diverges from the golden model (or the watchdog
declares a hang), the raw failing configuration is often huge: tens of
thousands of instructions, warmup, a full storm schedule. The bundle
capturer delta-debugs it down — drop warmup, binary-search the smallest
failing instruction window, strip storm knobs that aren't needed — and
writes a single JSON file holding everything required to reproduce the
failure on any machine with the same model version:

```
{
  "format": 1,
  "model_version": "<source digest>",
  "failure":   {"kind": "divergence"|"hang"|..., "detail": {...}},
  "spec":      {...RunSpec.to_dict() of the failing run...},
  "minimized": {"spec": {...}, "failure": {...}},
  "trials":    [{"n_instructions": ..., "warmup": ..., "reproduced": ...}]
}
```

``repro-timing verify replay-bundle <file>`` re-runs the minimized spec
and compares the observed failure against the recorded one field by
field; because runs are deterministic in their spec, a healthy bundle
replays **byte-identically**.
"""

import json
import os
import sys

from repro.harness.runner import RunSpec


BUNDLE_FORMAT = 1

#: Probe budget for delta-debugging one failure (each trial is a run of
#: at most the original window; minimization must never dominate the
#: campaign it serves).
MAX_TRIALS = 24


class RunFailure:
    """Result object standing in for a SimResult when a run failed.

    Batch engines and the campaign executor detect it via the
    ``is_failure`` attribute (``getattr`` probe — no import needed),
    journal the bundle path, and move on. Never stored in the result
    cache.
    """

    is_failure = True

    def __init__(self, spec, kind, detail, bundle_path=None):
        self.spec = spec
        #: "divergence", "hang", or the exception class name
        self.kind = kind
        #: JSON-safe structured description of the failure
        self.detail = detail
        #: path of the written repro bundle (None if capture failed)
        self.bundle_path = bundle_path

    def __repr__(self):
        return (
            f"RunFailure({self.spec!r}, kind={self.kind!r}, "
            f"bundle={self.bundle_path!r})"
        )


def failure_signature(exc):
    """``(kind, JSON-safe detail)`` of a verification failure."""
    from repro.uarch.pipeline import SimulationHangError
    from repro.verify.lockstep import DivergenceError

    if isinstance(exc, DivergenceError):
        return "divergence", exc.detail()
    if isinstance(exc, SimulationHangError):
        return "hang", exc.detail()
    return type(exc).__name__, {"message": str(exc)}


def _clone(spec, **overrides):
    """A runnable copy of ``spec`` with fields overridden."""
    return RunSpec.from_dict(dict(spec.to_dict(), **overrides))


def _probe(spec):
    """Run ``spec``; its failure signature, or None when it passes."""
    from repro.harness.runner import run_one
    from repro.uarch.pipeline import SimulationHangError
    from repro.verify.lockstep import DivergenceError

    try:
        run_one(spec)
    except (DivergenceError, SimulationHangError) as exc:
        return failure_signature(exc)
    return None


# ----------------------------------------------------------------------
# delta-debug minimization
# ----------------------------------------------------------------------
def minimize_failure(spec, kind, detail=None, max_trials=MAX_TRIALS):
    """Shrink ``spec`` while it still fails with the same ``kind``.

    Strategy, in order of payoff: drop warmup entirely; binary-search
    the smallest failing ``n_instructions``; zero storm knobs one at a
    time. Divergence failures seed the search at the recorded commit
    index when available, so most bundles converge in a handful of
    probes.

    Returns ``(min_spec, (kind, detail), trials)`` where the signature
    is the one observed on the *minimized* spec (identical to what a
    replay of the bundle must reproduce).
    """
    trials = []
    best = _clone(spec)
    best_sig = None

    def attempt(candidate):
        nonlocal best, best_sig
        sig = _probe(candidate)
        ok = sig is not None and sig[0] == kind
        trials.append({
            "n_instructions": candidate.n_instructions,
            "warmup": candidate.warmup,
            "storm": candidate.to_dict()["storm"],
            "reproduced": ok,
        })
        if ok:
            best, best_sig = candidate, sig
        return ok

    if spec.warmup:
        attempt(_clone(best, warmup=0, n_instructions=(
            spec.n_instructions + spec.warmup
        )))
    if detail is not None:
        # a divergence at commit #i needs only ~i+1 commits to re-fire
        hint = detail.get("commit_index")
        if isinstance(hint, int) and 1 <= hint + 2 < best.n_instructions:
            attempt(_clone(best, n_instructions=hint + 2))
    lo, hi = 1, best.n_instructions
    while lo < hi and len(trials) < max_trials:
        mid = (lo + hi) // 2
        if attempt(_clone(best, n_instructions=mid)):
            hi = best.n_instructions
        else:
            lo = mid + 1
    storm = getattr(best, "storm", None)
    if storm is not None:
        for knob in ("sensor_flap", "tep_drop", "tep_fabricate",
                     "wild_frac"):
            if len(trials) >= max_trials:
                break
            if not getattr(storm, knob):
                continue
            reduced = storm.to_dict()
            reduced[knob] = 0.0
            if attempt(_clone(best, storm=reduced)):
                storm = best.storm
    if best_sig is None:
        # nothing shrank (or no probe reproduced): certify the original
        sig = _probe(best)
        if sig is not None and sig[0] == kind:
            best_sig = sig
    return best, best_sig, trials


# ----------------------------------------------------------------------
# capture + replay
# ----------------------------------------------------------------------
def _bundle_dir(repro_dir):
    if repro_dir:
        return str(repro_dir)
    return os.environ.get("REPRO_BUNDLE_DIR") or os.path.join(
        os.getcwd(), "repro_bundles"
    )


def write_bundle(bundle, repro_dir, spec):
    """Write ``bundle`` as JSON; return its path."""
    directory = _bundle_dir(repro_dir)
    os.makedirs(directory, exist_ok=True)
    name = f"bundle-{spec.key()[:16]}.json"
    path = os.path.join(directory, name)
    tmp = f"{path}.tmp.{os.getpid()}"
    with open(tmp, "w") as fh:
        json.dump(bundle, fh, indent=2, sort_keys=True)
        fh.write("\n")
    os.replace(tmp, path)
    return path


def capture_failure(spec, exc, repro_dir=None, minimize=True):
    """Turn a verification failure into a RunFailure with a repro bundle.

    Bundle capture is best-effort: if minimization or the write itself
    blows up, the failure is still reported (with ``bundle_path=None``)
    rather than masking the original problem with a capture crash.
    """
    from repro.harness.parallel import model_version

    kind, detail = failure_signature(exc)
    failure = RunFailure(spec, kind, detail)
    try:
        if minimize:
            min_spec, min_sig, trials = minimize_failure(spec, kind, detail)
        else:
            min_spec, min_sig, trials = spec, None, []
        if min_sig is None:
            min_spec, min_sig = spec, (kind, detail)
        bundle = {
            "format": BUNDLE_FORMAT,
            "model_version": model_version(),
            "failure": {"kind": kind, "detail": detail},
            "spec": spec.to_dict(),
            "minimized": {
                "spec": min_spec.to_dict(),
                "failure": {"kind": min_sig[0], "detail": min_sig[1]},
            },
            "trials": trials,
        }
        failure.bundle_path = write_bundle(bundle, repro_dir, spec)
    except Exception as capture_exc:  # noqa: BLE001 — never mask the failure
        print(
            f"[verify] bundle capture failed for {spec!r}: {capture_exc!r}",
            file=sys.stderr,
        )
    return failure


def replay_bundle(path, minimized=True):
    """Re-run a bundle's spec and diff the observed failure vs recorded.

    Returns a report dict: ``reproduced`` (same failure kind) and
    ``identical`` (the full structured detail matches field for field —
    the byte-identical replay guarantee, valid while the bundle's
    ``model_version`` matches the current sources).
    """
    from repro.harness.parallel import model_version

    with open(path) as fh:
        bundle = json.load(fh)
    section = (
        bundle["minimized"] if minimized and bundle.get("minimized")
        else {"spec": bundle["spec"], "failure": bundle["failure"]}
    )
    spec = RunSpec.from_dict(section["spec"])
    sig = _probe(spec)
    recorded = section["failure"]
    reproduced = sig is not None and sig[0] == recorded["kind"]
    identical = bool(reproduced and sig[1] == recorded["detail"])
    return {
        "bundle": str(path),
        "model_version": {
            "recorded": bundle.get("model_version"),
            "current": model_version(),
        },
        "spec": section["spec"],
        "recorded": recorded,
        "observed": (
            {"kind": sig[0], "detail": sig[1]} if sig is not None else None
        ),
        "reproduced": reproduced,
        "identical": identical,
    }
