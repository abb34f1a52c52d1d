"""Drivers wiring lockstep verification into single runs and batch workers.

:func:`run_verified` is :func:`~repro.harness.runner.run_one` with the
golden-model lockstep checker attached over the warmup and the shared
measured window (:func:`~repro.harness.runner.measure`): it raises
:class:`~repro.verify.lockstep.DivergenceError` the moment the pipeline's
retired stream departs from the in-order reference, and audits the final
register/memory images at end of run. :func:`run_checked` is the
batch-worker wrapper: instead of letting a divergence or hang kill the
whole batch, it captures the failure into a replayable repro bundle and
returns a :class:`~repro.verify.bundle.RunFailure` result object that the
campaign executor journals and skips past.
"""

from repro.harness.runner import build_core, measure, warm_core
from repro.verify.chaos import CorruptionHook
from repro.verify.golden import GoldenModel
from repro.verify.lockstep import LockstepChecker


def run_verified(spec):
    """Run one point under the lockstep checker; return its SimResult.

    The golden model spans warmup *and* measurement (it checks every
    commit, not just the measured window — which is why verified runs are
    never snapshot-forked); the measured window is the shared
    :func:`~repro.harness.runner.measure`, so stat resets, storm wrapping,
    fault-stream reseeding, telemetry attach and result packaging behave
    identically to the unverified driver. The returned result carries the
    checker's end-of-run report as ``.verification``. Raises
    :class:`~repro.verify.lockstep.DivergenceError` on divergence and
    :class:`~repro.uarch.pipeline.SimulationHangError` on a wedged
    machine.
    """
    core = build_core(spec)
    golden = GoldenModel.for_core(core, spec.seed + 101)
    corruption = getattr(spec, "corruption", None)
    if corruption:
        corruption = CorruptionHook.from_dict(dict(corruption))
    else:
        corruption = None
    checker = LockstepChecker(core, golden, corruption=corruption)
    result = measure(warm_core(spec, core), spec)
    result.verification = checker.finalize()
    return result


def run_checked(spec):
    """``run_one`` that converts verification failures into results.

    Divergences and hangs are captured into a minimized repro bundle
    (written under ``spec.repro_dir`` when set) and returned as a
    :class:`~repro.verify.bundle.RunFailure` instead of raised, so one
    bad point cannot take down a batch or campaign. Any other exception
    still propagates — an infrastructure crash should stay loud.
    """
    from repro.harness.runner import run_one
    from repro.uarch.pipeline import SimulationHangError
    from repro.verify.bundle import capture_failure
    from repro.verify.lockstep import DivergenceError

    try:
        return run_one(spec)
    except (DivergenceError, SimulationHangError) as exc:
        return capture_failure(spec, exc, getattr(spec, "repro_dir", None))
