"""What the smoke scripts share: the smoke point and the result digest.

Not a check itself; the scripts of ``benchmarks/smoke/`` import it
(``python benchmarks/smoke/<script>.py`` puts this directory on
``sys.path``).
"""

from repro.core.schemes import SchemeKind
from repro.harness.runner import RunSpec

#: the smoke point: ABS at 0.97 V, 1200 measured instructions after a
#: 3000-instruction warmup
POINT = dict(scheme=SchemeKind.ABS, vdd=0.97, n_instructions=1200,
             warmup=3000)


def spec(benchmark, seed, mseed=None, snapshot_dir=None, **fields):
    """A :class:`RunSpec` of the smoke point, ``fields`` overriding it."""
    s = RunSpec(benchmark, seed=seed, measurement_seed=mseed,
                **dict(POINT, **fields))
    s.snapshot_dir = snapshot_dir
    return s


def digest(result):
    """Everything a run measures, the first-issue order of ``fu_ops`` too."""
    return (
        result.stats.as_dict(),
        list(result.stats.fu_ops),
        dict(result.cache_stats),
        repr(result.energy.__dict__),
    )
