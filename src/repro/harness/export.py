"""JSON serialization of simulation and experiment results.

Downstream analysis (plotting, regression tracking) wants machine-readable
outputs. ``sim_result_to_dict`` flattens a :class:`~repro.harness.runner.
SimResult`; ``experiment_to_dict`` wraps an experiment's data; and
``write_json`` dumps either to a file. Objects that are not natively JSON
(enums, numpy scalars, report objects) are coerced conservatively.
"""

import json

from repro.isa.opcodes import OpClass, PipeStage


def _coerce(value):
    """Best-effort conversion of a value to something JSON-serializable."""
    if isinstance(value, (OpClass, PipeStage)):
        return value.name
    if isinstance(value, dict):
        return {_key(k): _coerce(v) for k, v in value.items()}
    if isinstance(value, (list, tuple, set)):
        return [_coerce(v) for v in value]
    if isinstance(value, (str, int, float, bool)) or value is None:
        return value
    if hasattr(value, "item"):  # numpy scalar
        return value.item()
    if hasattr(value, "__dict__"):
        return {
            k: _coerce(v)
            for k, v in vars(value).items()
            if not k.startswith("_")
        }
    return repr(value)


def _key(key):
    if isinstance(key, (OpClass, PipeStage)):
        return key.name
    if isinstance(key, (int, float, str, bool)):
        return str(key)
    return repr(key)


def sim_result_to_dict(result):
    """Flatten one :class:`~repro.harness.runner.SimResult`."""
    return {
        "spec": result.spec.to_dict(),
        "metrics": {
            "ipc": result.ipc,
            "cycles": result.cycles,
            "fault_rate": result.fault_rate,
            "energy_pj": result.energy.total,
            "edp": result.edp,
        },
        "stats": _coerce(result.stats.as_dict()),
        "stage_faults": _coerce(result.stats.stage_faults),
        "cache": _coerce(result.cache_stats),
    }


def experiment_to_dict(experiment):
    """Wrap an :class:`~repro.harness.experiments.ExperimentResult`."""
    return {
        "experiment": experiment.name,
        "data": _coerce(experiment.data),
        "rendered": experiment.render(),
    }


def write_json(obj, path, indent=2):
    """Serialize ``obj`` (result, experiment, or plain data) to ``path``."""
    if hasattr(obj, "render") and hasattr(obj, "data"):
        payload = experiment_to_dict(obj)
    elif hasattr(obj, "stats") and hasattr(obj, "spec"):
        payload = sim_result_to_dict(obj)
    else:
        payload = _coerce(obj)
    with open(path, "w") as handle:
        json.dump(payload, handle, indent=indent, default=repr)
    return path
