"""The warmup/measurement partition of RunSpec.canonical() is exhaustive.

The snapshot cache is sound only if every field of a spec lands in
exactly one half of the canonical form: a warmup-relevant field leaking
into the measurement suffix would alias different warmups onto one
snapshot; a measurement-only field in the warmup prefix would merely
shrink sharing, but would silently break the warm-once economics these
tests also pin. So: every constructor field must move exactly one half,
and ``canonical()`` must be exactly the concatenation of the two.

``verify`` and ``corruption`` sit in the measurement suffix even though
a corruption hook mutates state *during* warmup — that is sound only
because ``snapshot_eligible`` refuses both, which
``test_eligibility_covers_the_partition_caveats`` pins.

The same holds one level down: every ``CoreConfig`` and ``TEPConfig``
parameter shapes the machine from cycle 0, so each must move the warmup
key.
"""

import inspect

from repro.core.schemes import SchemeKind
from repro.core.tep import TEPConfig
from repro.faults.storm import StormConfig
from repro.harness.runner import RunSpec
from repro.snapshot import snapshot_eligible
from repro.telemetry.config import TelemetryConfig
from repro.uarch.config import CoreConfig


def _base(**kw):
    return RunSpec("astar", SchemeKind.ABS, 0.97, n_instructions=4000,
                   warmup=2000, seed=3, **kw)


#: constructor field -> (mutated value, half it must land in)
MUTATIONS = {
    "benchmark": ("bzip2", "warmup"),
    "scheme": (SchemeKind.EP, "warmup"),
    "vdd": (1.04, "warmup"),
    "n_instructions": (5000, "warmup"),
    "warmup": (1000, "warmup"),
    "seed": (4, "warmup"),
    "config": (CoreConfig.core1(), "warmup"),
    "tep_config": ("_tep_", "warmup"),
    "predictor": ("mre", "warmup"),
    "overclock": (1.1, "warmup"),
    "measurement_seed": (17, "measurement"),
    "storm": (StormConfig(), "measurement"),
    "verify": (True, "measurement"),
    "corruption": ({"kind": "regval", "rate": 0.1}, "measurement"),
    "telemetry": (TelemetryConfig(metrics=True, interval=500),
                  "measurement"),
}


def _mutated(field, value):
    if field == "tep_config":
        from repro.core.tep import TEPConfig

        value = TEPConfig(n_entries=32)
    spec = _base()
    setattr(spec, field, value)
    return spec


#: config class -> (RunSpec field, {constructor parameter: mutated value})
CONFIG_MUTATIONS = {
    CoreConfig: ("config", {
        "width": 2, "iq_size": 16, "rob_size": 64, "lsq_size": 16,
        "n_arch_regs": 24, "n_phys_regs": 80, "n_simple_alu": 1,
        "n_complex_alu": 2, "n_mem_ports": 2, "frontend_depth": 5,
        "redirect_penalty": 3, "replay_recovery": 4,
        "recovery_bubbles": 2, "replay_mode": "flush",
        "bp_history_bits": 8, "bp_table_bits": 10,
        "criticality_threshold": 4, "mem_dependence": "store_sets",
        "model_wrong_path": False,
    }),
    TEPConfig: ("tep_config", {
        "n_entries": 512, "tag_bits": 12, "counter_bits": 3,
        "history_bits": 4,
    }),
}


def _params(cls):
    return [
        name for name in inspect.signature(cls.__init__).parameters
        if name != "self"
    ]


def test_every_constructor_field_is_partitioned():
    """Mutating any field changes exactly the half the table says."""
    params = _params(RunSpec)
    # the table covers the constructor exhaustively: a new RunSpec field
    # must be classified here before it can ship
    assert sorted(params) == sorted(MUTATIONS)

    base = _base()
    for field, (value, half) in MUTATIONS.items():
        spec = _mutated(field, value)
        warmup_moved = spec.warmup_canonical() != base.warmup_canonical()
        measurement_moved = (
            spec.measurement_canonical() != base.measurement_canonical()
        )
        assert warmup_moved == (half == "warmup"), field
        assert measurement_moved == (half == "measurement"), field


def test_every_config_field_moves_the_warmup_key():
    """Each CoreConfig/TEPConfig parameter is in the warmup key, and in
    the measurement half not at all."""
    for cls, (field, mutations) in CONFIG_MUTATIONS.items():
        # a config parameter added later must be listed here before it
        # can ship
        assert sorted(_params(cls)) == sorted(mutations)
        base = _base(**{field: cls()})
        for name, value in mutations.items():
            assert getattr(cls(), name) != value, name
            spec = _base(**{field: cls(**{name: value})})
            assert spec.warmup_key() != base.warmup_key(), name
            assert (spec.measurement_canonical()
                    == base.measurement_canonical()), name


def test_canonical_is_exactly_the_concatenation():
    for field, (value, _) in MUTATIONS.items():
        spec = _mutated(field, value)
        assert spec.canonical() == (
            spec.warmup_canonical() + spec.measurement_canonical()
        )


def test_keys_follow_the_partition():
    base = _base()
    for field, (value, half) in MUTATIONS.items():
        spec = _mutated(field, value)
        assert spec.key() != base.key(), field
        if half == "warmup":
            assert spec.warmup_key() != base.warmup_key(), field
        else:
            assert spec.warmup_key() == base.warmup_key(), field


def test_execution_details_touch_neither_half():
    spec = _base()
    spec.repro_dir = "/tmp/somewhere"
    spec.snapshot_dir = "/tmp/elsewhere"
    assert spec.canonical() == _base().canonical()


def test_eligibility_covers_the_partition_caveats():
    """The measurement-suffix placement of verify/corruption is safe only
    because neither can ever be served from a snapshot."""
    assert snapshot_eligible(_base())
    assert not snapshot_eligible(_mutated("verify", True))
    assert not snapshot_eligible(
        _mutated("corruption", {"kind": "regval", "rate": 0.1})
    )
    no_warmup = _base()
    no_warmup.warmup = 0
    assert not snapshot_eligible(no_warmup)
    # storm and measurement seed DO fork: they are the point of the cache
    assert snapshot_eligible(_mutated("storm", StormConfig()))
    assert snapshot_eligible(_mutated("measurement_seed", 17))
