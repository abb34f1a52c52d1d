"""RunSpec's field table: one declaration feeds keys and dict forms.

``RunSpec.to_dict``/``from_dict`` derive from the same table as the
cache keys, so every spec a bundle, a JSON export or a dashboard fork
writes must come back with the key it left with. The generated test
draws every constructor field; the pinned digests guard the keys that
campaign journals already record as each draw's ``snapshot``.
"""

import json

from hypothesis import given, settings, strategies as st

from repro.campaign.plan import CampaignSpec
from repro.core.schemes import SchemeKind, scheme_kind
from repro.core.tep import TEPConfig
from repro.faults.storm import StormConfig, default_storm
from repro.harness.runner import RunSpec
from repro.telemetry.config import TelemetryConfig
from repro.uarch.config import CoreConfig
from repro.verify.chaos import KINDS
from repro.workloads.profiles import profile_names
from tests.harness.test_spec_partition import _params

_FLOATS = dict(allow_nan=False, allow_infinity=False)

#: every spelling ``scheme`` accepts: the enum, its name, its value
_SCHEMES = st.sampled_from(list(SchemeKind)).flatmap(
    lambda kind: st.sampled_from([kind, kind.name, kind.value,
                                  kind.name.lower()])
)


@st.composite
def _core_configs(draw):
    n_arch = draw(st.integers(8, 64))
    return CoreConfig(
        width=draw(st.integers(1, 8)),
        iq_size=draw(st.integers(1, 64)),
        rob_size=draw(st.integers(1, 256)),
        lsq_size=draw(st.integers(1, 64)),
        n_arch_regs=n_arch,
        n_phys_regs=n_arch + draw(st.integers(1, 128)),
        n_simple_alu=draw(st.integers(1, 4)),
        n_complex_alu=draw(st.integers(1, 4)),
        n_mem_ports=draw(st.integers(1, 4)),
        frontend_depth=draw(st.integers(1, 12)),
        redirect_penalty=draw(st.integers(0, 8)),
        replay_recovery=draw(st.integers(0, 8)),
        recovery_bubbles=draw(st.integers(0, 8)),
        replay_mode=draw(st.sampled_from(["selective", "flush"])),
        bp_history_bits=draw(st.integers(1, 16)),
        bp_table_bits=draw(st.integers(1, 16)),
        criticality_threshold=draw(st.integers(0, 32)),
        mem_dependence=draw(st.sampled_from(["conservative",
                                             "store_sets"])),
        model_wrong_path=draw(st.booleans()),
        model_inorder_faults=draw(st.booleans()),
    )


_TEP_CONFIGS = st.builds(
    TEPConfig,
    n_entries=st.integers(0, 14).map(lambda k: 1 << k),
    tag_bits=st.integers(1, 24),
    counter_bits=st.integers(1, 4),
    history_bits=st.integers(0, 12),
)

_STORMS = st.builds(
    StormConfig,
    burst_rate=st.floats(0.0, 1.0, **_FLOATS),
    burst_len=st.integers(1, 5000),
    burst_gap=st.integers(0, 5000),
    wild_frac=st.floats(0.0, 1.0, **_FLOATS),
    sensor_flap=st.floats(0.0, 1.0, **_FLOATS),
    tep_drop=st.floats(0.0, 1.0, **_FLOATS),
    tep_fabricate=st.floats(0.0, 1.0, **_FLOATS),
)

_TELEMETRY = st.builds(
    TelemetryConfig,
    metrics=st.booleans(),
    interval=st.integers(1, 5000),
    events=st.booleans(),
    event_capacity=st.integers(1, 100000),
    profile=st.booleans(),
)

_CORRUPTIONS = st.fixed_dictionaries(
    {"kind": st.sampled_from(KINDS), "seq": st.integers(0, 100000)},
    optional={"mask": st.integers(1, 2**64 - 1)},
)

#: one strategy per RunSpec constructor field
_FIELDS = {
    "benchmark": st.sampled_from(profile_names()),
    "scheme": _SCHEMES,
    "vdd": st.one_of(st.floats(0.7, 1.3, **_FLOATS), st.integers(1, 2)),
    "n_instructions": st.integers(1, 10**6),
    "warmup": st.integers(0, 10**5),
    "seed": st.integers(0, 2**31),
    "config": st.none() | _core_configs(),
    "tep_config": st.none() | _TEP_CONFIGS,
    "predictor": st.sampled_from(["tep", "mre", "tvp"]),
    "overclock": st.floats(1.0, 2.0, **_FLOATS),
    "storm": st.none() | _STORMS,
    "verify": st.booleans(),
    "corruption": st.none() | _CORRUPTIONS,
    "telemetry": st.none() | _TELEMETRY,
    "measurement_seed": st.none() | st.integers(0, 2**31),
}


def test_every_record_declares_its_whole_constructor():
    for cls in (RunSpec, CoreConfig, TEPConfig, StormConfig,
                TelemetryConfig):
        assert sorted(cls.FIELDS) == sorted(_params(cls)), cls.__name__


def test_strategies_cover_every_constructor_field():
    assert sorted(_FIELDS) == sorted(_params(RunSpec))


@settings(max_examples=300, derandomize=True, deadline=None)
@given(fields=st.fixed_dictionaries(_FIELDS))
def test_json_round_trip_keeps_the_keys(fields):
    spec = RunSpec(**fields)
    spec.repro_dir = "bundles"
    spec.snapshot_dir = "snapshots"
    data = json.loads(json.dumps(spec.to_dict()))
    assert "repro_dir" not in data and "snapshot_dir" not in data
    clone = RunSpec.from_dict(data)
    assert clone.key() == spec.key()
    assert clone.warmup_key() == spec.warmup_key()
    assert clone.to_dict() == data
    # every spelling of a scheme names the same simulation
    enum_spelled = RunSpec(**dict(fields,
                                  scheme=scheme_kind(fields["scheme"])))
    assert enum_spelled.key() == spec.key()


def test_scheme_spellings_share_one_key():
    keys = {
        RunSpec("astar", scheme, 0.97, 600, 300, 1).key()
        for scheme in ("ABS", "abs", SchemeKind.ABS)
    }
    assert len(keys) == 1


#: ``(key(), warmup_key())`` of SchemeKind-built, default-config specs,
#: as campaign journals and result caches already record them
PINNED = {
    "draw": (
        "6214c95e7d4d2ef68a89a705a63e2731704080403f7c3994d6ea9625cff801d9",
        "3dac204045e3629e7c55bb800c9008e2a03fbc6ba310fbbf3715f5ca37669368",
    ),
    "baseline": (
        "833b82ab46f72eebabd382831ae05bd12eb3a777ed0838d9343a5adabc3839eb",
        "44bdab800335fc4b4b759eccffbc54465759146faf89172b62ad31b95ae8b4ed",
    ),
    "telemetry": (
        "caf66dc6399cf01608198347f760309ee9c0524a5f7e7995009624d1490a8397",
        "ec2f9c0887d84a0a42eab531a452639e9bced11b0d50b3f992883d448d6e5403",
    ),
    "storm": (
        "e0a8db6a8b4be2e54e15f3d10377dee7b5ad499d0406e430d8133b1c8b29e78d",
        "a9232f314fb69f2a7f45d375ba8f17ced697bd51fdffefdf734d25e9bfeff22d",
    ),
}


def test_keys_do_not_move():
    campaign = CampaignSpec("pin", ["astar"], ["ABS"], vdds=[0.97],
                            n_instructions=600, warmup=300, master_seed=7)
    draw, baseline = campaign.pair_specs(campaign.points()[0], 2)
    specs = {
        "draw": draw,
        "baseline": baseline,
        "telemetry": RunSpec(
            "bzip2", SchemeKind.FFS, 1.04, 800, 400, 3,
            telemetry=TelemetryConfig(metrics=True, interval=100,
                                      events=True),
        ),
        "storm": RunSpec("gcc", SchemeKind.CDS, 0.97, 1000, 500, 9,
                         storm=default_storm(), measurement_seed=12),
    }
    assert {name: (spec.key(), spec.warmup_key())
            for name, spec in specs.items()} == PINNED
