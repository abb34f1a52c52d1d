"""Field tables: one declaration feeds keys, dict forms and CLI lines.

``RunSpec.to_dict``/``from_dict`` derive from the same table as the
cache keys, so every spec a bundle, a JSON export or a dashboard fork
writes must come back with the key it left with. The generated test
draws every constructor field; the pinned digests guard the keys that
campaign journals already record as each draw's ``snapshot``.

``CampaignSpec``'s manifest form derives from its ``FIELDS`` and its
command line from ``cli.SPEC_FLAGS``: a manifest must rebuild the spec
it was written from, and a dashboard fork's ``cli`` line must plan
exactly the fork's ``campaign_spec``, or be null when the spec sets a
field that no flag can. Pinned manifest digests guard the bytes of
campaigns already on disk.
"""

import hashlib
import inspect
import json
import shlex
import tempfile

import pytest

from hypothesis import example, given, settings, strategies as st

from repro.campaign.journal import write_manifest
from repro.campaign.plan import METRICS, CampaignSpec
from repro.dashboard.view import CampaignView
from repro.harness.cli import SPEC_FLAGS, _campaign_parser, _campaign_spec
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


#: one strategy per CampaignSpec constructor field
_CAMPAIGN_FIELDS = {
    "name": st.text(max_size=12),
    "benchmarks": st.lists(st.sampled_from(profile_names()), min_size=1,
                           max_size=3),
    "schemes": st.lists(_SCHEMES, min_size=1, max_size=3),
    "vdds": st.lists(st.floats(0.7, 1.3, **_FLOATS), min_size=1,
                     max_size=3),
    "n_instructions": st.integers(1, 10**6),
    "warmup": st.integers(0, 10**5),
    "master_seed": st.integers(0, 2**31),
    "seeds": st.none() | st.lists(st.integers(0, 2**31), min_size=1,
                                  max_size=6),
    "min_seeds": st.integers(-2, 20),
    "max_seeds": st.integers(-2, 40),
    "batch_size": st.integers(-2, 16),
    "targets": st.none() | st.dictionaries(
        st.sampled_from(METRICS), st.floats(0.0, 1.0, **_FLOATS)
    ),
    "z": st.floats(0.5, 4.0, **_FLOATS),
    "predictor": st.sampled_from(["tep", "mre", "tvp"]),
    "overclock": st.floats(1.0, 2.0, **_FLOATS),
    "verify": st.booleans(),
    "storm": st.none() | _STORMS,
    "telemetry_interval": st.integers(-5, 5000),
    "draw_mode": st.sampled_from(["fault", "program"]),
}

#: CampaignSpec fields no campaign flag sets, with their defaults
_NO_FLAG = {
    name: param.default
    for name, param in inspect.signature(CampaignSpec).parameters.items()
    if name not in {field for field, *_rest in SPEC_FLAGS}
}


def test_every_record_declares_its_whole_constructor():
    for cls in (RunSpec, CoreConfig, TEPConfig, StormConfig,
                TelemetryConfig, CampaignSpec):
        assert sorted(cls.FIELDS) == sorted(_params(cls)), cls.__name__


def test_strategies_cover_every_constructor_field():
    assert sorted(_FIELDS) == sorted(_params(RunSpec))


def test_campaign_strategies_cover_every_constructor_field():
    assert sorted(_CAMPAIGN_FIELDS) == sorted(_params(CampaignSpec))
    assert sorted(_NO_FLAG) == ["draw_mode", "overclock", "seeds", "storm",
                                "verify", "z"]


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


def test_a_retired_config_field_still_loads():
    """A config dict from an older bundle or manifest may carry
    ``model_inorder_faults``, a knob nothing read: it loads, and keys
    the same simulation as the dict without it."""
    data = RunSpec("gcc", SchemeKind.EP, 0.97, 600, 300, 1,
                   config=CoreConfig(width=2)).to_dict()
    old = json.loads(json.dumps(data))
    old["config"]["model_inorder_faults"] = True
    loaded, current = RunSpec.from_dict(old), RunSpec.from_dict(data)
    assert loaded.key() == current.key()
    assert loaded.warmup_key() == current.warmup_key()


def test_a_misspelled_config_field_is_refused():
    """A typo in a config dict must not run the default core."""
    with pytest.raises(ValueError, match="iq_sise"):
        RunSpec.from_dict({"benchmark": "gcc", "config": {"iq_sise": 8}})


def test_a_misspelled_manifest_field_is_refused():
    """A hand-edited manifest with a typo must not plan the defaults."""
    data = CampaignSpec("typo", ["gcc"], ["ABS"]).to_dict()
    data["max_seds"] = data.pop("max_seeds")
    with pytest.raises(ValueError, match="max_seds"):
        CampaignSpec.from_dict(data)


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


@st.composite
def _campaign_specs(draw):
    """Every flagged field drawn, plus up to two fields with no flag; the
    rest keep their defaults, so many specs still have a command line."""
    names = [name for name in _CAMPAIGN_FIELDS if name not in _NO_FLAG]
    names += sorted(draw(st.sets(st.sampled_from(sorted(_NO_FLAG)),
                                 max_size=2)))
    return CampaignSpec(**{name: draw(_CAMPAIGN_FIELDS[name])
                           for name in names})


def _fork_example(targets):
    return CampaignSpec("view-test", ["astar"], ["EP", "ABS"], [0.97],
                        n_instructions=500, warmup=250, min_seeds=2,
                        max_seeds=5, batch_size=2, targets=targets,
                        telemetry_interval=200)


@settings(max_examples=200, derandomize=True, deadline=None)
@given(spec=_campaign_specs())
@example(spec=_fork_example({"perf_overhead": 0.05}))
@example(spec=_fork_example({"ipc": 0.1, "fault_rate": 0.01}))
@example(spec=_fork_example({}))
def test_manifest_and_fork_line_replay_the_spec(spec):
    """The manifest rebuilds the spec, and every dashboard fork either
    has a ``campaign plan`` line that the real parser turns back into
    its ``campaign_spec``, or a null ``cli`` because a field with no
    flag differs from its default."""
    text = json.dumps(spec.to_dict())
    rebuilt = CampaignSpec.from_dict(json.loads(text))
    assert json.dumps(rebuilt.to_dict()) == text
    with tempfile.TemporaryDirectory() as directory:
        write_manifest(directory, spec)
        view = CampaignView(directory)
        points = spec.points()
        forks = [view.fork_spec(p.id) for p in (points[0], points[-1])]
    for fork in forks:
        forked = fork["campaign_spec"]
        unflagged = any(forked[name] != default
                        for name, default in _NO_FLAG.items())
        assert (fork["cli"] is None) == unflagged, fork["cli"]
        if fork["cli"] is not None:
            argv = shlex.split(fork["cli"])
            assert argv[:5] == ["repro-timing", "campaign", "plan",
                                "--dir", "<new-dir>"]
            args = _campaign_parser().parse_args(argv[2:])
            assert _campaign_spec(args).to_dict() == forked


#: sha256 of ``write_manifest``'s bytes (model version pinned to zeros)
#: for the e2e kernel grid at seed 1 and for one spec per field that no
#: flag sets, as campaigns on disk already hold them
MANIFESTS = {
    "e2e_kernel_grid": (
        "61c38b3d351726d9c0963c9b893162f734472ad9c1aafd8682ca772615d19ff3"
    ),
    "seeds": (
        "5ea707450ca4732486bc2f29083f986309e3ddcf98321de196a1140411321cac"
    ),
    "z": "e576f733bf68b7dfcbc771459e90f61ac1ec1bdb38520b7d761c6f2fca8d6bae",
    "overclock": (
        "4d522ddd589e5e714565b03d25acf8d4e20f49239a24e38d53d2942a3942ee0b"
    ),
    "verify": (
        "971e27d52f95e83d38aca5c8ccfe01f5fe851ca1381c75dd7069bbd40a665405"
    ),
    "storm": (
        "156ceda1a573fbaa689d77c0c37f545765fe270cb28f975bc4c2f1eb721b71b9"
    ),
    "draw_mode": (
        "f0758ba78fd034889655486fc72faeeae3e347e3b049e988dc2b38e6e40e72ce"
    ),
}


def test_manifests_do_not_move(tmp_path, monkeypatch):
    from repro.harness import parallel

    monkeypatch.setattr(parallel, "model_version", lambda: "0" * 16)
    specs = {"e2e_kernel_grid": CampaignSpec(
        "e2e", ("gcc", "bzip2", "mcf", "astar"), ("EP", "ABS"),
        (0.97, 1.04), n_instructions=6000, warmup=3000, master_seed=1,
        min_seeds=32, max_seeds=32, batch_size=16,
    )}
    for field, value in (("seeds", [3, 5]), ("z", 2.58),
                         ("overclock", 1.08), ("verify", True),
                         ("storm", default_storm()),
                         ("draw_mode", "program")):
        specs[field] = CampaignSpec("pin", ["astar"], ["ABS"],
                                    **{field: value})
    digests = {}
    for name, spec in specs.items():
        write_manifest(tmp_path / name, spec)
        digests[name] = hashlib.sha256(
            (tmp_path / name / "manifest.json").read_bytes()
        ).hexdigest()
    assert digests == MANIFESTS
