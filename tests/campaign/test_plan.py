"""Grid planning, seed-stream derivation, manifest round-trip."""

import pytest

from repro.campaign.plan import (
    METRICS,
    CampaignSpec,
    GridPoint,
    derive_seed,
    extract_metrics,
)
from repro.core.schemes import SchemeKind
from repro.harness.runner import run_one


def _spec(**kw):
    defaults = dict(
        name="t", benchmarks=["astar", "bzip2"], schemes=["EP", "ABS"],
        vdds=[0.97, 1.04], n_instructions=500, warmup=250,
    )
    defaults.update(kw)
    return CampaignSpec(**defaults)


class TestDeriveSeed:
    def test_deterministic(self):
        assert derive_seed(1, "a", 0) == derive_seed(1, "a", 0)

    def test_distinct_across_parts_and_master(self):
        seeds = {
            derive_seed(1, "a", 0), derive_seed(1, "a", 1),
            derive_seed(1, "b", 0), derive_seed(2, "a", 0),
        }
        assert len(seeds) == 4

    def test_positive_31_bit(self):
        for i in range(50):
            seed = derive_seed(7, "point", i)
            assert 1 <= seed < 2**31


class TestGrid:
    def test_points_order_and_count(self):
        points = _spec().points()
        assert len(points) == 2 * 2 * 2
        assert points[0].id == "astar/EP/0.97"
        assert points[-1].id == "bzip2/ABS/1.04"
        # deterministic: two expansions agree exactly
        assert [p.id for p in points] == [p.id for p in _spec().points()]

    def test_scheme_names_accepted(self):
        point = GridPoint("astar", "cds", 0.97)
        assert point.scheme is SchemeKind.CDS

    def test_pair_specs_fault_mode_share_warmup_vary_measurement(self):
        spec = _spec()  # draw_mode="fault" is the default
        point = spec.points()[0]
        run, baseline = spec.pair_specs(point, 3)
        # one shared warmup realization per point: every draw (and the
        # baseline) carries the same whole-run seed -> one snapshot
        assert run.seed == baseline.seed == spec.warmup_seed_for(point)
        assert run.measurement_seed == spec.seed_for(point, 3)
        other, _ = spec.pair_specs(point, 4)
        assert other.seed == run.seed
        assert other.measurement_seed != run.measurement_seed
        assert run.warmup_key() == other.warmup_key()
        # the baseline's measured window is deterministic: all indices
        # collapse to one spec (one simulation per point)
        _, baseline4 = spec.pair_specs(point, 4)
        assert baseline4.key() == baseline.key()
        assert baseline.measurement_seed is None
        assert baseline.scheme is SchemeKind.FAULT_FREE
        assert run.scheme is SchemeKind.EP
        assert run.vdd == baseline.vdd == 0.97

    def test_pair_specs_program_mode_share_seed(self):
        spec = _spec(draw_mode="program")
        point = spec.points()[0]
        run, baseline = spec.pair_specs(point, 3)
        assert run.seed == baseline.seed == spec.seed_for(point, 3)
        assert run.measurement_seed is None
        assert baseline.scheme is SchemeKind.FAULT_FREE

    def test_seed_streams_differ_between_points(self):
        spec = _spec()
        a, b = spec.points()[0], spec.points()[1]
        stream_a = [spec.seed_for(a, i) for i in range(4)]
        stream_b = [spec.seed_for(b, i) for i in range(4)]
        assert set(stream_a).isdisjoint(stream_b)

    def test_explicit_seeds_override_stream_and_stopping(self):
        spec = _spec(seeds=[11, 22])
        point = spec.points()[0]
        assert spec.seed_for(point, 0) == 11
        assert spec.seed_for(point, 1) == 22
        assert spec.min_seeds == spec.max_seeds == spec.batch_size == 2


class TestManifestRoundTrip:
    def test_round_trip(self):
        spec = _spec(targets={"perf_overhead": 0.01}, master_seed=9)
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.to_dict() == spec.to_dict()
        assert [p.id for p in clone.points()] == [p.id for p in spec.points()]
        point = spec.points()[2]
        assert clone.seed_for(point, 5) == spec.seed_for(point, 5)

    def test_round_trip_explicit_seeds(self):
        spec = _spec(seeds=[4, 5, 6])
        clone = CampaignSpec.from_dict(spec.to_dict())
        assert clone.seeds == [4, 5, 6]
        assert clone.max_seeds == 3

    def test_json_safe(self):
        import json

        json.dumps(_spec().to_dict())


class TestValidate:
    def test_unknown_benchmark(self):
        with pytest.raises(ValueError, match="nosuch"):
            _spec(benchmarks=["nosuch"]).validate()

    def test_unknown_target_metric(self):
        with pytest.raises(ValueError, match="nosuch_metric"):
            _spec(targets={"nosuch_metric": 0.1}).validate()

    def test_unknown_scheme_fails_at_construction(self):
        with pytest.raises(ValueError):
            _spec(schemes=["warp-drive"])

    def test_valid_spec_passes(self):
        assert _spec().validate() is not None

    def test_empty_seed_list_fails_at_construction(self):
        with pytest.raises(ValueError, match="at least one seed"):
            CampaignSpec("e", ["astar"], ["EP"], seeds=[])

    def test_run_seeds_rejects_an_empty_seed_list(self):
        from repro.harness.multiseed import run_seeds

        with pytest.raises(ValueError, match="at least one seed"):
            run_seeds("astar", "EP", 0.97, seeds=[])

    @pytest.mark.parametrize("axes", [
        dict(vdds=[0.97, 0.97]),
        dict(vdds=[0.97, 0.970]),
        dict(schemes=["EP", "ep"]),
        dict(benchmarks=["astar", "astar"]),
    ])
    def test_repeated_grid_point_is_named(self, axes):
        grid = dict(benchmarks=["astar"], schemes=["EP"], vdds=[0.97])
        spec = CampaignSpec("e", **{**grid, **axes})
        with pytest.raises(ValueError, match="astar/EP/0.97 appears twice"):
            spec.validate()

    def test_campaign_with_a_repeated_point_refuses_to_start(self, tmp_path):
        from repro.campaign.executor import run_campaign

        spec = CampaignSpec("e", ["astar"], ["EP"], vdds=[0.97, 0.97],
                            n_instructions=300, warmup=150,
                            min_seeds=2, max_seeds=2)
        with pytest.raises(ValueError, match="appears twice"):
            run_campaign(str(tmp_path / "c"), spec, cache=False)
        assert not (tmp_path / "c" / "journal.jsonl").exists()


def test_extract_metrics_from_real_pair():
    spec = _spec()
    point = spec.points()[1]  # astar/ABS
    run, baseline = spec.pair_specs(point, 0)
    values, counts = extract_metrics(run_one(run), run_one(baseline))
    assert set(values) == set(METRICS)
    assert counts["committed"] >= spec.n_instructions
    assert counts["faults"] >= 0
    assert values["fault_rate"] == pytest.approx(
        counts["faults"] / counts["committed"]
    )
