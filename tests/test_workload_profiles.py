"""Tests for workload profiles and the registry."""

from dataclasses import replace

import pytest

from repro.workloads.cloudsuite import CLOUDSUITE, cloudsuite_profile
from repro.qos.queueing import ServiceSimulator
from repro.workloads.profiles import (
    TRACKED_PERCENTILES,
    QoSSpec,
    WorkloadKind,
    WorkloadProfile,
)
from repro.workloads.registry import all_profiles, get_profile
from repro.workloads.spec2006 import SPEC2006, SPEC2006_NAMES, spec_profile


def make_batch(**overrides) -> WorkloadProfile:
    return WorkloadProfile(
        name="b", kind=WorkloadKind.BATCH, description="test", **overrides
    )


class TestQoSSpec:
    def test_valid(self):
        QoSSpec(target_ms=100, percentile=99, base_service_ms=5)

    def test_service_must_be_below_target(self):
        with pytest.raises(ValueError):
            QoSSpec(target_ms=10, percentile=99, base_service_ms=20)

    def test_percentile_bounds(self):
        with pytest.raises(ValueError):
            QoSSpec(target_ms=10, percentile=40, base_service_ms=1)

    @pytest.mark.parametrize("percentile", [99.9, 90.0, 100.0])
    def test_percentile_must_be_tracked(self, percentile):
        """A contract the DES cannot report fails when it is written,
        not inside a later peak-load bisection."""
        with pytest.raises(ValueError, match="percentile"):
            QoSSpec(target_ms=100, percentile=percentile, base_service_ms=8)

    @pytest.mark.parametrize("percentile", TRACKED_PERCENTILES)
    def test_tracked_percentiles_reach_peak_load(self, percentile):
        qos = QoSSpec(target_ms=100, percentile=percentile, base_service_ms=8)
        assert ServiceSimulator(qos, seed=1).peak_load(n_requests=500) > 0

    def test_positive_latencies(self):
        with pytest.raises(ValueError):
            QoSSpec(target_ms=-1, percentile=99, base_service_ms=1)


class TestWorkloadProfile:
    def test_frac_branch_from_block_length(self):
        p = make_batch(block_len_mean=10.0)
        assert p.frac_branch == pytest.approx(0.1)

    def test_mix_must_leave_room_for_alu(self):
        with pytest.raises(ValueError):
            make_batch(frac_load=0.5, frac_store=0.3, frac_fp=0.3)

    def test_fraction_bounds(self):
        with pytest.raises(ValueError):
            make_batch(frac_load=-0.1)
        with pytest.raises(ValueError):
            make_batch(cold_miss_frac=1.5)

    def test_memory_categories_cannot_exceed_one(self):
        with pytest.raises(ValueError):
            make_batch(streaming_frac=0.5, cold_miss_frac=0.4, pointer_chase_frac=0.2)

    def test_branch_predictability_bounds(self):
        with pytest.raises(ValueError):
            make_batch(branch_predictability=0.3)

    def test_hot_region_within_footprint(self):
        with pytest.raises(ValueError):
            make_batch(data_footprint_kb=16, hot_region_kb=32)

    def test_block_length_minimum(self):
        with pytest.raises(ValueError):
            make_batch(block_len_mean=1.0)

    def test_code_zipf_bounds(self):
        with pytest.raises(ValueError):
            make_batch(code_zipf=5.0)

    def test_ls_requires_qos(self):
        with pytest.raises(ValueError, match="QoSSpec"):
            WorkloadProfile(
                name="x", kind=WorkloadKind.LATENCY_SENSITIVE, description="d"
            )

    def test_batch_must_not_carry_qos(self):
        with pytest.raises(ValueError):
            make_batch(qos=QoSSpec(target_ms=10, percentile=99, base_service_ms=1))

    def test_is_latency_sensitive(self):
        assert get_profile("web_search").is_latency_sensitive
        assert not get_profile("zeusmp").is_latency_sensitive


class TestSuites:
    def test_exactly_29_spec_benchmarks(self):
        assert len(SPEC2006) == 29
        assert len(SPEC2006_NAMES) == 29

    def test_expected_spec_members(self):
        for name in ("zeusmp", "lbm", "mcf", "gamess", "povray", "xalancbmk",
                     "perlbench", "libquantum", "h264ref", "GemsFDTD"):
            assert name in SPEC2006

    def test_all_spec_are_batch(self):
        assert all(p.kind is WorkloadKind.BATCH for p in SPEC2006.values())

    def test_exactly_4_cloudsuite_services(self):
        assert set(CLOUDSUITE) == {
            "data_serving", "web_serving", "web_search", "media_streaming"
        }

    def test_all_cloudsuite_have_qos(self):
        assert all(p.qos is not None for p in CLOUDSUITE.values())

    def test_table1_targets(self):
        # Paper Table I: 20ms p99, 1s p95, 100ms p99, 2s timeout.
        assert CLOUDSUITE["data_serving"].qos.target_ms == 20.0
        assert CLOUDSUITE["web_serving"].qos.target_ms == 1000.0
        assert CLOUDSUITE["web_serving"].qos.percentile == 95.0
        assert CLOUDSUITE["web_search"].qos.target_ms == 100.0
        assert CLOUDSUITE["web_search"].qos.percentile == 99.0
        assert CLOUDSUITE["media_streaming"].qos.target_ms == 2000.0

    def test_server_signature_low_mlp(self):
        # Server workloads chase pointers; high-MLP batch does not (much).
        assert CLOUDSUITE["web_search"].pointer_chase_frac > 0
        assert SPEC2006["zeusmp"].pointer_chase_frac == 0.0

    def test_lbm_is_streaming_outlier(self):
        lbm = SPEC2006["lbm"]
        assert lbm.streaming_frac >= max(
            p.streaming_frac for n, p in SPEC2006.items() if n != "lbm"
        )

    def test_registry_merges_both_suites(self):
        merged = all_profiles()
        assert len(merged) == 33

    def test_lookup_helpers(self):
        assert spec_profile("mcf").name == "mcf"
        assert cloudsuite_profile("web_search").name == "web_search"
        assert get_profile("lbm").name == "lbm"

    def test_unknown_names_raise(self):
        with pytest.raises(KeyError):
            spec_profile("doom3")
        with pytest.raises(KeyError):
            cloudsuite_profile("bitcoin")
        with pytest.raises(KeyError):
            get_profile("nope")

    def test_profiles_are_frozen_and_replaceable(self):
        p = get_profile("zeusmp")
        q = replace(p, cold_miss_frac=0.01)
        assert q.cold_miss_frac == 0.01
        assert p.cold_miss_frac != 0.01
