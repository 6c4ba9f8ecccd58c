"""JSON wire-format tests: byte-identical round-trips, validated decodes."""

import dataclasses
import json

import pytest

from repro.errors import QueueError
from repro.experiments.parallel import CaseJob, run_case_job
from repro.experiments.runner import VariantRun
from repro.gen.suite import generate_case
from repro.io.queue_codec import (
    canonical_json,
    config_from_dict,
    config_to_dict,
    case_job_from_dict,
    case_job_to_dict,
    decode_job,
    decode_result,
    encode_job,
    encode_result,
    job_fingerprint,
    variant_run_from_dict,
    variant_run_to_dict,
)
from repro.model.ftgraph import build_ft_graph
from repro.opt.strategy import OptimizationConfig, optimize
from repro.schedule.record import ScheduleRecord
from repro.sim.validate import validate_record
from repro.ttp.bus import BusConfig

TINY = OptimizationConfig(
    minimize=True, rounds=1, greedy_max_iterations=3, tabu_max_iterations=2
)


@pytest.fixture(scope="module")
def optimized():
    """One real optimization winner with full model context."""
    case = generate_case(8, 2, 2, mu=5.0, seed=0)
    result = optimize(case.application, case.architecture, case.faults, "MXR", TINY)
    return result


class TestCaseJobRoundTrip:
    def test_plain_job_round_trips_byte_identically(self):
        job = CaseJob(20, 3, 4, 5.0, 7, ("NFT", "MXR"), label="row 3")
        text = encode_job(job)
        decoded = decode_job(text)
        assert decoded == job
        assert encode_job(decoded) == text

    def test_job_with_config_round_trips_byte_identically(self):
        config = OptimizationConfig(
            greedy_max_iterations=9,
            tabu_max_iterations=4,
            tabu_tenure=None,
            rounds=2,
            time_limit_s=1.5,
            minimize=True,
            bus_scale_factors=(0.5, 2.0),
            cache_size=128,
        )
        job = CaseJob(8, 2, 2, 1.0, 0, ("MXR",), time_scale=2.0, config=config)
        text = encode_job(job)
        decoded = decode_job(text)
        assert decoded == job
        assert decoded.config == config
        assert encode_job(decoded) == text

    def test_fingerprint_depends_on_slot_and_payload(self):
        job = CaseJob(8, 2, 2, 5.0, 0, ("NFT",))
        payload = encode_job(job)
        assert job_fingerprint(0, payload) != job_fingerprint(1, payload)
        other = encode_job(CaseJob(8, 2, 2, 5.0, 1, ("NFT",)))
        assert job_fingerprint(0, payload) != job_fingerprint(0, other)
        # Stable across invocations: resume recomputes identical identities.
        assert job_fingerprint(0, payload) == job_fingerprint(0, payload)

    def test_undecodable_payload_raises_queue_error(self):
        with pytest.raises(QueueError):
            decode_job("not json at all {{{")

    def test_unknown_version_rejected(self):
        data = case_job_to_dict(CaseJob(8, 2, 2, 5.0, 0, ("NFT",)))
        data["version"] = 99
        with pytest.raises(QueueError):
            case_job_from_dict(data)


#: One non-default value per :class:`OptimizationConfig` field.  A field
#: added to the config without an entry here fails the round-trip test.
NON_DEFAULT_CONFIG_VALUES = {
    "greedy_max_iterations": 7,
    "tabu_max_iterations": 3,
    "tabu_tenure": None,
    "rounds": 2,
    "time_limit_s": 2.5,
    "ms_per_byte": 0.5,
    "bus": BusConfig(("N1", "N2"), {"N1": 4.0, "N2": 6.0}, ms_per_byte=0.5),
    "minimize": True,
    "optimize_bus": True,
    "bus_scale_factors": (0.5, 2.0),
    "cache_size": 64,
    "shortlist": 8,
}


class TestConfigRoundTrip:
    @pytest.mark.parametrize(
        "name", [f.name for f in dataclasses.fields(OptimizationConfig)]
    )
    def test_every_config_field_survives_the_wire(self, name):
        assert name in NON_DEFAULT_CONFIG_VALUES, (
            f"OptimizationConfig.{name} has no non-default test value"
        )
        value = NON_DEFAULT_CONFIG_VALUES[name]
        assert value != getattr(OptimizationConfig(), name)
        config = OptimizationConfig(**{name: value})
        text = canonical_json(config_to_dict(config))
        decoded = config_from_dict(json.loads(text))
        assert getattr(decoded, name) == value
        assert decoded == config
        assert canonical_json(config_to_dict(decoded)) == text

    def test_payload_without_shortlist_decodes_all_exact(self):
        data = config_to_dict(OptimizationConfig(shortlist=8))
        del data["shortlist"]
        assert config_from_dict(data).shortlist is None


class TestRecordRoundTrip:
    def test_record_round_trips_byte_identically(self, optimized):
        record = optimized.record
        text = canonical_json(record.to_json_dict())
        decoded = ScheduleRecord.from_json_dict(json.loads(text))
        assert decoded == record
        assert hash(decoded) == hash(record)
        assert canonical_json(decoded.to_json_dict()) == text

    def test_decoded_record_passes_fault_injection(self, optimized):
        record = ScheduleRecord.from_json_dict(
            json.loads(canonical_json(optimized.record.to_json_dict()))
        )
        implementation = optimized.implementation
        ft = build_ft_graph(
            optimized.merged,
            implementation.policies,
            implementation.mapping,
            optimized.faults,
        )
        report = validate_record(
            record,
            optimized.merged,
            ft,
            optimized.faults,
            implementation.bus,
            samples=20,
        )
        assert report.ok, report.violations

    def test_decoded_record_renders_same_metrics(self, optimized):
        record = optimized.record
        decoded = ScheduleRecord.from_json_dict(record.to_json_dict())
        assert decoded.makespan == record.makespan
        assert decoded.is_schedulable == record.is_schedulable
        assert decoded.critical_path() == record.critical_path()


class TestResultRoundTrip:
    def test_variant_runs_round_trip_byte_identically(self):
        job = CaseJob(8, 2, 2, 5.0, 0, ("NFT", "MXR"), config=TINY)
        runs = run_case_job(job)
        text = encode_result(runs, 1.25)
        decoded_runs, elapsed = decode_result(text)
        assert elapsed == 1.25
        assert set(decoded_runs) == set(runs)
        for variant, run in runs.items():
            decoded = decoded_runs[variant]
            assert decoded == run  # dataclass equality covers the record
            assert decoded.record == run.record
        assert encode_result(decoded_runs, elapsed) == text

    def test_recordless_run_round_trips(self):
        run = VariantRun(
            variant="NFT", makespan=10.5, schedulable=True, seconds=0.1,
            evaluations=3, record=None,
        )
        decoded = variant_run_from_dict(variant_run_to_dict(run))
        assert decoded == run

    def test_undecodable_result_raises_queue_error(self):
        with pytest.raises(QueueError):
            decode_result("][")
