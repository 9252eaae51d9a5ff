"""Workload generator tests: determinism, statistics, trace replay."""

import pytest

from repro.config import ServingConfig
from repro.errors import ServingError
from repro.serving import (
    Request,
    poisson_workload,
    trace_workload,
    validate_workload,
)

#: Explicit workloads the simulators must refuse: each one used to run
#: and report wrong results (a lost outcome, a makespan measured from
#: the wrong request, a negative token throughput).
MALFORMED = {
    "duplicate-id": [Request(0, 0.0, 16), Request(0, 10.0, 16)],
    "unsorted": [Request(0, 500.0, 16), Request(1, 10.0, 16)],
    "negative-len": [Request(0, 0.0, 16), Request(1, 10.0, -5)],
}


class TestPoissonWorkload:
    def test_deterministic_under_seed(self):
        serving = ServingConfig(seed=42)
        assert poisson_workload(serving) == poisson_workload(serving)

    def test_seed_changes_workload(self):
        a = poisson_workload(ServingConfig(seed=1))
        b = poisson_workload(ServingConfig(seed=2))
        assert a != b

    def test_count_ids_and_ordering(self):
        requests = poisson_workload(ServingConfig(num_requests=50))
        assert len(requests) == 50
        assert [r.req_id for r in requests] == list(range(50))
        arrivals = [r.arrival_us for r in requests]
        assert arrivals == sorted(arrivals)
        assert all(a > 0 for a in arrivals)

    def test_mean_rate_roughly_matches(self):
        serving = ServingConfig(
            arrival_rate_rps=1000.0, num_requests=2000, seed=0
        )
        requests = poisson_workload(serving)
        mean_gap_us = requests[-1].arrival_us / len(requests)
        assert mean_gap_us == pytest.approx(1000.0, rel=0.1)

    def test_lengths_respect_bounds(self):
        serving = ServingConfig(min_len=5, max_len=9, num_requests=300)
        lengths = [r.seq_len for r in poisson_workload(serving)]
        assert min(lengths) >= 5
        assert max(lengths) <= 9
        assert len(set(lengths)) > 1          # actually varies

    def test_fixed_distribution(self):
        serving = ServingConfig(
            length_dist="fixed", min_len=8, max_len=48, num_requests=20
        )
        assert all(
            r.seq_len == 48 for r in poisson_workload(serving)
        )


class TestTraceWorkload:
    def test_replay(self):
        requests = trace_workload([(0.0, 10), (5.0, 20), (5.0, 30)])
        assert [r.seq_len for r in requests] == [10, 20, 30]
        assert [r.req_id for r in requests] == [0, 1, 2]

    def test_rejects_unsorted(self):
        with pytest.raises(ServingError):
            trace_workload([(10.0, 4), (5.0, 4)])

    def test_rejects_bad_length(self):
        with pytest.raises(ServingError):
            trace_workload([(0.0, 0)])

    def test_rejects_empty(self):
        with pytest.raises(ServingError):
            trace_workload([])


class TestValidateWorkload:
    def test_too_long_for_sa(self):
        requests = trace_workload([(0.0, 65)])
        with pytest.raises(ServingError):
            validate_workload(requests, 64)
        validate_workload(requests, 128)

    @pytest.mark.parametrize("shape", sorted(MALFORMED))
    def test_rejects_malformed(self, shape):
        with pytest.raises(ServingError):
            validate_workload(MALFORMED[shape], 64)
