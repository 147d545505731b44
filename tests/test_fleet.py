"""Fleet control plane: traffic, quotas, scheduling, preemption."""

import pytest

from repro import api
from repro.engine.angel import AngelConfig
from repro.errors import ConfigurationError, QuotaExceededError
from repro.fleet import (
    FleetConfig,
    FleetGateway,
    JobFactory,
    JobSpec,
    JobState,
    JobWorkload,
    TrafficConfig,
    generate_jobs,
)
from repro.hardware.device import DeviceKind
from repro.memory.allocator import PageAllocator, PageQuota
from repro.memory.pool import DevicePool
from repro.telemetry import Telemetry
from repro.telemetry.collect import TraceCollector
from repro.units import KiB, MiB


class TestTraffic:
    def test_same_seed_same_stream(self):
        a = generate_jobs(TrafficConfig(seed=7))
        b = generate_jobs(TrafficConfig(seed=7))
        assert a == b

    def test_different_seed_different_stream(self):
        a = generate_jobs(TrafficConfig(seed=7))
        b = generate_jobs(TrafficConfig(seed=8))
        assert a != b

    def test_stream_shape(self):
        config = TrafficConfig(seed=3, num_jobs=9)
        jobs = generate_jobs(config)
        assert len(jobs) == 9
        assert [j.job_id for j in jobs] == list(range(9))
        assert all(j.tenant in config.tenants for j in jobs)
        times = [j.submit_time for j in jobs]
        assert times == sorted(times)


class TestQuota:
    """Two tenants on one pool: the cap is per-tenant, not per-pool."""

    def _make(self, telemetry=None):
        pool = DevicePool(DeviceKind.CPU, 64 * KiB, page_bytes=1 * KiB)
        quota = PageQuota(
            quotas={"alpha": 4, "beta": 4}, capacity_pages=64,
            telemetry=telemetry,
        )
        alloc_a = PageAllocator(
            {DeviceKind.CPU: pool}, owner="alpha", quota=quota
        )
        alloc_b = PageAllocator(
            {DeviceKind.CPU: pool}, owner="beta", quota=quota
        )
        return pool, quota, alloc_a, alloc_b

    def test_typed_error_and_other_tenant_unaffected(self):
        telemetry = Telemetry()
        _, quota, alloc_a, alloc_b = self._make(telemetry)
        # alpha fills its 4-page quota exactly.
        held = alloc_a.allocate((4 * 256,), "float32")  # 4 KiB = 4 pages
        with pytest.raises(QuotaExceededError) as excinfo:
            alloc_a.allocate((256,), "float32")
        err = excinfo.value
        assert err.tenant == "alpha"
        assert err.scope == "tenant"
        assert err.quota_pages == 4
        assert err.used_pages == 4
        # The rejection left the ledger unchanged...
        assert quota.used("alpha") == 4
        # ...and beta still allocates freely from the same pool.
        other = alloc_b.allocate((2 * 256,), "float32")
        assert quota.used("beta") == 2
        # Owner-accounting gauges landed in telemetry.
        gauges = telemetry.dump()["metrics"]["gauges"]
        assert gauges["quota.pages_in_use{tenant=alpha}"] == 4
        assert gauges["quota.pages_in_use{tenant=beta}"] == 2
        counters = telemetry.dump()["metrics"]["counters"]
        assert counters["quota.rejections{tenant=alpha}"] == 1
        alloc_a.release(held)
        alloc_b.release(other)
        assert quota.used() == 0

    def test_pool_capacity_scope(self):
        pool = DevicePool(DeviceKind.CPU, 64 * KiB, page_bytes=1 * KiB)
        quota = PageQuota(capacity_pages=3, telemetry=None)
        quota.set_quota("alpha", 10)
        alloc = PageAllocator(
            {DeviceKind.CPU: pool}, owner="alpha", quota=quota
        )
        with pytest.raises(QuotaExceededError) as excinfo:
            alloc.allocate((4 * 256,), "float32")
        assert excinfo.value.scope == "pool"
        # The failed allocation rolled back every charge it made.
        assert quota.used() == 0

    def test_close_credits_full_footprint(self):
        _, quota, alloc_a, _ = self._make()
        alloc_a.allocate((3 * 256,), "float32")
        assert quota.used("alpha") == 3
        alloc_a.close()
        assert quota.used("alpha") == 0

    def test_engine_level_rejection_leaks_nothing(self):
        quota = PageQuota(quotas={"tiny": 1})
        config = AngelConfig(
            gpu_memory_bytes=2 * MiB, cpu_memory_bytes=24 * MiB,
            page_bytes=32 * KiB, owner="tiny", quota=quota,
        )
        with pytest.raises(QuotaExceededError):
            JobFactory().engine(config)
        assert quota.used() == 0

    def test_quota_requires_owner(self):
        pool = DevicePool(DeviceKind.CPU, 64 * KiB, page_bytes=1 * KiB)
        with pytest.raises(Exception):
            PageAllocator({DeviceKind.CPU: pool}, quota=PageQuota())


class TestPreemptResume:
    def test_preempted_job_resumes_bit_identical(self, tmp_path):
        """The satellite acceptance test: preempt -> snapshot -> resume
        must reproduce the uninterrupted loss curve bit for bit (the
        ``run_cluster_reference`` comparison pattern)."""
        workload_a = JobWorkload(seed=1)
        workload_b = JobWorkload(seed=2)
        # One node that fits exactly one 2-layer job: B (prio 2) arriving
        # mid-run must preempt A (prio 0).
        config = FleetConfig(
            num_nodes=1, node_pages=100, tenant_quota_pages=100,
            workdir=str(tmp_path),
        )
        jobs = [
            JobSpec(job_id=0, tenant="a", priority=0, submit_time=0.0,
                    steps=6, workload=workload_a),
            JobSpec(job_id=1, tenant="b", priority=2, submit_time=10.0,
                    steps=4, workload=workload_b),
        ]
        report = FleetGateway(config).run(jobs=jobs)
        by_id = {job.spec.job_id: job for job in report.jobs}
        victim = by_id[0]
        assert victim.state is JobState.COMPLETED
        assert victim.preemptions == 1
        assert victim.resumes == 1
        assert report.preemption_events[0]["victim"] == 0
        assert report.preemption_events[0]["by_job"] == 1
        assert by_id[1].state is JobState.COMPLETED

        # Uninterrupted reference: same factory recipe, same batches.
        factory = JobFactory(workload_a)
        engine = factory.engine(AngelConfig(
            gpu_memory_bytes=config.gpu_memory_bytes,
            cpu_memory_bytes=config.cpu_memory_bytes,
            page_bytes=config.page_bytes,
        ))
        reference = []
        try:
            for batch in factory.batches(6):
                loss = engine(batch)
                engine.backward(loss)
                engine.step()
                reference.append(loss.item())
        finally:
            engine.close()
        assert victim.losses == reference

    def test_unplaceable_job_fails_not_hangs(self, tmp_path):
        config = FleetConfig(
            num_nodes=1, node_pages=60, tenant_quota_pages=60,
            workdir=str(tmp_path),
        )
        jobs = [JobSpec(job_id=0, tenant="a", priority=0, submit_time=0.0,
                        steps=2, workload=JobWorkload(layers=2))]
        report = FleetGateway(config).run(jobs=jobs)
        assert report.jobs[0].state is JobState.FAILED

    def test_config_validation(self):
        with pytest.raises(ConfigurationError):
            FleetConfig(quantum_steps=0)
        with pytest.raises(ConfigurationError):
            FleetConfig(node_pages=10, tenant_quota_pages=20)


class TestFleetBench:
    """The seed-7 stream: deterministic, fully completed, preempting."""

    def _run(self, workdir):
        gateway = FleetGateway(FleetConfig(seed=7), workdir=str(workdir))
        return gateway.run(), TraceCollector(gateway.workdir).collect()

    def test_seed7_deterministic_and_gated(self, tmp_path):
        report_a, collected_a = self._run(tmp_path / "a")
        report_b, collected_b = self._run(tmp_path / "b")
        # Virtual time makes a seed replay decision for decision and
        # loss for loss.
        for field in ("jobs", "admission_order", "preemption_events",
                      "fairness", "makespan_seconds", "events", "alerts"):
            assert getattr(report_a, field) == getattr(report_b, field), field
        # Everything completes, p99 is reported, and >= 1 preemption
        # exercises the snapshot path.
        assert report_a.jobs_per_hour() > 0
        assert len(report_a.completed) == len(report_a.jobs)
        assert report_a.latency_percentile(0.99) >= 0
        assert report_a.preemptions >= 1
        started = {job.spec.job_id for job in report_a.jobs
                   if job.first_start is not None}
        assert set(report_a.admission_order) == started
        tenants = set(FleetConfig(seed=7).resolved_traffic().tenants)
        assert set(report_a.fairness["per_tenant_service_seconds"]) <= tenants
        # Per-tenant page traffic comes from the merged per-job event
        # streams (deterministic: counters only).
        traffic = collected_a.rollup["tenant_traffic"]
        assert traffic == collected_b.rollup["tenant_traffic"]
        assert set(traffic) <= tenants
        assert any(t["pages_moved_bytes"] > 0 for t in traffic.values())
        assert sum(t["jobs"] for t in traffic.values()) == len(report_a.jobs)
        # Every job stream landed in the rollup with its tenant label.
        jobs = [s for s in collected_a.rollup["per_source"].values()
                if s["role"] == "job"]
        assert len(jobs) == len(report_a.jobs)
        assert all(j["tenant"] in traffic for j in jobs)


class TestApiThreading:
    """api.chaos/api.cluster thread their workdir/telemetry arguments."""

    def test_chaos_workdir_and_telemetry(self, tmp_path):
        from repro.resilience import ChaosConfig

        telemetry = Telemetry()
        config = ChaosConfig(steps=4, checkpoint_every=2)
        report = api.chaos(config, workdir=str(tmp_path), telemetry=telemetry)
        assert len(report.losses) == 4
        # Checkpoints landed in the given workdir, not a temp dir.
        assert any(p.name.startswith("ckpt-") for p in tmp_path.iterdir())
        # The given telemetry saw the run.
        assert telemetry.dump()["metrics"]["counters"]

    def test_cluster_workdir_and_telemetry(self, tmp_path):
        from repro.cluster import ClusterConfig

        telemetry = Telemetry()
        config = ClusterConfig(world_size=1, steps=2, checkpoint_every=1)
        report = api.cluster(config, workdir=str(tmp_path), telemetry=telemetry)
        assert report.complete
        assert report.workdir == str(tmp_path)
        assert (tmp_path / "membership_events.jsonl").exists()
        gauges = telemetry.dump()["metrics"]["gauges"]
        assert any(key.startswith("cluster.") for key in gauges)


class TestApiFleet:
    def test_api_fleet(self, tmp_path):
        config = FleetConfig(
            seed=3, traffic=TrafficConfig(seed=3, num_jobs=3),
            workdir=str(tmp_path),
        )
        report = api.fleet(config)
        assert report.jobs
