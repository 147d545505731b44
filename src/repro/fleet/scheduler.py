"""Fair-share packing of jobs onto simulated hardware nodes.

The scheduler prices every placement with the DES cost model
(:class:`repro.tracer.costmodel.CostModel` over Table-3 A100 servers): a
job's *virtual* step time is the analytic step of its nominal Table-4
model, and its memory footprint is the page count its stand-in engine
will actually pin (:meth:`repro.fleet.factory.JobFactory.page_footprint`).
Ranking is deficit-based fair share: priority first, then the tenant that
has consumed the least virtual service, then FIFO — so a starved tenant's
next job outranks a dominant tenant's at equal priority. Placement is
first-fit against each node's shared :class:`~repro.memory.PageQuota`
ledger; when nothing fits, a higher-priority job may evict exactly one
lower-priority victim (checkpointed, never killed).
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.fleet.factory import JobFactory
from repro.fleet.jobs import JobRecord, JobSpec
from repro.memory.allocator import PageQuota


@dataclass(frozen=True)
class PlacementEstimate:
    """What one placement costs: virtual step seconds + pinned pages."""

    step_seconds: float
    pages: int


@dataclass
class FleetNode:
    """One simulated machine: a page capacity governed by a shared ledger."""

    name: str
    quota: PageQuota
    capacity_pages: int
    running: dict[int, JobRecord] = field(default_factory=dict)

    @property
    def free_pages(self) -> int:
        return self.capacity_pages - self.quota.used()


class FairShareScheduler:
    """Deficit fair-share ranking + DES-priced first-fit placement."""

    def __init__(
        self,
        nodes: list[FleetNode],
        cost_model,
        page_bytes: int,
        est_seq_len: int = 256,
        est_micro_batch: int = 1,
    ):
        self.nodes = nodes
        self.cost_model = cost_model
        self.page_bytes = page_bytes
        self.est_seq_len = est_seq_len
        self.est_micro_batch = est_micro_batch
        #: Virtual compute seconds delivered per tenant — the fair-share
        #: deficit counter and the fairness numerator.
        self.tenant_service: dict[str, float] = {}
        self._step_cache: dict[str, float] = {}
        self._pages_cache: dict[tuple, int] = {}

    # ------------------------------------------------------------------
    # Pricing
    # ------------------------------------------------------------------
    def virtual_step_seconds(self, model_name: str) -> float:
        """Analytic step of the nominal model (fwd + bwd + CPU Adam)."""
        if model_name not in self._step_cache:
            from repro.models.zoo import get_model

            spec = get_model(model_name).build(
                self.est_micro_batch, self.est_seq_len
            )
            cost = self.cost_model
            fwd = sum(
                cost.forward_time(layer, self.est_micro_batch, self.est_seq_len)
                for layer in spec.layers
            )
            bwd = sum(
                cost.backward_time(layer, self.est_micro_batch, self.est_seq_len)
                for layer in spec.layers
            )
            update = cost.cpu_update_time(spec.param_count)
            self._step_cache[model_name] = fwd + bwd + update
        return self._step_cache[model_name]

    def estimate(self, spec: JobSpec) -> PlacementEstimate:
        key = (spec.workload,)
        if key not in self._pages_cache:
            self._pages_cache[key] = JobFactory(spec.workload).page_footprint(
                self.page_bytes
            )
        return PlacementEstimate(
            step_seconds=self.virtual_step_seconds(spec.model_name),
            pages=self._pages_cache[key],
        )

    # ------------------------------------------------------------------
    # Fair-share ranking
    # ------------------------------------------------------------------
    def rank(self, pending: list[JobRecord]) -> list[JobRecord]:
        """Priority desc, then least-served tenant, then FIFO."""
        return sorted(
            pending,
            key=lambda r: (
                -r.spec.priority,
                self.tenant_service.get(r.spec.tenant, 0.0),
                r.spec.submit_time,
                r.spec.job_id,
            ),
        )

    def credit_service(self, tenant: str, seconds: float) -> None:
        self.tenant_service[tenant] = (
            self.tenant_service.get(tenant, 0.0) + seconds
        )

    # ------------------------------------------------------------------
    # Placement
    # ------------------------------------------------------------------
    def find_placement(self, record: JobRecord) -> FleetNode | None:
        """First node with page room and tenant headroom for the job."""
        pages = self.estimate(record.spec).pages
        for node in self.nodes:
            if node.free_pages >= pages and (
                node.quota.headroom(record.spec.tenant) >= pages
            ):
                return node
        return None

    def find_victim(
        self, record: JobRecord
    ) -> tuple[FleetNode, JobRecord] | None:
        """One lower-priority running job whose eviction makes room.

        Victims are considered lowest priority first, then the tenant
        holding the largest service share, then youngest submission —
        deterministic, so a replay of one seed picks identical victims.
        """
        pages = self.estimate(record.spec).pages
        tenant = record.spec.tenant
        candidates: list[tuple[tuple, FleetNode, JobRecord]] = []
        for node in self.nodes:
            for victim in node.running.values():
                if victim.spec.priority >= record.spec.priority:
                    continue
                freed = victim.pages
                if node.free_pages + freed < pages:
                    continue
                headroom = node.quota.headroom(tenant)
                if victim.spec.tenant == tenant:
                    headroom += freed
                else:
                    # Pool-level headroom grows either way; per-tenant
                    # caps only relax when the victim shares the tenant.
                    headroom = min(headroom + freed, self._tenant_room(node, tenant))
                if headroom < pages:
                    continue
                rank_key = (
                    victim.spec.priority,
                    -self.tenant_service.get(victim.spec.tenant, 0.0),
                    -victim.spec.submit_time,
                    -victim.spec.job_id,
                )
                candidates.append((rank_key, node, victim))
        if not candidates:
            return None
        candidates.sort(key=lambda item: item[0])
        _, node, victim = candidates[0]
        return node, victim

    def _tenant_room(self, node: FleetNode, tenant: str) -> int:
        limit = node.quota.quota_of(tenant)
        if limit is None:
            return 2**62
        return limit - node.quota.used(tenant)

    # ------------------------------------------------------------------
    # Fairness accounting
    # ------------------------------------------------------------------
    def fairness(self) -> dict:
        """Per-tenant virtual service and the max/min share ratio."""
        shares = {
            tenant: round(seconds, 6)
            for tenant, seconds in sorted(self.tenant_service.items())
        }
        positive = [s for s in shares.values() if s > 0]
        ratio = None
        if positive:
            ratio = round(max(positive) / min(positive), 6)
        return {"per_tenant_service_seconds": shares, "max_min_ratio": ratio}


__all__ = [
    "FairShareScheduler",
    "FleetNode",
    "PlacementEstimate",
]
