"""Turn repetition results and layer totals into the named metrics.

End-to-end metrics come from untraced repetitions; per-layer metrics from
traced ones.  Per-layer counts and times are per repetition (one campaign,
or one serve pass), so they do not depend on how many repetitions fit in
the run's time budget.
"""

from __future__ import annotations

from typing import Any

from common import SLO_SECONDS, median, percentile, supported_tail

PHASE_NAMES = ("cold", "busy", "hot")
#: Phases whose median latency is an end-to-end metric.  The busy phase
#: queues, which multiplies machine noise: its median spread across seeds
#: reached 0.29-0.35 of the median on a 2-vCPU VM, past any allowed bound,
#: so it is reported with the tails as ``client.busy.p50_ms``.
E2E_PHASES = ("cold", "hot")

#: Layers reported with the uniform ``calls``/``busy_s``/``failures`` trio.
PLAIN_LAYERS = (
    "pll.design",
    "lti.rational",
    "core.aliasing",
    "pll.closedloop",
    "lti.bode",
    "pll.margins",
    "baselines.zdomain",
    "campaign.tasks",
    "campaign.vectorized",
    "campaign.executor",
    "serve.protocol",
    "serve.batcher",
    "serve.cache",
    "serve.app",
)

#: End-to-end metrics whose tracing overhead a traced run reports, with
#: whether higher is better.
OVERHEAD = {
    "setup_s": False,
    "points_per_s": True,
    "peak_rss_mb": False,
    "cold_p50_ms": False,
    "hot_p50_ms": False,
    "slo_met_ratio": True,
}


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def tail_ms(latencies_s: list[float], pct: float) -> float:
    """``pct`` percentile in ms; the sample must support it (ten beyond)."""
    if supported_tail(len(latencies_s)) < pct:
        raise ValueError(f"{len(latencies_s)} samples do not support p{pct:g}")
    return percentile(latencies_s, pct) * 1e3


def campaign_e2e(reps: list[dict[str, Any]]) -> dict[str, float]:
    """End-to-end metrics of a campaign workload from its repetitions.

    A campaign has one phase, so ``cold_p50_ms`` and ``hot_p50_ms`` both
    read the median over repetitions of wall time per point.  The median of
    the engine's own per-point elapsed times tracks it, but swings further
    with the machine's speed: over one ten-seed set on a 2-vCPU VM its
    quartile spread was 0.30 of the median against 0.20 for wall time.
    """
    points = sum(r["points"] for r in reps)
    p50 = median([1e3 * r["wall_s"] / r["points"] for r in reps])
    out = {
        "setup_s": median([r["setup_s"] for r in reps]),
        "points_per_s": median([r["points"] / r["wall_s"] for r in reps]),
        "ok_ratio": sum(r["ok"] for r in reps) / points,
        "peak_rss_mb": median([r["peak_rss_mb"] for r in reps]),
        "slo_met_ratio": sum(x <= SLO_SECONDS for r in reps for x in r["ok_latency_s"]) / points,
    }
    for phase in E2E_PHASES:
        out[f"{phase}_p50_ms"] = p50
    return out


def serve_e2e(driven: dict[str, Any]) -> dict[str, float]:
    """End-to-end metrics of one serve pass.

    Latency medians are over the requests answered 200 in the phase's
    quiet rounds (``quiet_median_ms``); failed, refused and timed-out
    requests count against ``ok_ratio`` and ``slo_met_ratio``, which take
    every round.
    """
    results = driven["results"]
    sent = sum(len(r["items"]) for r in results.values())
    ok = [i for r in results.values() for i in r["items"] if i["status"] == 200]
    out = {
        "setup_s": median(driven["setup_times"]),
        "points_per_s": len(ok) / sum(r["wall"] for r in results.values()),
        "ok_ratio": len(ok) / sent,
        "peak_rss_mb": driven["server"]["peak_rss_mb"],
        "slo_met_ratio": sum(i["latency"] <= SLO_SECONDS for i in ok) / sent,
    }
    for phase in E2E_PHASES:
        out[f"{phase}_p50_ms"] = quiet_median_ms(results[phase]["rounds"])
    return out


def quiet_median_ms(rounds: list[dict[str, Any]]) -> float:
    """Median latency in ms over the rounds whose steal rate is at most the
    median round's.

    On a shared host, the rounds in which the hypervisor ran other guests
    on this machine's CPUs answer up to twice as slow (0.14-0.22 s stolen
    per second against none on a 2-vCPU VM), and such stretches last tens
    of seconds, so they shift a whole run.  Choosing rounds by steal,
    never by their latency, keeps a slower program slower.  Where no steal
    is reported every round is kept.
    """
    limit = median([r["steal"] for r in rounds])
    return median([x for r in rounds if r["steal"] <= limit for x in r["latency"]]) * 1e3


def _ok_latency(results: dict[str, Any], phase: str) -> list[float]:
    return [i["latency"] for i in results[phase]["items"] if i["status"] == 200]


def overhead(plain: dict[str, float], traced: dict[str, float]) -> dict[str, float]:
    """``trace.overhead.<metric>``: the share by which tracing worsened it."""
    out = {}
    for name, higher_better in OVERHEAD.items():
        base = plain[name]
        delta = (base - traced[name]) if higher_better else (traced[name] - base)
        out[f"trace.overhead.{name}"] = _ratio(delta, base)
    return out


def layer_metrics(
    totals: dict[str, dict[str, float]],
    reps: int,
    footprint: dict[str, float] | None = None,
    reclaims: float = 0.0,
    serve: dict[str, Any] | None = None,
) -> dict[str, float]:
    """Every per-layer metric from merged layer totals of ``reps`` repetitions.

    ``footprint`` is the average store footprint of one repetition (with
    its ``points``); ``serve`` the statz deltas and client counts of a serve
    pass.  A design is one ``design_typical_loop`` call.
    """

    def get(layer: str, key: str) -> float:
        return totals.get(layer, {}).get(key, 0) / reps

    out: dict[str, float] = {}
    for layer in PLAIN_LAYERS:
        for key in ("calls", "busy_s", "failures"):
            out[f"{layer}.{key}"] = get(layer, key)

    designs = get("pll.design", "op.design_typical_loop")
    out["lti.rational.pf_calls_per_design"] = _ratio(get("lti.rational", "op.partial_fractions"), designs)
    out["lti.rational.pf_ladder_steps_per_design"] = _ratio(
        get("lti.rational", "op.ladder_step"), designs
    )
    egr_calls = get("pll.closedloop", "op.effective_gain_response")
    out["pll.closedloop.lambda_points_per_call"] = _ratio(
        get("pll.closedloop", "size.effective_gain_response"), egr_calls
    )
    out["pll.closedloop.scalar_call_ratio"] = _ratio(
        get("pll.closedloop", "le1.effective_gain_response"), egr_calls
    )
    batched = sum(v for k, v in totals.get("campaign.vectorized", {}).items() if k.startswith("size."))
    out["campaign.vectorized.points_per_call"] = _ratio(batched / reps, get("campaign.vectorized", "calls"))

    fp = footprint or {}
    points = fp.get("points", 0)
    out["campaign.store.append_calls"] = get("campaign.store", "op.append_point")
    out["campaign.store.append_s"] = get("campaign.store", "self.append_point")
    out["campaign.store.busy_s"] = get("campaign.store", "busy_s")
    out["campaign.store.failures"] = get("campaign.store", "failures")
    out["campaign.store.bytes_per_point"] = _ratio(fp.get("bytes", 0), points)
    out["campaign.store.files_per_point"] = _ratio(fp.get("files", 0), points)

    out["campaign.lease.claims"] = get("campaign.lease", "op.claim") + get("campaign.lease", "op.reclaim")
    out["campaign.lease.renews"] = get("campaign.lease", "op.renew")
    out["campaign.lease.dones"] = get("campaign.lease", "op.done")
    out["campaign.lease.finalizes"] = get("campaign.lease", "op.finalize")
    out["campaign.lease.idle_s"] = get("campaign.lease", "self.worker")
    out["campaign.lease.busy_s"] = get("campaign.lease", "busy_s") - out["campaign.lease.idle_s"]
    out["campaign.lease.reclaims"] = reclaims / reps
    out["campaign.lease.failures"] = get("campaign.lease", "failures")

    out["obs.stream_writes"] = get("obs", "op.stream")
    out["obs.heartbeat_writes"] = get("obs", "op.heartbeat")
    out["obs.busy_s"] = get("obs", "busy_s")
    out["obs.bytes_per_point"] = _ratio(fp.get("obs_bytes", 0), points)

    requests = get("serve.app", "calls")
    out["serve.protocol.bytes_out_per_request"] = _ratio(get("serve.protocol", "size.dumps_bytes"), requests)
    out["serve.app.ms_per_request"] = _ratio(get("serve.app", "wall.request"), requests) * 1e3
    out["serve.batcher.wait_s"] = get("serve.batcher", "wait_s")

    s = serve or {}
    for key in ("coalescing_ratio", "requests_per_call"):
        out[f"serve.batcher.{key}"] = s.get(f"batcher.{key}", 0.0)
    for key in ("hit_ratio", "hot_hit_ratio", "entries", "bytes"):
        out[f"serve.cache.{key}"] = s.get(f"cache.{key}", 0.0)
    out["client.late_p95_ms"] = s.get("client.late_p95_ms", 0.0)
    for phase in PHASE_NAMES:
        for key in ("p50_ms", "p95_ms", "sent", "succeeded", "failed"):
            out[f"client.{phase}.{key}"] = s.get(f"client.{phase}.{key}", 0)
    return out


def serve_layer_inputs(driven: dict[str, Any], plain: dict[str, Any]) -> dict[str, float]:
    """Server counters over the timed phases of the traced pass ``driven``,
    and the client's counts, lateness and p95 latency from the untraced pass
    ``plain``."""

    def total(key: str, phases=PHASE_NAMES) -> float:
        return sum(driven["results"][p]["counters"][key] for p in phases)

    requests = total(("batcher", "requests"))
    hits, misses = total(("cache", "hits")), total(("cache", "misses"))
    hot_hits, hot_misses = total(("cache", "hits"), ["hot"]), total(("cache", "misses"), ["hot"])
    out = {
        "batcher.coalescing_ratio": _ratio(total(("batcher", "coalesced")), requests),
        "batcher.requests_per_call": _ratio(requests, total(("batcher", "underlying_calls"))),
        "cache.hit_ratio": _ratio(hits, hits + misses),
        "cache.hot_hit_ratio": _ratio(hot_hits, hot_hits + hot_misses),
        "cache.entries": driven["cache"]["entries"],
        "cache.bytes": driven["cache"]["bytes"],
    }
    late = [i["late"] for r in plain["results"].values() for i in r["items"]]
    out["client.late_p95_ms"] = percentile(late, 95) * 1e3
    for phase in PHASE_NAMES:
        items = plain["results"][phase]["items"]
        ok = sum(i["status"] == 200 for i in items)
        latency = _ok_latency(plain["results"], phase)
        out[f"client.{phase}.p50_ms"] = percentile(latency, 50) * 1e3
        out[f"client.{phase}.p95_ms"] = tail_ms(latency, 95)
        out[f"client.{phase}.sent"] = len(items)
        out[f"client.{phase}.succeeded"] = ok
        out[f"client.{phase}.failed"] = len(items) - ok
    return out
