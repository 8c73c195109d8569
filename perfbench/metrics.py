"""Turns one driver run's raw samples into the benchmark's metrics.

The rules live here so that tests (perfbench/test_metrics.py) can pin them:

* percentile: nearest rank over every timed request, where a failed,
  shed or deadline-expired request counts as an infinite latency, so it
  misses any latency limit (served traffic: per timed slot, then the
  median);
* self time: a span's duration minus the part of it that its child spans
  cover (overlapping children are counted once);
* failures: every request the run sent that did not come back ok.
"""

import math
import statistics

# The paper's reference ratios (Molnos et al., DATE 2005, Section 5). The
# simulated platform is scaled (bench/bench_common.hpp) and not validated
# against hardware, so no error figure against them is computed.
PAPER_MISS_REDUCTION_X = {"jpeg-canny": 5.0, "mpeg2": 6.5}


def percentile(values, q):
    """Nearest-rank q-quantile (0 < q <= 1); None when there are no values."""
    if not values:
        return None
    ordered = sorted(values)
    rank = max(1, math.ceil(q * len(ordered)))
    return ordered[rank - 1]


def latencies(samples, field="latency_ms"):
    """Per-request latencies, a failed request counting as infinite."""
    return [s[field] if s["ok"] else math.inf for s in samples]


def per_slot(samples, walls, q):
    """Median over timed slots of each slot's q-percentile, and of each
    slot's ok requests per second, over the timed (not warm-up) requests;
    `walls` holds each slot's length. A burst of host noise then moves a
    slot or two, not the reported value."""
    slots = [[s for s in samples if s["slot"] == i and s["measured"]]
             for i in range(len(walls))]
    pct = _median([percentile(latencies(s), q) for s in slots])
    rate = _median([sum(1 for s in sl if s["ok"]) / w
                    for sl, w in zip(slots, walls)])
    return pct, rate


def count_failures(samples):
    """(attempted, failed) over request samples carrying an "ok" flag."""
    attempted = len(samples)
    failed = sum(1 for s in samples if not s["ok"])
    return attempted, failed


def covered_ns(start, end, intervals):
    """Length of [start, end) covered by the union of `intervals`."""
    clipped = sorted((max(a, start), min(b, end)) for a, b in intervals)
    total, cur_a, cur_b = 0, None, None
    for a, b in clipped:
        if b <= a:
            continue
        if cur_b is None or a > cur_b:
            if cur_b is not None:
                total += cur_b - cur_a
            cur_a, cur_b = a, b
        else:
            cur_b = max(cur_b, b)
    if cur_b is not None:
        total += cur_b - cur_a
    return total


def self_times(spans):
    """Map span id -> self time in ns."""
    children = {}
    for s in spans:
        children.setdefault(s["parent"], []).append(
            (s["start_ns"], s["end_ns"]))
    return {
        s["id"]: (s["end_ns"] - s["start_ns"]) - covered_ns(
            s["start_ns"], s["end_ns"], children.get(s["id"], []))
        for s in spans
    }


def _median(values, default=None):
    values = [v for v in values if v is not None]
    return statistics.median(values) if values else default


def _mean(values):
    return statistics.fmean(values) if values else 0.0


def _metric(value, unit):
    # A non-finite value only arises from failed requests; such a run is
    # already marked incorrect. JSON has no infinity, so it reads as huge.
    if value is None or not math.isfinite(value):
        value = 1e12
    return {"value": value, "unit": unit}


def all_requests(raw):
    """Every request the run sent, as {"ok": bool} records."""
    reqs = [{"ok": r["ok"]} for p in raw["cold_passes"] for r in p["requests"]]
    reqs += [{"ok": w["ok"]} for w in raw["warm"]]
    reqs += [{"ok": s["ok"]} for s in raw["served"]]
    return reqs


def end_to_end(raw):
    passes = raw["cold_passes"]

    def per_pass(fn):
        return _median([fn(p) for p in passes])

    def reduction(p, scenario):
        for c in p["coruns"]:
            if c["scenario"] == scenario:
                return c["shared"]["l2_misses"] / c["partitioned"]["l2_misses"]
        return None

    def minstr_per_s(p):
        instr = p["capture_instructions"] + sum(
            c[m]["instructions"] for c in p["coruns"]
            for m in ("shared", "partitioned"))
        return instr / (p["capture_s"] + p["corun_s"]) / 1e6

    warm = latencies(raw["warm"])
    served_p50, served_rate = per_slot(raw["served"], raw["served_slot_s"],
                                       0.5)
    served_p90, _ = per_slot(raw["served"], raw["served_slot_s"], 0.9)
    attempted, failed = count_failures(all_requests(raw))
    error_pct = max(c["prediction_error_pct"] for p in passes
                    for c in p["coruns"])
    return {
        "setup_s": _metric(_median(raw["setup_s"]), "s"),
        "cold_plan_s": _metric(per_pass(lambda p: p["cold_s"]), "s"),
        "corun_s": _metric(per_pass(lambda p: p["corun_s"]), "s"),
        "sim_minstr_per_s": _metric(per_pass(minstr_per_s), "Minstr/s"),
        "miss_reduction_x.jpeg-canny": _metric(
            per_pass(lambda p: reduction(p, "jpeg-canny")), "x"),
        "miss_reduction_x.mpeg2": _metric(
            per_pass(lambda p: reduction(p, "mpeg2")), "x"),
        "prediction_accuracy_pct": _metric(100.0 - error_pct, "%"),
        "plan_ms_p50": _metric(percentile(warm, 0.5), "ms"),
        "plan_ms_p90": _metric(percentile(warm, 0.9), "ms"),
        "served_ms_p50": _metric(served_p50, "ms"),
        "served_ms_p90": _metric(served_p90, "ms"),
        "served_per_s": _metric(served_rate, "1/s"),
        "success_rate": _metric(1.0 - failed / attempted, "ratio"),
        "peak_rss_mb": _metric(raw["driver_rss_mb"] + raw["server_rss_mb"],
                               "MB"),
    }


def per_layer(raw, spans):
    by_id = {s["id"]: s for s in spans}
    selfs = self_times(spans)

    def dur_ms(s):
        return (s["end_ns"] - s["start_ns"]) / 1e6

    def parent_name(s):
        p = by_id.get(s["parent"])
        return p["name"] if p else None

    def span_median_ms(name):
        return _median([dur_ms(s) for s in spans if s["name"] == name], 0.0)

    warm_ids = {w["request"] for w in raw["warm"]}

    def per_request_ms(name, use_self=False):
        """Median over warm requests of the summed time of `name` spans."""
        sums = {}
        for s in spans:
            if s["name"] == name and s["request"] in warm_ids:
                v = selfs[s["id"]] / 1e6 if use_self else dur_ms(s)
                sums[s["request"]] = sums.get(s["request"], 0.0) + v
        return _median(list(sums.values()), 0.0)

    # Cold passes, one group of cold.request roots each (requests are
    # numbered in order, so passes are consecutive runs of cold.request).
    cold_roots = [s for s in spans if s["name"] == "cold.request"]
    per_pass = max(1, len(raw["cold_passes"][0]["requests"]))
    groups = [cold_roots[i:i + per_pass]
              for i in range(0, len(cold_roots), per_pass)]

    pass_of = {r["request"]: i for i, g in enumerate(groups) for r in g}

    def pass_sum(name):
        out = [0.0] * len(groups)
        for s in spans:
            if s["name"] == name and s["request"] in pass_of:
                out[pass_of[s["request"]]] += dur_ms(s)
        return _median(out, 0.0)

    cold_ms = _median([sum(dur_ms(r) for r in g) for g in groups], 0.0)
    capture_ms = pass_sum("sim.capture")
    # Four co-runs per pass, recorded in order.
    coruns = [dur_ms(s) for s in sorted(spans, key=lambda s: s["id"])
              if s["name"] == "sim.corun"]
    corun_ms = _median([sum(coruns[i:i + 4])
                        for i in range(0, len(coruns), 4)], 0.0)

    passes = raw["cold_passes"]
    p0 = passes[0]
    corun_instr = sum(c[m]["instructions"] for c in p0["coruns"]
                      for m in ("shared", "partitioned"))
    instructions = p0["capture_instructions"] + corun_instr

    def mem_sum(mode, field):
        return sum(c[mode][field] for c in p0["coruns"])

    def cpi(mode):
        return statistics.mean(c[mode]["cpi"] for c in p0["coruns"])

    warm = raw["warm"]
    decomposed = [w for w in warm if w["factory_calls"] > 0]
    # Application builds inside Experiment::profile() and ::plan() only.
    factory = {}
    for s in spans:
        if (s["name"] == "apps.factory"
                and parent_name(s) in ("core.profile", "core.plan")):
            factory[s["request"]] = factory.get(s["request"], 0.0) + dur_ms(s)
    factory_ms = _median(list(factory.values()), 0.0)

    # Service overhead not covered by the calls timed from outside.
    stage = {}
    for s in spans:
        if (s["name"] in ("core.digest", "core.profile", "core.plan")
                and s["request"] in warm_ids):
            stage[s["request"]] = stage.get(s["request"], 0.0) + dur_ms(s)
    unattributed = _median([w["total_ms"] - stage[w["request"]]
                            for w in warm if w["request"] in stage], 0.0)

    served = raw["served"]
    svc_stats, net_stats, pc = ({}, {}, {})
    for st in raw["server_stats"]:  # one per round, each server fresh
        for total, part in ((svc_stats, st["service"]), (net_stats, st["net"]),
                            (pc, st["plan_cache"])):
            for k, v in part.items():
                if isinstance(v, (int, float)):
                    total[k] = total.get(k, 0) + v
    pc_lookups = pc.get("hits", 0) + pc.get("misses", 0)
    attempted, failed = count_failures(all_requests(raw))

    svc_plan_ms = _median([w["plan_ms"] for w in warm], 0.0)
    solve_ms = per_request_ms("opt.solve")
    values = {
        "sim.capture_ms": (capture_ms, "ms"),
        "sim.capture_share_pct": (100.0 * capture_ms / cold_ms
                                  if cold_ms else 0.0, "%"),
        "sim.corun_ms": (corun_ms, "ms"),
        "sim.ns_per_instr": (
            (capture_ms + corun_ms) * 1e6 / instructions, "ns"),
        "sim.instructions": (instructions, "count"),
        "sim.cpi.shared": (cpi("shared"), "cycles/instr"),
        "sim.cpi.partitioned": (cpi("partitioned"), "cycles/instr"),
        "mem.l2_accesses.shared": (mem_sum("shared", "l2_accesses"), "count"),
        "mem.l2_accesses.partitioned": (
            mem_sum("partitioned", "l2_accesses"), "count"),
        "mem.l2_misses.shared": (mem_sum("shared", "l2_misses"), "count"),
        "mem.l2_misses.partitioned": (
            mem_sum("partitioned", "l2_misses"), "count"),
        "apps.factory_calls_per_request": (
            _median([w["factory_calls"] for w in decomposed], 0), "count"),
        "apps.factory_ms": (factory_ms, "ms"),
        "core.digest_ms": (per_request_ms("core.digest"), "ms"),
        "core.profile_ms": (per_request_ms("core.profile"), "ms"),
        "core.profile_self_ms": (
            per_request_ms("core.profile", use_self=True), "ms"),
        "core.plan_ms": (per_request_ms("core.plan"), "ms"),
        "core.plan_self_ms": (per_request_ms("core.plan", use_self=True),
                              "ms"),
        "opt.store_load_ms": (per_request_ms("opt.store_load"), "ms"),
        "opt.store_bytes_loaded": (
            _median([w["store_bytes"] for w in decomposed], 0), "bytes"),
        "opt.store_save_ms": (pass_sum("opt.store_save"), "ms"),
        "opt.replay_ms": (per_request_ms("opt.replay"), "ms"),
        "opt.replay_points": (
            _median([w["replay_points"] for w in decomposed], 0), "count"),
        "opt.solve_ms": (solve_ms, "ms"),
        "opt.solve_share_of_svc_plan_pct": (
            100.0 * solve_ms / svc_plan_ms if svc_plan_ms else 0.0, "%"),
        "opt.plan_cache_get_ms": (span_median_ms("opt.plan_cache_get"), "ms"),
        "opt.plan_cache_disk_get_ms": (
            span_median_ms("opt.plan_cache_get_disk"), "ms"),
        "opt.plan_cache_hit_ratio": (
            pc.get("hits", 0) / pc_lookups if pc_lookups else 0.0, "ratio"),
        "prediction_error_pct": (max(
            c["prediction_error_pct"] for p in passes
            for c in p["coruns"]), "%"),
        "svc.capture_ms": (_median([w["capture_ms"] for w in warm], 0.0),
                           "ms"),
        "svc.profile_ms": (_median([w["profile_ms"] for w in warm], 0.0),
                           "ms"),
        "svc.plan_ms": (svc_plan_ms, "ms"),
        # The server prints this timer with two decimals, so most hits
        # read 0.00; the mean keeps the misses' lookups visible.
        "svc.plan_cache_ms": (_mean(
            [s["plan_cache_ms"] for s in served
             if s["ok"] and s["plan_cache_ms"] >= 0]), "ms"),
        "svc.total_ms": (_median([w["total_ms"] for w in warm], 0.0), "ms"),
        "svc.unattributed_ms": (unattributed, "ms"),
        "svc.sweeps_started": (svc_stats.get("sweeps_started", 0), "count"),
        "svc.sweeps_coalesced": (svc_stats.get("sweeps_coalesced", 0),
                                 "count"),
        "svc.union_points_saved": (
            svc_stats.get("union_points_saved", 0), "count"),
        "svc.plan_cache_hits": (svc_stats.get("plan_cache_hits", 0),
                                "count"),
        "net.overhead_ms_p50": (_median(
            [s["latency_ms"] - s["server_ms"] for s in served if s["ok"]],
            0.0), "ms"),
        "net.requests": (net_stats.get("requests", 0), "count"),
        "net.shed": (net_stats.get("shed", 0), "count"),
        "net.deadline_expired": (net_stats.get("deadline_expired", 0),
                                 "count"),
        "error_rate": (failed / attempted, "ratio"),
        "trace.spans": (raw["spans"], "count"),
        "trace.overhead_pct": (
            100.0 * raw["spans"] * raw["span_cost_ns"]
            / (raw["run_wall_s"] * 1e9), "%"),
    }
    return {k: _metric(v, u) for k, (v, u) in values.items()}


def summarize(raw, spans):
    """The benchmark's result object for one run."""
    attempted, failed = count_failures(all_requests(raw))
    metrics = per_layer(raw, spans) if raw["trace"] else end_to_end(raw)
    return {
        "correct": raw["error_count"] == 0 and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }
