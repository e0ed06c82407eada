#!/usr/bin/env python3
"""Validate canary report JSON files.

Several schemas are understood, dispatched on the report's `schema` tag:

canary.run_report/v2 — the machine-readable run reports emitted by the
benches, the experiment CLI and harness::make_report. Verifies the
presence and types of every section, that the breakdown's component maps
carry exactly the known critical-path components, and that the recovery
components sum to the recovery window within tolerance (1 sim-ms per
recovery, the acceptance bound of the decomposition).

canary.run_report/v3 — a v2 report plus the opt-in tail-attribution
sections: `tail` (exemplar-linked percentile attributions whose component
partition must sum to the representative's measured latency within 1
sim-ms whenever the causal chain is complete) and/or `timeseries`
(fixed-window rollups whose row counts must match the declared window
count). A v3 report must carry at least one of the two sections; a v2
report must carry neither.

canary.bench/v1 — the throughput reports emitted by bench/scale_stress:
named phases with events, wall time, events/sec and exact allocation
counts, plus peak RSS. With --baseline, each phase's rate is compared
against the same phase in the baseline report and the check fails if
any phase regressed by more than --max-regress (default 0.20, i.e.
20%). Engine phases are gated on events/sec. platform_* phases are gated
on invocations/sec (the phase's `invocations`, else config.invocations,
over wall_s): the platform's event count per invocation depends on its
event model, so events/sec there would read an event-volume cut as a
slowdown. A baseline phase with "gate_rate": false gates no rate.
Allocation counts are deterministic, so every baseline phase also gates
them: the check fails when a phase allocates more than its baseline
count plus ALLOC_MARGIN (2%) plus ALLOC_SLACK (16), the room left for
libstdc++ versions that allocate differently.

canary.chaos/v1 — the chaos-campaign verdicts emitted by
bench/chaos_campaign: scenario count, injected-fault totals, detector
outcomes, open-loop traffic totals and the invariant-oracle tally. The
check FAILS when the report records any oracle violation, so wiring
this file into CI makes a chaos regression a red build even if the
producing binary's exit status was lost along the way.

canary.traffic/v1 — the open-loop traffic curves emitted by
bench/traffic_curves. Verifies the offered-load axis is strictly
increasing, goodput never exceeds offered load, tail latency dominates
the median, the per-point conservation identity
(offered == admitted + shed + queued_end) holds, nothing was shed below
0.75x capacity, and the report's own conservation verdict is clean.

canary.hedge/v1 — the hedged-request comparison emitted by
bench/fig09_hedging. Verifies the exactly-once race accounting
(hedges_fired == hedge_wins + hedges_cancelled, no open races, at most
one hedge per admitted request), that the hedged p99 is monotone
non-increasing versus the no-hedge baseline, that hedging costs less
than full request replication, and that the bench's own self-check
verdict is clean. With --baseline pointing at a committed hedge report
(bench/BENCH_hedge.baseline.json), the hedge strategy's p99_ms and
cost_usd are additionally gated against the baseline: either growing by
more than --max-regress fails the check.

canary.partition/v1 — the partition/zone-outage/fencing comparison
emitted by bench/fig13_partitions. Verifies the split-brain accounting
per configuration and strategy (every double-execution attempt by a
fenced zombie was rejected, zero commits reached the store), heal
convergence (every partition window that started also healed), that
domain-aware placement strictly reduced recovery time in at least one
configuration, and that the bench's own self-check verdict is clean.
With --baseline pointing at a committed partition report
(bench/BENCH_partition.baseline.json), each configuration's
domain-aware recovery_s and makespan_s are gated against the baseline:
growing by more than --max-regress fails the check.

canary.realexec/v1 — the real-vs-simulated recovery comparison emitted
by bench/realexec_validate. Each scenario ran a miniature kernel as a
forked worker process, SIGKILLed it mid-execution and recovered it for
real, then replayed the same scenario on the simulator configured from
the measured step time / checkpoint size / kill offset. The validator
verifies every scenario completed with at least one real kill and
recovery, that the exactly-once counters are clean (no unfenced stale
commits, no duplicates), that each substrate's components sum to its
recovery window, and that the bench recorded no oracle violation.

With --calibrate BASELINE.json (a canary.realexec.baseline/v1 tolerance
file), each scenario's real/sim ratio per component is additionally
gated against the committed band: a component passes if its ratio lies
inside [min_ratio, max_ratio] or the absolute real-sim gap is below the
band's floor_s (absolute floors keep microsecond-scale components from
tripping ratio checks). Any component outside its band fails the check
— the simulator's recovery model has drifted from the real substrate.

Usage:  check_report.py [--baseline BASE.json] [--max-regress 0.20] \
            [--calibrate BAND.json] report.json [report2.json ...]

Exits non-zero on the first invalid report. Stdlib only.
"""

import json
import sys

SCHEMA = "canary.run_report/v2"
SCHEMA_V3 = "canary.run_report/v3"
BENCH_SCHEMA = "canary.bench/v1"
CHAOS_SCHEMA = "canary.chaos/v1"
TRAFFIC_SCHEMA = "canary.traffic/v1"
HEDGE_SCHEMA = "canary.hedge/v1"
PARTITION_SCHEMA = "canary.partition/v1"
REALEXEC_SCHEMA = "canary.realexec/v1"
REALEXEC_BASELINE_SCHEMA = "canary.realexec.baseline/v1"
# Allowance over a bench baseline's exact allocation count, relative and
# absolute, for standard-library versions that allocate differently.
ALLOC_MARGIN = 0.02
ALLOC_SLACK = 16
CHAOS_ORACLES = [
    "completion",
    "exactly_once",
    "no_corrupt_restore",
    "detection_bound",
    "ledger_balance",
    "no_stranded_failures",
    "conservation",
    "hedge_exactly_once",
    "no_split_brain",
    "heal_convergence",
]
COMPONENTS = [
    "detection",
    "scheduling",
    "launch",
    "init",
    "restore",
    "exec",
    "re_exec",
    "finalize",
]
# Components that only appear in open-loop (traffic-driven) or hedged
# runs; the writers omit them when zero so other reports stay
# byte-identical.
OPTIONAL_COMPONENTS = [
    "queueing",
    "hedging",
]


class Invalid(Exception):
    pass


def expect(cond, msg):
    if not cond:
        raise Invalid(msg)


def check_number(obj, key, path):
    expect(key in obj, f"{path}: missing '{key}'")
    expect(isinstance(obj[key], (int, float)) and not isinstance(obj[key], bool),
           f"{path}.{key}: expected a number, got {type(obj[key]).__name__}")


def check_components(obj, path):
    expect(isinstance(obj, dict), f"{path}: expected an object")
    keys = set(obj.keys())
    required = set(COMPONENTS)
    allowed = required | set(OPTIONAL_COMPONENTS)
    expect(required <= keys <= allowed,
           f"{path}: component keys {sorted(keys)} not between "
           f"{sorted(required)} and {sorted(allowed)}")
    for key in keys:
        check_number(obj, key, path)
    return sum(obj[key] for key in keys)


def check_health(obj, path):
    expect(isinstance(obj, dict), f"{path}: expected an object")
    check_number(obj, "recorded", path)
    check_number(obj, "dropped", path)
    expect(isinstance(obj.get("truncated"), bool),
           f"{path}.truncated: expected a bool")
    expect((obj["dropped"] > 0) == obj["truncated"],
           f"{path}: truncated flag inconsistent with dropped={obj['dropped']}")
    # Per-EventKind drop accounting is only present when something was
    # dropped, and must sum exactly to the total.
    by_kind = obj.get("dropped_by_kind")
    if by_kind is not None:
        expect(isinstance(by_kind, dict) and by_kind,
               f"{path}.dropped_by_kind: expected a non-empty object")
        expect(obj["dropped"] > 0,
               f"{path}.dropped_by_kind present with dropped=0")
        for kind, count in by_kind.items():
            expect(isinstance(count, int) and count > 0,
                   f"{path}.dropped_by_kind.{kind}: bad count")
        expect(sum(by_kind.values()) == obj["dropped"],
               f"{path}.dropped_by_kind sums to {sum(by_kind.values())}, "
               f"not dropped={obj['dropped']}")


def check_breakdown(breakdown):
    expect(isinstance(breakdown, dict), "breakdown: expected an object")

    recoveries = breakdown.get("recoveries")
    expect(isinstance(recoveries, dict), "breakdown.recoveries: missing")
    check_number(recoveries, "count", "breakdown.recoveries")
    check_number(recoveries, "window_s", "breakdown.recoveries")
    total = check_components(recoveries.get("components"),
                             "breakdown.recoveries.components")
    # Acceptance bound: the components partition the recovery windows.
    tolerance = 1e-3 * max(1, recoveries["count"])
    expect(abs(total - recoveries["window_s"]) <= tolerance,
           f"breakdown.recoveries: components sum {total:.6f} != "
           f"window_s {recoveries['window_s']:.6f} (tolerance {tolerance})")

    end_to_end = breakdown.get("end_to_end")
    expect(isinstance(end_to_end, dict), "breakdown.end_to_end: missing")
    check_components(end_to_end.get("components"),
                     "breakdown.end_to_end.components")

    per_function = breakdown.get("per_function")
    expect(isinstance(per_function, dict), "breakdown.per_function: missing")
    for family, fb in per_function.items():
        path = f"breakdown.per_function.{family}"
        expect(isinstance(fb, dict), f"{path}: expected an object")
        for key in ("functions", "recoveries", "window_s"):
            check_number(fb, key, path)
        check_components(fb.get("components"), f"{path}.components")

    slo = breakdown.get("slo")
    expect(isinstance(slo, dict), "breakdown.slo: missing")
    for key in ("targets", "violations", "violation_ratio"):
        check_number(slo, key, "breakdown.slo")
    expect(slo["violations"] <= slo["targets"],
           "breakdown.slo: more violations than targets")
    breaches = slo.get("breaches_by_component")
    expect(isinstance(breaches, dict),
           "breakdown.slo.breaches_by_component: missing")
    for component, count in breaches.items():
        expect(component in COMPONENTS + OPTIONAL_COMPONENTS,
               f"breakdown.slo.breaches_by_component: unknown '{component}'")
        expect(isinstance(count, int) and count >= 0,
               f"breakdown.slo.breaches_by_component.{component}: bad count")
    expect(sum(breaches.values()) == slo["violations"],
           "breakdown.slo: breaches_by_component does not sum to violations")


def check_tail(tail, path="tail"):
    """Validate a v3 tail-attribution section."""
    expect(isinstance(tail, dict), f"{path}: expected an object")
    groups = tail.get("groups")
    expect(isinstance(groups, dict), f"{path}.groups: expected an object")
    attributions = 0
    for metric, group in groups.items():
        g = f"{path}.groups.{metric}"
        expect(isinstance(group, dict), f"{g}: expected an object")
        check_number(group, "exemplars", g)
        expect(group["exemplars"] >= 0, f"{g}.exemplars: negative")
        percentiles = group.get("percentiles")
        expect(isinstance(percentiles, list) and percentiles,
               f"{g}.percentiles: expected a non-empty array")
        prev_p = -1.0
        for i, a in enumerate(percentiles):
            p = f"{g}.percentiles[{i}]"
            expect(isinstance(a, dict), f"{p}: expected an object")
            for key in ("p", "samples", "bucket_estimate_s"):
                check_number(a, key, p)
            expect(0.0 <= a["p"] <= 100.0, f"{p}.p: out of [0, 100]")
            expect(a["p"] > prev_p, f"{p}.p: percentiles not increasing")
            prev_p = a["p"]
            if "latency_s" not in a:
                continue  # no exemplar survived retention for this target
            attributions += 1
            for key in ("latency_s", "trace", "function", "attributed_s",
                        "chain_events"):
                check_number(a, key, p)
            expect(isinstance(a.get("chain_complete"), bool),
                   f"{p}.chain_complete: expected a bool")
            check_components(a.get("components"), f"{p}.components")
            # Acceptance bound: when the causal chain resolved, the exact
            # component partition must sum to the representative's
            # measured latency within one simulated millisecond.
            if a["chain_complete"]:
                expect(abs(a["attributed_s"] - a["latency_s"]) <= 1e-3,
                       f"{p}: attributed {a['attributed_s']:.6f} s != "
                       f"latency {a['latency_s']:.6f} s (tolerance 1e-3)")
    return len(groups), attributions


def check_timeseries(ts, path="timeseries"):
    """Validate a v3 windowed-rollup section."""
    expect(isinstance(ts, dict), f"{path}: expected an object")
    check_number(ts, "window_s", path)
    expect(ts["window_s"] > 0, f"{path}.window_s: must be positive")
    check_number(ts, "windows", path)
    check_number(ts, "evicted", path)
    expect(ts["evicted"] >= 0, f"{path}.evicted: negative")
    windows = ts["windows"]

    counters = ts.get("counters")
    expect(isinstance(counters, dict), f"{path}.counters: expected an object")
    for name, rows in counters.items():
        p = f"{path}.counters.{name}"
        expect(isinstance(rows, list) and len(rows) == windows,
               f"{p}: expected {windows} rows, got "
               f"{len(rows) if isinstance(rows, list) else type(rows)}")
        prev_t = -1.0
        for row in rows:
            expect(isinstance(row, list) and len(row) == 2,
                   f"{p}: rows must be [t_s, value] pairs")
            expect(row[0] > prev_t, f"{p}: window starts not increasing")
            prev_t = row[0]

    quantiles = ts.get("quantiles")
    expect(isinstance(quantiles, dict), f"{path}.quantiles: expected an object")
    for name, rows in quantiles.items():
        p = f"{path}.quantiles.{name}"
        expect(isinstance(rows, list) and len(rows) == windows,
               f"{p}: expected {windows} rows")
        for row in rows:
            expect(isinstance(row, list) and len(row) == 4,
                   f"{p}: rows must be [t_s, count, p50, p99]")
            if row[1] > 0:
                expect(row[3] >= row[2],
                       f"{p}: p99 {row[3]} < p50 {row[2]} at t={row[0]}")

    levels = ts.get("levels")
    expect(isinstance(levels, dict), f"{path}.levels: expected an object")
    for name, rows in levels.items():
        p = f"{path}.levels.{name}"
        expect(isinstance(rows, list), f"{p}: expected an array")
        expect(len(rows) <= windows, f"{p}: more rows than windows")
        for row in rows:
            expect(isinstance(row, list) and len(row) == 2,
                   f"{p}: rows must be [t_s, value] pairs")
    return len(counters) + len(quantiles) + len(levels)


def check_report(report, path):
    expect(isinstance(report, dict), "top level: expected an object")
    schema = report.get("schema")
    expect(schema in (SCHEMA, SCHEMA_V3),
           f"schema: expected '{SCHEMA}' or '{SCHEMA_V3}', got {schema!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")

    for section in ("params", "scalars"):
        expect(isinstance(report.get(section), dict),
               f"{section}: expected an object")

    metrics = report.get("metrics")
    expect(isinstance(metrics, dict), "metrics: expected an object")
    for sub in ("counters", "gauges", "histograms"):
        expect(isinstance(metrics.get(sub), dict),
               f"metrics.{sub}: expected an object")
    for name, hist in metrics["histograms"].items():
        for key in ("count", "mean", "min", "max", "p50", "p95", "p99"):
            check_number(hist, key, f"metrics.histograms.{name}")

    check_breakdown(report.get("breakdown"))

    obs = report.get("obs")
    expect(isinstance(obs, dict), "obs: expected an object")
    check_health(obs.get("spans"), "obs.spans")
    check_health(obs.get("events"), "obs.events")

    # Schema discipline: the attribution sections both require and imply
    # the v3 tag — a v2 report carrying them (or a v3 report without
    # either) means the writer's gating broke.
    tail_stats = None
    ts_streams = None
    if schema == SCHEMA_V3:
        expect("tail" in report or "timeseries" in report,
               "v3 report carries neither a tail nor a timeseries section")
        if "tail" in report:
            tail_stats = check_tail(report["tail"])
        if "timeseries" in report:
            ts_streams = check_timeseries(report["timeseries"])
    else:
        expect("tail" not in report and "timeseries" not in report,
               "v2 report carries attribution sections (should be v3)")

    series = report.get("series")
    expect(isinstance(series, list), "series: expected an array")
    for i, s in enumerate(series):
        expect(isinstance(s, dict) and isinstance(s.get("name"), str),
               f"series[{i}]: expected an object with a name")
        columns = s.get("columns")
        expect(isinstance(columns, list), f"series[{i}].columns: missing")
        for j, row in enumerate(s.get("rows", [])):
            expect(isinstance(row, list) and len(row) == len(columns),
                   f"series[{i}].rows[{j}]: width != {len(columns)} columns")

    claims = report.get("claims")
    expect(isinstance(claims, list), "claims: expected an array")
    for i, c in enumerate(claims):
        expect(isinstance(c, dict) and isinstance(c.get("claim"), str),
               f"claims[{i}]: expected an object with a claim")
        check_number(c, "measured", f"claims[{i}]")

    extra = ""
    if tail_stats is not None:
        extra += (f", tail: {tail_stats[0]} metric(s) / "
                  f"{tail_stats[1]} attribution(s)")
    if ts_streams is not None:
        extra += f", timeseries: {ts_streams} stream(s)"
    print(f"{path}: OK ({schema}, "
          f"{report['breakdown']['recoveries']['count']} recoveries, "
          f"{len(series)} series, {len(claims)} claims{extra})")


def fmt_rate(rate, unit):
    scaled = f"{rate / 1e6:.2f}M" if rate >= 1e6 else f"{rate / 1e3:.1f}k"
    return f"{scaled} {unit}"


def gate_rate(phase, config):
    """The rate --baseline gates a bench phase on, with its unit."""
    if phase["name"].startswith("platform_"):
        invocations = phase.get("invocations", config["invocations"])
        return invocations / phase["wall_s"], "inv/s"
    return phase["events_per_sec"], "ev/s"


def check_bench_report(report, path):
    """Validate a canary.bench/v1 report.

    Returns {phase name: (gated rate, unit, allocations, rate gated?)};
    see gate_rate.
    """
    expect(isinstance(report, dict), "top level: expected an object")
    expect(report.get("schema") == BENCH_SCHEMA,
           f"schema: expected '{BENCH_SCHEMA}', got {report.get('schema')!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")
    expect(isinstance(report.get("quick"), bool), "quick: expected a bool")

    config = report.get("config")
    expect(isinstance(config, dict), "config: expected an object")
    for key in ("nodes", "invocations"):
        check_number(config, key, "config")
        expect(config[key] > 0, f"config.{key}: must be positive")

    phases = report.get("phases")
    expect(isinstance(phases, list) and phases,
           "phases: expected a non-empty array")
    rates = {}
    for i, phase in enumerate(phases):
        p = f"phases[{i}]"
        expect(isinstance(phase, dict) and isinstance(phase.get("name"), str),
               f"{p}: expected an object with a name")
        for key in ("events", "wall_s", "events_per_sec", "allocations",
                    "allocations_per_event"):
            check_number(phase, key, p)
        expect(phase["events"] > 0, f"{p}.events: must be positive")
        expect(phase["wall_s"] > 0, f"{p}.wall_s: must be positive")
        expect(phase["events_per_sec"] > 0,
               f"{p}.events_per_sec: must be positive")
        expect(phase["allocations"] >= 0, f"{p}.allocations: negative")
        if "invocations" in phase:
            check_number(phase, "invocations", p)
            expect(phase["invocations"] > 0,
                   f"{p}.invocations: must be positive")
        expect(isinstance(phase.get("gate_rate", True), bool),
               f"{p}.gate_rate: expected a bool")
        measured_rate = phase["events"] / phase["wall_s"]
        expect(abs(measured_rate - phase["events_per_sec"])
               <= 0.01 * measured_rate,
               f"{p}.events_per_sec inconsistent with events/wall_s")
        expect(phase["name"] not in rates, f"{p}: duplicate phase name")
        rate, unit = gate_rate(phase, config)
        rates[phase["name"]] = (rate, unit, phase["allocations"],
                                phase.get("gate_rate", True))

    check_number(report, "peak_rss_bytes", "top level")
    expect(report["peak_rss_bytes"] > 0, "peak_rss_bytes: must be positive")

    summary = ", ".join(f"{name} {fmt_rate(rate, unit)}"
                        for name, (rate, unit, _, _) in rates.items())
    print(f"{path}: OK ({BENCH_SCHEMA}, {summary})")
    return rates


def check_chaos_report(report, path):
    """Validate a canary.chaos/v1 report; fail on any oracle violation."""
    expect(isinstance(report, dict), "top level: expected an object")
    expect(report.get("schema") == CHAOS_SCHEMA,
           f"schema: expected '{CHAOS_SCHEMA}', got {report.get('schema')!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")

    params = report.get("params")
    expect(isinstance(params, dict), "params: expected an object")
    expect(isinstance(params.get("quick"), bool), "params.quick: expected a bool")
    for key in ("scenarios", "base_seed", "traffic_scenarios",
                "traffic_base_seed", "hedge_scenarios", "hedge_base_seed",
                "partition_scenarios", "partition_base_seed"):
        check_number(params, key, "params")
    expect(params["scenarios"] > 0, "params.scenarios: must be positive")
    expect(params["traffic_scenarios"] >= 0,
           "params.traffic_scenarios: negative")
    expect(params["hedge_scenarios"] >= 0, "params.hedge_scenarios: negative")
    expect(params["partition_scenarios"] >= 0,
           "params.partition_scenarios: negative")

    faults = report.get("fault_totals")
    expect(isinstance(faults, dict), "fault_totals: expected an object")
    for key in ("function_failures", "node_kills", "gray_windows",
                "heartbeats_dropped", "heartbeats_delayed",
                "store_entries_dropped", "store_entries_corrupted"):
        check_number(faults, key, "fault_totals")
        expect(faults[key] >= 0, f"fault_totals.{key}: negative")

    detection = report.get("detection")
    expect(isinstance(detection, dict), "detection: expected an object")
    for key in ("suspicions", "false_suspicions", "recovery_stalls",
                "max_latency_s"):
        check_number(detection, key, "detection")
        expect(detection[key] >= 0, f"detection.{key}: negative")
    expect(detection["false_suspicions"] <= detection["suspicions"],
           "detection: more false suspicions than suspicions")

    traffic = report.get("traffic_totals")
    expect(isinstance(traffic, dict), "traffic_totals: expected an object")
    for key in ("offered", "admitted", "shed", "completed"):
        check_number(traffic, key, "traffic_totals")
        expect(traffic[key] >= 0, f"traffic_totals.{key}: negative")
    # Campaign-level conservation: chaos traffic scenarios drain fully, so
    # every offered arrival ended admitted or shed.
    expect(traffic["offered"] == traffic["admitted"] + traffic["shed"],
           f"traffic_totals: offered {traffic['offered']} != admitted "
           f"{traffic['admitted']} + shed {traffic['shed']}")
    expect(traffic["completed"] <= traffic["admitted"],
           "traffic_totals: completed exceeds admitted")

    hedge = report.get("hedge_totals")
    expect(isinstance(hedge, dict), "hedge_totals: expected an object")
    for key in ("fired", "wins", "cancelled"):
        check_number(hedge, key, "hedge_totals")
        expect(hedge[key] >= 0, f"hedge_totals.{key}: negative")
    # Campaign-level exactly-once: every scenario runs to completion, so
    # no race may be left open — fired splits exactly into wins+cancelled.
    expect(hedge["fired"] == hedge["wins"] + hedge["cancelled"],
           f"hedge_totals: fired {hedge['fired']} != wins {hedge['wins']} "
           f"+ cancelled {hedge['cancelled']}")
    if params["hedge_scenarios"] > 0:
        expect(hedge["fired"] > 0,
               "hedge_totals: hedge scenarios ran but no hedge ever fired")

    partition = report.get("partition_totals")
    expect(isinstance(partition, dict), "partition_totals: expected an object")
    for key in ("partitions_started", "partitions_healed", "zone_outages",
                "heartbeats_partition_dropped", "stale_epoch_rejects",
                "quorum_blocked_puts", "zombie_commit_attempts",
                "zombie_commits_rejected"):
        check_number(partition, key, "partition_totals")
        expect(partition[key] >= 0, f"partition_totals.{key}: negative")
    # Campaign-level heal convergence and split-brain accounting: every
    # window healed, and every zombie commit attempt was rejected.
    expect(partition["partitions_healed"] == partition["partitions_started"],
           f"partition_totals: {partition['partitions_started']} partition(s) "
           f"started but {partition['partitions_healed']} healed")
    expect(partition["zombie_commit_attempts"] ==
           partition["zombie_commits_rejected"],
           f"partition_totals: {partition['zombie_commit_attempts']} zombie "
           f"attempt(s) != {partition['zombie_commits_rejected']} rejected — "
           f"a fenced commit reached the store")
    if params["partition_scenarios"] > 0:
        expect(partition["partitions_started"] > 0,
               "partition_totals: partition scenarios ran but no window "
               "ever started")
    # At the quick campaign size and above, the zone cuts reliably fence
    # minority-side writers mid-commit; zero rejects means the epoch gate
    # is not being exercised.
    if params["partition_scenarios"] >= 8:
        expect(partition["stale_epoch_rejects"] > 0,
               "partition_totals: no stale-epoch write was ever rejected")

    oracles = report.get("oracles")
    expect(isinstance(oracles, dict), "oracles: expected an object")
    checked = oracles.get("checked")
    expect(isinstance(checked, list), "oracles.checked: expected an array")
    expect(sorted(checked) == sorted(CHAOS_ORACLES),
           f"oracles.checked: {sorted(checked)} != {sorted(CHAOS_ORACLES)}")
    check_number(oracles, "violations", "oracles")

    failed = report.get("failed_scenarios")
    expect(isinstance(failed, list), "failed_scenarios: expected an array")
    listed = 0
    for i, entry in enumerate(failed):
        p = f"failed_scenarios[{i}]"
        expect(isinstance(entry, dict), f"{p}: expected an object")
        check_number(entry, "seed", p)
        violations = entry.get("violations")
        expect(isinstance(violations, list) and violations,
               f"{p}.violations: expected a non-empty array")
        for v in violations:
            expect(isinstance(v, str) and v, f"{p}.violations: bad entry")
        listed += len(violations)
    expect(listed == oracles["violations"],
           f"failed_scenarios list {listed} violations but oracles.violations "
           f"is {oracles['violations']}")

    # The verdict: any violation is a red build.
    expect(oracles["violations"] == 0,
           f"chaos campaign recorded {oracles['violations']} oracle "
           f"violation(s) across seeds "
           f"{[entry['seed'] for entry in failed]}")

    print(f"{path}: OK ({CHAOS_SCHEMA}, {params['scenarios']} + "
          f"{params['traffic_scenarios']:.0f} scenarios, "
          f"{faults['node_kills']:.0f} node kills, "
          f"{traffic['offered']:.0f} arrivals, 0 violations)")


def check_traffic_summary(obj, path, allow_backlog=False):
    """Validate one traffic summary block and its conservation identity."""
    expect(isinstance(obj, dict), f"{path}: expected an object")
    for key in ("offered", "admitted", "shed", "completed", "failed",
                "in_flight", "queued_end", "queue_peak", "p50_ms", "p99_ms",
                "queue_wait_p99_ms"):
        check_number(obj, key, path)
        expect(obj[key] >= 0, f"{path}.{key}: negative")
    expect(isinstance(obj.get("conservation_ok"), bool),
           f"{path}.conservation_ok: expected a bool")
    expect(obj["conservation_ok"], f"{path}: conservation_ok is false")
    expect(obj["offered"] == obj["admitted"] + obj["shed"] + obj["queued_end"],
           f"{path}: offered {obj['offered']} != admitted {obj['admitted']} "
           f"+ shed {obj['shed']} + queued_end {obj['queued_end']}")
    expect(obj["admitted"] ==
           obj["completed"] + obj["failed"] + obj["in_flight"],
           f"{path}: admitted {obj['admitted']} != completed "
           f"{obj['completed']} + failed {obj['failed']} + in_flight "
           f"{obj['in_flight']}")
    if not allow_backlog:
        expect(obj["in_flight"] == 0 and obj["queued_end"] == 0,
               f"{path}: run ended with backlog "
               f"(in_flight {obj['in_flight']}, queued {obj['queued_end']})")
    if obj["completed"] > 0:
        expect(obj["p99_ms"] >= obj["p50_ms"],
               f"{path}: p99 {obj['p99_ms']} < p50 {obj['p50_ms']}")


def check_traffic_report(report, path):
    """Validate a canary.traffic/v1 report from bench/traffic_curves."""
    expect(isinstance(report, dict), "top level: expected an object")
    expect(report.get("schema") == TRAFFIC_SCHEMA,
           f"schema: expected '{TRAFFIC_SCHEMA}', got {report.get('schema')!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")

    params = report.get("params")
    expect(isinstance(params, dict), "params: expected an object")
    expect(isinstance(params.get("quick"), bool), "params.quick: expected a bool")
    for key in ("horizon_s", "capacity_rps", "max_concurrent",
                "queue_capacity", "seed"):
        check_number(params, key, "params")
        expect(params[key] > 0, f"params.{key}: must be positive")

    curves = report.get("curves")
    expect(isinstance(curves, list) and curves,
           "curves: expected a non-empty array")
    prev_offered = -1.0
    for i, point in enumerate(curves):
        p = f"curves[{i}]"
        expect(isinstance(point, dict), f"{p}: expected an object")
        for key in ("load_factor", "offered_rps", "goodput_rps"):
            check_number(point, key, p)
        check_traffic_summary(point, p)
        # The offered-load axis must be strictly increasing: a shuffled or
        # duplicated sweep means the producing bench is broken.
        expect(point["offered_rps"] > prev_offered,
               f"{p}: offered_rps {point['offered_rps']} not strictly "
               f"greater than previous {prev_offered}")
        prev_offered = point["offered_rps"]
        expect(point["goodput_rps"] <= point["offered_rps"] + 1e-9,
               f"{p}: goodput {point['goodput_rps']} exceeds offered "
               f"{point['offered_rps']}")
        if point["load_factor"] <= 0.75:
            expect(point["shed"] == 0,
                   f"{p}: shed {point['shed']} arrival(s) at subcritical "
                   f"load {point['load_factor']}")

    burst = report.get("burst")
    expect(isinstance(burst, dict), "burst: expected an object")
    for key in ("without_autoscaler", "with_autoscaler"):
        check_traffic_summary(burst.get(key), f"burst.{key}")
    scaled = burst["with_autoscaler"]
    for key in ("scale_ups", "scale_ins", "containers_launched",
                "containers_retired"):
        check_number(scaled, key, "burst.with_autoscaler")
        expect(scaled[key] >= 0, f"burst.with_autoscaler.{key}: negative")
    expect(scaled["containers_retired"] <= scaled["containers_launched"],
           "burst.with_autoscaler: retired more containers than launched")

    check_traffic_summary(report.get("overload_failure"), "overload_failure")

    conservation = report.get("conservation")
    expect(isinstance(conservation, dict), "conservation: expected an object")
    expect(isinstance(conservation.get("ok"), bool),
           "conservation.ok: expected a bool")
    check_number(conservation, "violations", "conservation")
    expect(conservation["ok"] and conservation["violations"] == 0,
           f"traffic bench recorded {conservation['violations']} "
           f"conservation violation(s)")

    print(f"{path}: OK ({TRAFFIC_SCHEMA}, {len(curves)} load points, "
          f"peak goodput {max(pt['goodput_rps'] for pt in curves):.1f} rps, "
          f"0 violations)")


def check_hedge_strategy(obj, path):
    """Validate one strategy block of a canary.hedge/v1 report."""
    expect(isinstance(obj, dict), f"{path}: expected an object")
    expect(isinstance(obj.get("name"), str) and obj["name"],
           f"{path}.name: expected a non-empty string")
    for key in ("p50_ms", "p99_ms", "p999_ms", "cost_usd", "admitted",
                "completed", "shed", "hedges_fired", "hedge_wins",
                "hedges_cancelled", "hedges_denied", "open_races"):
        check_number(obj, key, path)
        expect(obj[key] >= 0, f"{path}.{key}: negative")
    expect(obj["p50_ms"] <= obj["p99_ms"] <= obj["p999_ms"],
           f"{path}: percentiles not monotone "
           f"(p50 {obj['p50_ms']}, p99 {obj['p99_ms']}, "
           f"p999 {obj['p999_ms']})")
    expect(obj["completed"] <= obj["admitted"],
           f"{path}: completed exceeds admitted")
    # Exactly-once race accounting: at most one hedge per admitted
    # request, and every fired hedge resolved (no open races after
    # completed runs).
    expect(obj["hedges_fired"] <= obj["admitted"],
           f"{path}: hedges_fired {obj['hedges_fired']} exceeds admitted "
           f"{obj['admitted']}")
    expect(obj["hedges_fired"] ==
           obj["hedge_wins"] + obj["hedges_cancelled"],
           f"{path}: hedges_fired {obj['hedges_fired']} != hedge_wins "
           f"{obj['hedge_wins']} + hedges_cancelled "
           f"{obj['hedges_cancelled']}")
    expect(obj["open_races"] == 0,
           f"{path}: {obj['open_races']} race(s) left open")


def check_hedge_report(report, path):
    """Validate a canary.hedge/v1 report from bench/fig09_hedging."""
    expect(isinstance(report, dict), "top level: expected an object")
    expect(report.get("schema") == HEDGE_SCHEMA,
           f"schema: expected '{HEDGE_SCHEMA}', got {report.get('schema')!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")

    params = report.get("params")
    expect(isinstance(params, dict), "params: expected an object")
    expect(isinstance(params.get("quick"), bool), "params.quick: expected a bool")
    for key in ("horizon_s", "repetitions", "nodes", "rate_hz",
                "hedge_percentile", "seed"):
        check_number(params, key, "params")
        expect(params[key] > 0, f"params.{key}: must be positive")

    baseline = report.get("baseline")
    check_hedge_strategy(baseline, "baseline")
    expect(baseline["hedges_fired"] == 0,
           "baseline: the no-hedge baseline fired hedges")

    strategies = report.get("strategies")
    expect(isinstance(strategies, list) and strategies,
           "strategies: expected a non-empty array")
    by_name = {}
    for i, s in enumerate(strategies):
        check_hedge_strategy(s, f"strategies[{i}]")
        expect(s["name"] not in by_name, f"strategies[{i}]: duplicate name")
        by_name[s["name"]] = s

    hedge = by_name.get("hedge")
    expect(hedge is not None, "strategies: no 'hedge' entry")
    expect(hedge["hedges_fired"] > 0, "hedge: no hedge ever fired")
    # The point of hedging: p99 monotone non-increasing vs the no-hedge
    # baseline on the same arrivals.
    expect(hedge["p99_ms"] <= baseline["p99_ms"],
           f"hedge p99 {hedge['p99_ms']} ms above no-hedge baseline p99 "
           f"{baseline['p99_ms']} ms")
    rr = by_name.get("rr")
    if rr is not None:
        expect(hedge["cost_usd"] < rr["cost_usd"],
               f"hedge cost {hedge['cost_usd']} not below full-replication "
               f"cost {rr['cost_usd']}")

    claims = report.get("claims")
    expect(isinstance(claims, dict), "claims: expected an object")
    for key in ("hedge_vs_retry_p99_reduction_pct",
                "hedge_vs_rr_cost_reduction_pct"):
        check_number(claims, key, "claims")

    checks = report.get("checks")
    expect(isinstance(checks, dict), "checks: expected an object")
    expect(isinstance(checks.get("ok"), bool), "checks.ok: expected a bool")
    check_number(checks, "violations", "checks")
    expect(checks["ok"] and checks["violations"] == 0,
           f"hedge bench recorded {checks['violations']} self-check "
           f"violation(s)")

    print(f"{path}: OK ({HEDGE_SCHEMA}, {len(strategies)} strategies, "
          f"{hedge['hedges_fired']:.0f} hedges / {hedge['hedge_wins']:.0f} "
          f"wins, p99 {hedge['p99_ms']:.0f} ms vs baseline "
          f"{baseline['p99_ms']:.0f} ms)")


def check_partition_strategy(obj, path):
    """Validate one strategy block of a canary.partition/v1 report."""
    expect(isinstance(obj, dict), f"{path}: expected an object")
    expect(obj.get("name") in ("domain_blind", "domain_aware"),
           f"{path}.name: expected domain_blind or domain_aware, "
           f"got {obj.get('name')!r}")
    for key in ("recovery_s", "makespan_s", "double_execution_attempts",
                "zombie_commits_rejected", "zombie_commits_committed",
                "stale_epoch_rejects", "quorum_blocked_puts",
                "partitions_started", "partitions_healed", "zone_outages"):
        check_number(obj, key, path)
        expect(obj[key] >= 0, f"{path}.{key}: negative")
    expect(obj.get("completed") is True, f"{path}: run did not complete")
    # Split-brain safety: every double-execution attempt by a fenced
    # zombie was rejected at the store's epoch gate.
    expect(obj["zombie_commits_committed"] == 0,
           f"{path}: {obj['zombie_commits_committed']} fenced commit(s) "
           f"reached the store")
    expect(obj["double_execution_attempts"] ==
           obj["zombie_commits_rejected"] + obj["zombie_commits_committed"],
           f"{path}: double_execution_attempts "
           f"{obj['double_execution_attempts']} != rejected "
           f"{obj['zombie_commits_rejected']} + committed "
           f"{obj['zombie_commits_committed']}")
    # Heal convergence: every window that started also healed.
    expect(obj["partitions_healed"] == obj["partitions_started"],
           f"{path}: {obj['partitions_started']} partition(s) started but "
           f"{obj['partitions_healed']} healed")


def check_partition_report(report, path):
    """Validate a canary.partition/v1 report from bench/fig13_partitions."""
    expect(isinstance(report, dict), "top level: expected an object")
    expect(report.get("schema") == PARTITION_SCHEMA,
           f"schema: expected '{PARTITION_SCHEMA}', "
           f"got {report.get('schema')!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")

    params = report.get("params")
    expect(isinstance(params, dict), "params: expected an object")
    expect(isinstance(params.get("quick"), bool), "params.quick: expected a bool")
    for key in ("nodes", "zones", "repetitions", "seed"):
        check_number(params, key, "params")
        expect(params[key] > 0, f"params.{key}: must be positive")
    check_number(params, "fault_zone", "params")

    configs = report.get("configurations")
    expect(isinstance(configs, list) and configs,
           "configurations: expected a non-empty array")
    attempts = 0
    for i, config in enumerate(configs):
        p = f"configurations[{i}]"
        expect(isinstance(config, dict) and isinstance(config.get("name"), str),
               f"{p}: expected an object with a name")
        strategies = config.get("strategies")
        expect(isinstance(strategies, list) and len(strategies) == 2,
               f"{p}.strategies: expected exactly two strategies")
        by_name = {}
        for j, s in enumerate(strategies):
            check_partition_strategy(s, f"{p}.strategies[{j}]")
            by_name[s["name"]] = s
            attempts += s["double_execution_attempts"]
        expect(set(by_name) == {"domain_blind", "domain_aware"},
               f"{p}.strategies: need one domain_blind and one domain_aware")
        check_number(config, "recovery_reduction_pct", p)

    claims = report.get("claims")
    expect(isinstance(claims, dict), "claims: expected an object")
    for key in ("aware_strictly_faster_configs", "max_recovery_reduction_pct",
                "double_execution_attempts", "zombie_commits_committed"):
        check_number(claims, key, "claims")
    # The point of the figure: fault-domain-aware placement strictly
    # reduces correlated-loss recovery time somewhere, and no fenced
    # commit ever landed.
    expect(claims["aware_strictly_faster_configs"] > 0,
           "claims: domain-aware placement never strictly reduced recovery")
    expect(claims["zombie_commits_committed"] == 0,
           f"claims: {claims['zombie_commits_committed']} fenced commit(s) "
           f"reached the store")
    expect(claims["double_execution_attempts"] > 0,
           "claims: no double-execution attempt ever fired")

    checks = report.get("checks")
    expect(isinstance(checks, dict), "checks: expected an object")
    expect(isinstance(checks.get("ok"), bool), "checks.ok: expected a bool")
    check_number(checks, "violations", "checks")
    expect(checks["ok"] and checks["violations"] == 0,
           f"partition bench recorded {checks['violations']} self-check "
           f"violation(s)")

    print(f"{path}: OK ({PARTITION_SCHEMA}, {len(configs)} configurations, "
          f"{claims['aware_strictly_faster_configs']:.0f} strictly faster, "
          f"{attempts:.0f} double-execution attempts, 0 committed)")


REALEXEC_COMPONENTS = [
    "detection_s",
    "scheduling_s",
    "launch_s",
    "init_s",
    "restore_s",
    "re_exec_s",
]


def check_realexec_block(obj, path):
    """Validate one substrate's component block; window must partition."""
    expect(isinstance(obj, dict), f"{path}: expected an object")
    check_number(obj, "window_s", path)
    total = 0.0
    for key in REALEXEC_COMPONENTS:
        check_number(obj, key, path)
        expect(obj[key] >= 0, f"{path}.{key}: negative")
        total += obj[key]
    expect(abs(total - obj["window_s"]) <= 2e-3,
           f"{path}: components sum {total:.6f} != window_s "
           f"{obj['window_s']:.6f} (tolerance 2e-3)")


def check_realexec_report(report, path):
    """Validate a canary.realexec/v1 report from bench/realexec_validate."""
    expect(isinstance(report, dict), "top level: expected an object")
    expect(report.get("schema") == REALEXEC_SCHEMA,
           f"schema: expected '{REALEXEC_SCHEMA}', "
           f"got {report.get('schema')!r}")
    expect(isinstance(report.get("name"), str) and report["name"],
           "name: expected a non-empty string")

    params = report.get("params")
    expect(isinstance(params, dict), "params: expected an object")
    expect(isinstance(params.get("quick"), bool), "params.quick: expected a bool")
    for key in ("heartbeat_interval_ms", "timeout_multiplier", "seed"):
        check_number(params, key, "params")
        expect(params[key] > 0, f"params.{key}: must be positive")

    scenarios = report.get("scenarios")
    expect(isinstance(scenarios, list) and scenarios,
           "scenarios: expected a non-empty array")
    kills = 0
    for i, s in enumerate(scenarios):
        p = f"scenarios[{i}]"
        expect(isinstance(s, dict), f"{p}: expected an object")
        for key in ("kernel", "policy"):
            expect(isinstance(s.get(key), str) and s[key],
                   f"{p}.{key}: expected a non-empty string")
        expect(s.get("completed") is True, f"{p}: scenario did not complete")
        for key in ("kills", "recoveries", "workers_spawned",
                    "commits_accepted", "commits_torn", "stale_epoch_rejects",
                    "duplicate_commits", "unfenced_stale_commits",
                    "checkpoint_bytes", "step_exec_ms", "kill_offset_ms"):
            check_number(s, key, p)
            expect(s[key] >= 0, f"{p}.{key}: negative")
        # Every scenario must have genuinely killed a live worker process
        # and measured a real recovery, or the comparison is vacuous.
        expect(s["kills"] >= 1, f"{p}: no real worker process was killed")
        expect(s["recoveries"] >= 1, f"{p}: no recovery was measured")
        expect(s["workers_spawned"] >= 2,
               f"{p}: a recovery implies at least two worker processes")
        # Exactly-once accounting on the real substrate.
        expect(s["unfenced_stale_commits"] == 0,
               f"{p}: {s['unfenced_stale_commits']} stale-lineage commit(s) "
               f"accepted past the fence")
        expect(s["duplicate_commits"] == 0,
               f"{p}: {s['duplicate_commits']} duplicate commit(s) accepted")
        kills += s["kills"]
        check_realexec_block(s.get("real"), f"{p}.real")
        check_realexec_block(s.get("sim"), f"{p}.sim")

    violations = report.get("violations")
    expect(isinstance(violations, list), "violations: expected an array")

    oracles = report.get("oracles")
    expect(isinstance(oracles, dict), "oracles: expected an object")
    for key in ("completion", "exactly_once", "no_corrupt_restore"):
        expect(oracles.get(key) is True, f"oracles.{key}: not true")
    expect(not violations,
           f"realexec bench recorded {len(violations)} oracle violation(s): "
           f"{violations}")

    print(f"{path}: OK ({REALEXEC_SCHEMA}, {len(scenarios)} scenarios, "
          f"{kills:.0f} real kills, 0 violations)")


def calibrate_realexec(report, bands, path):
    """Gate a realexec report's real/sim deltas against a tolerance file.

    For every scenario and every component (plus the whole window), the
    real/sim ratio must lie inside the band's [min_ratio, max_ratio], or
    the absolute gap must be below the band's floor_s. Bands come from
    the baseline's `tolerance` map, keyed by component name with a
    `default` fallback.
    """
    expect(bands.get("schema") == REALEXEC_BASELINE_SCHEMA,
           f"calibration baseline schema: expected "
           f"'{REALEXEC_BASELINE_SCHEMA}', got {bands.get('schema')!r}")
    tolerance = bands.get("tolerance")
    expect(isinstance(tolerance, dict) and "default" in tolerance,
           "calibration baseline: tolerance map with a 'default' band "
           "required")
    for name, band in tolerance.items():
        for key in ("min_ratio", "max_ratio", "floor_s"):
            check_number(band, key, f"tolerance.{name}")
        expect(band["min_ratio"] <= band["max_ratio"],
               f"tolerance.{name}: min_ratio above max_ratio")

    drifted = []
    checked = 0
    for s in report["scenarios"]:
        label = f"{s['kernel']}/{s['policy']}"
        for key in ["window_s"] + REALEXEC_COMPONENTS:
            band = tolerance.get(key.removesuffix("_s"),
                                 tolerance["default"])
            real = s["real"][key]
            sim = s["sim"][key]
            within_floor = abs(real - sim) <= band["floor_s"]
            ratio = real / sim if sim > 1e-9 else None
            within_band = (ratio is not None and
                           band["min_ratio"] <= ratio <= band["max_ratio"])
            checked += 1
            if not (within_floor or within_band):
                shown = f"{ratio:.2f}" if ratio is not None else "inf"
                drifted.append(
                    f"{label} {key}: real {real:.4f}s vs sim {sim:.4f}s "
                    f"(ratio {shown} outside [{band['min_ratio']}, "
                    f"{band['max_ratio']}], gap above floor "
                    f"{band['floor_s']}s)")
    if drifted:
        for line in drifted:
            print(f"{path}: CALIBRATION DRIFT: {line}", file=sys.stderr)
        raise Invalid(f"{len(drifted)} of {checked} component comparisons "
                      f"drifted outside the committed tolerance band")
    print(f"{path}: calibration OK ({checked} component comparisons inside "
          f"the tolerance band)")


def compare_partition(report, baseline, max_regress, path):
    """Gate a partition report's recovery numbers against a baseline.

    Each configuration's domain-aware recovery_s and makespan_s may not
    grow by more than max_regress versus the committed baseline (same
    bench, same quick mode).
    """
    def aware_by_config(rep, which):
        out = {}
        for config in rep.get("configurations", []):
            for s in config.get("strategies", []):
                if s.get("name") == "domain_aware":
                    out[config["name"]] = s
        expect(out, f"{which}: no domain_aware strategies to compare")
        return out

    ours = aware_by_config(report, path)
    base = aware_by_config(baseline, "baseline")
    for name, base_strategy in base.items():
        expect(name in ours, f"{path}: configuration '{name}' missing vs "
               f"baseline")
        for key in ("recovery_s", "makespan_s"):
            ceiling = base_strategy[key] * (1.0 + max_regress)
            value = ours[name][key]
            expect(value <= ceiling,
                   f"{path}: {name} domain_aware {key} regressed: "
                   f"{value:.3f} > {ceiling:.3f} (baseline "
                   f"{base_strategy[key]:.3f}, max regression "
                   f"{max_regress:.0%})")
            delta = ((value - base_strategy[key]) / base_strategy[key]
                     if base_strategy[key] else 0.0)
            print(f"{path}: {name} domain_aware {key}: {value:.3f} vs "
                  f"baseline {base_strategy[key]:.3f} ({delta:+.1%})")


def compare_hedge(report, baseline, max_regress, path):
    """Gate a hedge report's headline numbers against a committed baseline.

    The hedge strategy's p99_ms and cost_usd may not grow by more than
    max_regress versus the baseline report (same bench, same quick mode).
    """
    def strategy(rep, which):
        for s in rep.get("strategies", []):
            if s.get("name") == "hedge":
                return s
        raise Invalid(f"{which}: no 'hedge' strategy to compare")

    ours = strategy(report, path)
    base = strategy(baseline, "baseline")
    for key in ("p99_ms", "cost_usd"):
        ceiling = base[key] * (1.0 + max_regress)
        expect(ours[key] <= ceiling,
               f"{path}: hedge {key} regressed: {ours[key]:.3f} > "
               f"{ceiling:.3f} (baseline {base[key]:.3f}, "
               f"max regression {max_regress:.0%})")
        delta = ((ours[key] - base[key]) / base[key]) if base[key] else 0.0
        print(f"{path}: hedge {key}: {ours[key]:.3f} vs baseline "
              f"{base[key]:.3f} ({delta:+.1%})")


def compare_bench(rates, baseline_rates, max_regress, path):
    """Fail if any phase allocates more than its baseline (within the
    stated margin) or its gated rate regressed beyond max_regress."""
    for name, (base_rate, unit, base_allocs, rate_gated) in \
            baseline_rates.items():
        expect(name in rates, f"{path}: phase '{name}' missing vs baseline")
        rate, _, allocs, _ = rates[name]
        ceiling = base_allocs * (1.0 + ALLOC_MARGIN) + ALLOC_SLACK
        expect(allocs <= ceiling,
               f"{path}: phase '{name}' allocates more: {allocs} > "
               f"{ceiling:.0f} (baseline {base_allocs}, margin "
               f"{ALLOC_MARGIN:.0%} + {ALLOC_SLACK})")
        print(f"{path}: {name}: {allocs} allocations vs baseline "
              f"{base_allocs}")
        if not rate_gated:
            continue
        floor = base_rate * (1.0 - max_regress)
        expect(rate >= floor,
               f"{path}: phase '{name}' regressed: {rate:.0f} {unit} < "
               f"{floor:.0f} {unit} (baseline {base_rate:.0f}, "
               f"max regression {max_regress:.0%})")
        delta = (rate - base_rate) / base_rate
        print(f"{path}: {name}: {fmt_rate(rate, unit)} vs baseline "
              f"{fmt_rate(base_rate, unit)} ({delta:+.1%})")


def load(path):
    with open(path, encoding="utf-8") as fh:
        return json.load(fh)


def main(argv):
    baseline_path = None
    calibrate_path = None
    max_regress = 0.20
    paths = []
    i = 1
    while i < len(argv):
        arg = argv[i]
        if arg == "--baseline":
            expect_args = i + 1 < len(argv)
            if not expect_args:
                print("--baseline requires a file argument", file=sys.stderr)
                return 2
            baseline_path = argv[i + 1]
            i += 2
        elif arg == "--calibrate":
            if i + 1 >= len(argv):
                print("--calibrate requires a file argument", file=sys.stderr)
                return 2
            calibrate_path = argv[i + 1]
            i += 2
        elif arg == "--max-regress":
            if i + 1 >= len(argv):
                print("--max-regress requires a number", file=sys.stderr)
                return 2
            max_regress = float(argv[i + 1])
            i += 2
        else:
            paths.append(arg)
            i += 1
    if not paths:
        print(__doc__.strip(), file=sys.stderr)
        return 2

    calibration_bands = None
    if calibrate_path is not None:
        try:
            calibration_bands = load(calibrate_path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{calibrate_path}: unreadable: {err}", file=sys.stderr)
            return 1

    baseline_rates = None
    baseline_hedge = None
    baseline_partition = None
    if baseline_path is not None:
        try:
            baseline = load(baseline_path)
            if baseline.get("schema") == HEDGE_SCHEMA:
                check_hedge_report(baseline, baseline_path)
                baseline_hedge = baseline
            elif baseline.get("schema") == PARTITION_SCHEMA:
                check_partition_report(baseline, baseline_path)
                baseline_partition = baseline
            else:
                baseline_rates = check_bench_report(baseline, baseline_path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{baseline_path}: unreadable: {err}", file=sys.stderr)
            return 1
        except Invalid as err:
            print(f"{baseline_path}: INVALID: {err}", file=sys.stderr)
            return 1

    for path in paths:
        try:
            report = load(path)
            if report.get("schema") == BENCH_SCHEMA:
                rates = check_bench_report(report, path)
                if baseline_rates is not None:
                    compare_bench(rates, baseline_rates, max_regress, path)
            elif report.get("schema") == CHAOS_SCHEMA:
                check_chaos_report(report, path)
            elif report.get("schema") == TRAFFIC_SCHEMA:
                check_traffic_report(report, path)
            elif report.get("schema") == HEDGE_SCHEMA:
                check_hedge_report(report, path)
                if baseline_hedge is not None:
                    compare_hedge(report, baseline_hedge, max_regress, path)
            elif report.get("schema") == PARTITION_SCHEMA:
                check_partition_report(report, path)
                if baseline_partition is not None:
                    compare_partition(report, baseline_partition, max_regress,
                                      path)
            elif report.get("schema") == REALEXEC_SCHEMA:
                check_realexec_report(report, path)
                if calibration_bands is not None:
                    calibrate_realexec(report, calibration_bands, path)
            else:
                check_report(report, path)
        except (OSError, json.JSONDecodeError) as err:
            print(f"{path}: unreadable: {err}", file=sys.stderr)
            return 1
        except Invalid as err:
            print(f"{path}: INVALID: {err}", file=sys.stderr)
            return 1
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
