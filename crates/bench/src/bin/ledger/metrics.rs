//! The ledger's metric definitions: names, units, directions and bounds.
//! `BENCHMARK.json` mirrors the bounded end-to-end rows and the per-layer
//! list; a unit test keeps the two in step.

/// One end-to-end or per-layer reading.
#[derive(Debug, Clone, PartialEq)]
pub struct Metric {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
}

/// A reading of the end-to-end metric `name`, with the table's unit.
pub fn reading(name: &'static str, value: f64) -> Metric {
    let def = end_to_end(name).unwrap_or_else(|| panic!("`{name}` is not an end-to-end metric"));
    Metric {
        name: def.name,
        unit: def.unit,
        value,
    }
}

/// How `ledger compare` judges an end-to-end metric.
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Bound {
    /// Worse by more than this share of the parent's median regresses; a
    /// run-to-run spread wider than it leaves the metric unresolved.
    Share(f64),
    /// Worse by more than `share` of the parent's median and by more than
    /// `floor` (in the metric's unit) regresses. Judged on medians alone:
    /// set-up time is a millisecond of process start whose spread the host
    /// dictates, and only a loss the floor's size matters to a caller.
    Floor { share: f64, floor: f64 },
    /// Must repeat exactly; any increase regresses.
    Exact,
}

impl Bound {
    /// The share listed in `BENCHMARK.json`; exact metrics are not listed.
    pub fn share(self) -> Option<f64> {
        match self {
            Bound::Share(share) | Bound::Floor { share, .. } => Some(share),
            Bound::Exact => None,
        }
    }
}

pub struct EndToEnd {
    pub name: &'static str,
    pub unit: &'static str,
    pub lower_is_better: bool,
    pub bound: Bound,
}

const fn e2e(
    name: &'static str,
    unit: &'static str,
    lower_is_better: bool,
    bound: Bound,
) -> EndToEnd {
    EndToEnd {
        name,
        unit,
        lower_is_better,
        bound,
    }
}

/// Every end-to-end metric, in print order. Times are in reference-host
/// seconds (see [`crate::speed`]). The exact two are not in
/// `BENCHMARK.json`, whose metrics must be non-zero on every workload:
/// `failed_frac` is 0 on a correct run and reaches it as the `failed` and
/// `attempted` counts, and `prove-spill` returns no kernel to cost.
pub const END_TO_END: [EndToEnd; 8] = [
    e2e(
        "setup_s",
        "s",
        true,
        Bound::Floor {
            share: 0.25,
            floor: 0.050,
        },
    ),
    e2e("latency_p50_s", "s", true, Bound::Share(0.25)),
    e2e("latency_tail_s", "s", true, Bound::Share(0.25)),
    e2e("requests_per_s", "1/s", false, Bound::Share(0.25)),
    e2e("nodes_per_s", "1/s", false, Bound::Share(0.25)),
    e2e("peak_rss_mib", "MiB", true, Bound::Share(0.25)),
    e2e("failed_frac", "ratio", true, Bound::Exact),
    e2e("kernel_cycles", "cycles/iter", true, Bound::Exact),
];

pub fn end_to_end(name: &str) -> Option<&'static EndToEnd> {
    END_TO_END.iter().find(|m| m.name == name)
}

/// The per-layer metrics, with units, in print order.
pub const LAYER_METRICS: [(&str, &str); 44] = [
    ("search.step_viability_s", "s"),
    ("search.canonicalize_hash_s", "s"),
    ("search.intern_merge_s", "s"),
    ("search.select_s", "s"),
    ("search.expanded", "count"),
    ("search.generated", "count"),
    ("search.kept_ratio", "ratio"),
    ("search.pruned_ratio", "ratio"),
    ("search.table_build_s", "s"),
    ("search.route_s", "s"),
    ("search.routed", "count"),
    ("search.steals", "count"),
    ("search.bound_pruned", "count"),
    ("search.shard_skew", "ratio"),
    ("search.arena_mib", "MiB"),
    ("search.key_mib", "MiB"),
    ("search.resident_est_mib", "MiB"),
    ("spill.written_mib", "MiB"),
    ("spill.segments", "count"),
    ("spill.ddd_hits", "count"),
    ("spill.open_states", "count"),
    ("spill.closed_entries", "count"),
    ("spill.overhead_s", "s"),
    ("spill.rss_over_budget_mib", "MiB"),
    ("verify.gate_s", "s"),
    ("verify.gate_calls", "count"),
    ("verify.oracle_fallbacks", "count"),
    ("verify.check_s", "s"),
    ("cache.get_s", "s"),
    ("cache.insert_s", "s"),
    ("cache.hit_ratio", "ratio"),
    ("cache.memory_hits", "count"),
    ("cache.disk_hits", "count"),
    ("cache.misses", "count"),
    ("cache.log_mib", "MiB"),
    ("service.proto_encode_s", "s"),
    ("service.proto_decode_s", "s"),
    ("service.frame_bytes", "bytes"),
    ("service.rtt_residual_s", "s"),
    ("service.searches_started", "count"),
    ("service.coalesced", "count"),
    ("service.shed", "count"),
    ("trace.coverage", "ratio"),
    ("trace.overhead", "ratio"),
];

/// Per-layer counts that must repeat exactly across runs of one commit.
pub const EXACT_LAYER_COUNTS: [&str; 2] = ["search.expanded", "spill.segments"];

#[cfg(test)]
mod tests {
    use super::*;
    use crate::json::Json;

    fn listed(bench: &Json, key: &str, field: &str) -> Vec<Json> {
        bench
            .get(key)
            .map_or(&[][..], Json::as_arr)
            .iter()
            .map(|e| e.get(field).cloned().unwrap_or(Json::Null))
            .collect()
    }

    fn strs<'a>(it: impl IntoIterator<Item = &'a str>) -> Vec<Json> {
        it.into_iter().map(Json::from).collect()
    }

    #[test]
    fn benchmark_json_mirrors_the_bounded_metrics_and_the_layers() {
        let bench = Json::parse(include_str!("../../../../../BENCHMARK.json")).unwrap();
        let bounded: Vec<(&EndToEnd, f64)> = END_TO_END
            .iter()
            .filter_map(|m| Some((m, m.bound.share()?)))
            .collect();
        assert_eq!(
            listed(&bench, "end_to_end", "name"),
            strs(bounded.iter().map(|(m, _)| m.name))
        );
        assert_eq!(
            listed(&bench, "end_to_end", "unit"),
            strs(bounded.iter().map(|(m, _)| m.unit))
        );
        let better = bounded
            .iter()
            .map(|(m, _)| if m.lower_is_better { "lower" } else { "higher" });
        assert_eq!(listed(&bench, "end_to_end", "better"), strs(better));
        let shares: Vec<Json> = bounded.iter().map(|&(_, s)| Json::Num(s)).collect();
        assert_eq!(listed(&bench, "end_to_end", "bound"), shares);
        // setup_s carries the widest bound, so work moved into set-up shows.
        let widest = bounded.iter().map(|&(_, s)| s).fold(0.0, f64::max);
        assert_eq!(end_to_end("setup_s").unwrap().bound.share(), Some(widest));
        assert_eq!(
            listed(&bench, "per_layer", "name"),
            strs(LAYER_METRICS.iter().map(|(n, _)| *n))
        );
        assert_eq!(
            listed(&bench, "per_layer", "unit"),
            strs(LAYER_METRICS.iter().map(|(_, u)| *u))
        );
        let workloads = &crate::workloads::WORKLOADS;
        assert_eq!(
            listed(&bench, "workloads", "name"),
            strs(workloads.iter().map(|w| w.name))
        );
        assert_eq!(
            listed(&bench, "workloads", "why"),
            strs(workloads.iter().map(|w| w.why))
        );
    }
}
