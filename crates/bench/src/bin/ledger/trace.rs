//! Spans around each call into a layer, and the self times derived from
//! them. A request is a tree rooted at its `request` span (the latency the
//! caller saw); a layer's self time is its span minus its children.
//!
//! The search's phase spans come from the engine's own profiler
//! (`SearchStats::phase_nanos`), which attributes time rather than stamping
//! it: they are laid end to end inside their `search` span in phase order,
//! so their durations are measured but their start times are placements.

use std::collections::BTreeMap;

use sortsynth_obs::profile::Phase;

use crate::json::Json;

/// Span names whose self time no layer claims: the caller-side residual
/// (process, pipe or socket, framing) and search time outside the
/// profiled phases.
pub const UNATTRIBUTED: [&str; 2] = ["request", "search"];

/// One span of a request tree; `parent` indexes an earlier span.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub start_ns: u64,
    pub dur_ns: u64,
}

/// A request tree under construction. Children are placed one after the
/// other from their parent's start.
pub struct Tree {
    pub spans: Vec<Span>,
    cursor: Vec<u64>,
}

impl Tree {
    pub fn new(latency_ns: u64) -> Tree {
        Tree {
            spans: vec![Span {
                name: "request",
                parent: None,
                start_ns: 0,
                dur_ns: latency_ns,
            }],
            cursor: vec![0],
        }
    }

    /// Appends a child of span `parent` lasting `dur_ns`; returns its index.
    pub fn child(&mut self, parent: usize, name: &'static str, dur_ns: u64) -> usize {
        let start_ns = self.cursor[parent];
        self.cursor[parent] += dur_ns;
        self.spans.push(Span {
            name,
            parent: Some(parent),
            start_ns,
            dur_ns,
        });
        self.cursor.push(start_ns);
        self.spans.len() - 1
    }

    /// A `search` span with the profiler's phases under it.
    pub fn search(&mut self, parent: usize, search_ns: u64, phase_ns: &[Json]) -> usize {
        let search = self.child(parent, "search", search_ns);
        for phase in Phase::ALL {
            let ns = phase_ns
                .get(phase as usize)
                .and_then(Json::as_f64)
                .unwrap_or(0.0) as u64;
            if ns > 0 {
                self.child(search, phase_span(phase), ns);
            }
        }
        search
    }

    /// Self time of every span: its duration minus its children's.
    /// Clamped at zero, since sampled phase totals can overshoot the wall
    /// time of a short search.
    pub fn self_ns(&self) -> Vec<u64> {
        let mut own: Vec<i128> = self.spans.iter().map(|s| i128::from(s.dur_ns)).collect();
        for span in &self.spans {
            if let Some(p) = span.parent {
                own[p] -= i128::from(span.dur_ns);
            }
        }
        own.into_iter().map(|ns| ns.max(0) as u64).collect()
    }
}

/// The span name of a profiler phase.
fn phase_span(phase: Phase) -> &'static str {
    match phase {
        Phase::TableBuild => "search.table_build",
        Phase::Select => "search.select",
        Phase::Step => "search.step_viability",
        Phase::Canonicalize => "search.canonicalize_hash",
        Phase::Intern => "search.intern_merge",
        Phase::Route => "search.route",
        Phase::VerifyGate => "search.verify_gate",
    }
}

/// Self times summed over a workload's requests, plus the span records
/// kept for the JSONL file.
#[derive(Default)]
pub struct Trace {
    pub requests: u64,
    pub wall_ns: u64,
    pub self_ns: BTreeMap<&'static str, u64>,
    /// The kept spans, one JSON object each.
    pub spans: Vec<Json>,
}

impl Trace {
    /// Adds one request tree. `start_ns` is the request's send time
    /// relative to the workload's start; `keep` writes its spans out.
    pub fn add(&mut self, req: u64, start_ns: u64, tree: &Tree, keep: bool) {
        let own = tree.self_ns();
        self.requests += 1;
        self.wall_ns += tree.spans[0].dur_ns;
        for (span, ns) in tree.spans.iter().zip(&own) {
            *self.self_ns.entry(span.name).or_default() += ns;
        }
        if keep {
            for (id, span) in tree.spans.iter().enumerate() {
                let start = start_ns + span.start_ns;
                self.spans.push(Json::obj([
                    ("req", req.into()),
                    ("id", (id as u64).into()),
                    (
                        "parent",
                        span.parent.map_or(Json::Null, |p| (p as u64).into()),
                    ),
                    ("name", span.name.into()),
                    ("start_ns", start.into()),
                    ("end_ns", (start + span.dur_ns).into()),
                ]));
            }
        }
    }

    /// Mean self seconds per request of span `name`.
    pub fn per_request_s(&self, name: &str) -> f64 {
        let ns = self.self_ns.get(name).copied().unwrap_or(0);
        ns as f64 / 1e9 / self.requests.max(1) as f64
    }

    /// Share of request wall time that a named layer or phase claims.
    pub fn coverage(&self) -> f64 {
        let attributed: u64 = self
            .self_ns
            .iter()
            .filter(|(name, _)| !UNATTRIBUTED.contains(name))
            .map(|(_, ns)| ns)
            .sum();
        attributed as f64 / self.wall_ns.max(1) as f64
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn self_time_is_span_minus_children() {
        let mut tree = Tree::new(1000);
        let phases: Vec<Json> = [100u64, 50, 300, 200, 100, 0, 0]
            .into_iter()
            .map(Json::from)
            .collect();
        let search = tree.search(0, 800, &phases);
        tree.child(0, "verify.gate", 50);
        assert_eq!(tree.spans[search].start_ns, 0);
        assert_eq!(tree.spans.last().unwrap().start_ns, 800);
        let own = tree.self_ns();
        assert_eq!(own[0], 150);
        assert_eq!(own[search], 50);
        let mut trace = Trace::default();
        trace.add(0, 0, &tree, false);
        assert_eq!(trace.self_ns["search.step_viability"], 300);
        assert!((trace.coverage() - 0.8).abs() < 1e-12);
    }
}
