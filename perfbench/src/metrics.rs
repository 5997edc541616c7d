//! Percentiles over raw per-op samples, the declared metric tables, and the
//! one-line JSON result.
//!
//! Percentiles are nearest-rank over the sorted raw samples, never over a
//! log-bucket histogram: a histogram bucket is 6.25 % wide, so a one-bucket
//! flip would read as a 6 % move.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// End-to-end metrics: printed on every untraced run of every workload.
/// Each is a number a user of the system sees, and none can be 0.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("query_p50_us", "us"),
    ("query_tail_us", "us"),
    ("cpu_us_per_op", "us"),
    ("bytes_per_live_byte", "ratio"),
];

/// Per-layer metrics: printed on every traced run of every workload.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("tpch.gen_s", "s"),
    ("tpch.load_s", "s"),
    ("query.q1_us", "us"),
    ("query.q2_us", "us"),
    ("query.q3_us", "us"),
    ("query.q4_us", "us"),
    ("query.q5_us", "us"),
    ("query.q6_us", "us"),
    ("memory.blocks_scanned_per_query", "count"),
    ("memory.pins_per_query", "count"),
    ("memory.ref_resolve_ns", "ns"),
    ("memory.pin_ns", "ns"),
    ("memory.alloc_batch_refills_per_kop", "count"),
    ("memory.remote_frees_per_kop", "count"),
    ("memory.slots_reclaimed_per_kop", "count"),
    ("memory.graveyard_len_max", "count"),
    ("core.add_ns", "ns"),
    ("core.remove_ns", "ns"),
    ("core.enumerate_us", "us"),
    ("maint.passes_completed", "count"),
    ("maint.passes_deferred", "count"),
    ("maint.pass_us_p50", "us"),
    ("maint.pause_us_max", "us"),
    ("maint.relocated_frac", "ratio"),
    ("exec.scan_us", "us"),
    ("exec.morsels_per_query", "count"),
    ("serve.wire_encode_ns", "ns"),
    ("serve.wire_decode_ns", "ns"),
    ("serve.route_ns", "ns"),
    ("serve.ping_us", "us"),
    ("serve.ring_wait_us.ingest", "us"),
    ("serve.exec_us.ingest", "us"),
    ("serve.ring_wait_us.query", "us"),
    ("serve.exec_us.query", "us"),
    ("persist.drain_ms", "ms"),
    ("persist.recover_ms", "ms"),
    ("persist.snapshot_bytes_per_live_byte", "ratio"),
    ("loadgen.late_frac", "ratio"),
    ("host.calib_ms", "ms"),
    ("obs.trace_overhead_pct", "%"),
    ("error_rate", "ratio"),
];

/// A tail percentile must leave at least this many samples beyond it.
const TAIL_BEYOND: usize = 10;

/// Nearest-rank percentile `p` (0 < p ≤ 100) of `sorted`, which must be
/// sorted ascending and non-empty.
fn percentile(sorted: &[f64], p: f64) -> f64 {
    sorted[rank(sorted.len(), p) - 1]
}

/// 1-based nearest rank of percentile `p` among `n` samples.
fn rank(n: usize, p: f64) -> usize {
    ((p / 100.0 * n as f64).ceil() as usize).clamp(1, n)
}

/// Median of unsorted samples; `None` when there are none.
pub fn median(samples: &[f64]) -> Option<f64> {
    let s = sorted(samples);
    (!s.is_empty()).then(|| percentile(&s, 50.0))
}

fn sorted(samples: &[f64]) -> Vec<f64> {
    let mut s = samples.to_vec();
    s.sort_by(f64::total_cmp);
    s
}

/// A latency distribution reduced to what a report prints.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Summary {
    /// Number of raw samples.
    pub n: usize,
    /// Median.
    pub p50: f64,
    /// The highest percentile with at least ten samples beyond it:
    /// `100 × (n − 10) / n`, so the tail is the 11th-largest sample. It
    /// moves smoothly with `n`, where a fixed ladder (p90, p99, …) would
    /// jump whenever a slower run collects fewer samples.
    pub tail_pct: f64,
    /// The value at `tail_pct`.
    pub tail: f64,
}

impl Summary {
    /// Summarises raw samples; `None` when a tail cannot be supported
    /// (fewer than eleven samples).
    pub fn of(samples: &[f64]) -> Option<Summary> {
        let s = sorted(samples);
        let n = s.len();
        if n <= TAIL_BEYOND {
            return None;
        }
        let tail_rank = n - TAIL_BEYOND;
        Some(Summary {
            n,
            p50: percentile(&s, 50.0),
            tail_pct: 100.0 * tail_rank as f64 / n as f64,
            tail: s[tail_rank - 1],
        })
    }

    /// `p50 12.3 us, p99 45.6 us of 5000 samples`.
    pub fn describe(&self, unit: &str) -> String {
        format!(
            "p50 {:.1} {unit}, p{:.2} {:.1} {unit} of {} samples",
            self.p50, self.tail_pct, self.tail, self.n
        )
    }
}

/// Metric values collected by a run, checked against a declared table.
#[derive(Debug, Default)]
pub struct Metrics {
    values: BTreeMap<&'static str, f64>,
}

impl Metrics {
    /// Records `name`. Panics on a name no table declares: every printed
    /// metric must carry a declared unit.
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not declared in a metric table"
        );
        self.values.insert(name, value);
    }

    /// Value of `name`, if recorded.
    pub fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied()
    }

    /// Names in `table` that were not recorded or are not finite.
    pub fn missing(&self, table: &[(&str, &str)]) -> Vec<String> {
        table
            .iter()
            .filter(|(name, _)| !self.get(name).is_some_and(f64::is_finite))
            .map(|(name, _)| name.to_string())
            .collect()
    }

    /// The `metrics` object for `table`: exactly its names, each with
    /// its value and unit.
    pub fn to_json(&self, table: &[(&str, &str)]) -> String {
        let mut out = String::from("{");
        for (i, (name, unit)) in table.iter().enumerate() {
            let value = self.get(name).expect("missing() was checked first");
            if i > 0 {
                out.push_str(", ");
            }
            let _ = write!(
                out,
                "\"{name}\": {{\"value\": {value:?}, \"unit\": \"{unit}\"}}"
            );
        }
        out.push('}');
        out
    }
}

/// The declared unit of `name`, from either table.
fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// The last line of a run: its result object.
pub fn result_line(correct: bool, attempted: u64, failed: u64, metrics: &str) -> String {
    format!(
        "{{\"correct\": {correct}, \"attempted\": {attempted}, \"failed\": {failed}, \"metrics\": {metrics}}}"
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_is_highest_percentile_with_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=1000).map(f64::from).collect();
        let s = Summary::of(&samples).unwrap();
        // p99 is the 990th of 1000 samples: exactly 10 lie beyond it.
        assert_eq!((s.tail_pct, s.tail), (99.0, 990.0));
        assert_eq!((s.p50, s.n), (500.0, 1000));
        assert_eq!(samples.iter().filter(|&&v| v > s.tail).count(), 10);

        let s = Summary::of(&samples[..200]).unwrap();
        assert_eq!((s.tail_pct, s.tail), (95.0, 190.0));

        // A slightly smaller sample moves the tail a little, never by a jump.
        let a = Summary::of(&samples[..101]).unwrap();
        let b = Summary::of(&samples[..99]).unwrap();
        assert_eq!((a.tail, b.tail), (91.0, 89.0));

        let s = Summary::of(&samples[..11]).unwrap();
        assert_eq!((s.tail, s.p50), (1.0, 6.0));
        assert!(
            Summary::of(&samples[..10]).is_none(),
            "no percentile has 10 beyond"
        );
        assert!(Summary::of(&[]).is_none());
    }

    #[test]
    fn percentile_ignores_input_order() {
        let shuffled: Vec<f64> = (0..21).map(|i| f64::from((i * 8) % 21 + 1)).collect();
        let s = Summary::of(&shuffled).unwrap();
        assert_eq!((s.p50, s.tail), (11.0, 11.0));
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn every_metric_has_a_name_and_a_unit_and_matches_benchmark_json() {
        let doc = smc_obs::JsonValue::parse(include_str!("../../BENCHMARK.json")).unwrap();
        for (key, table) in [("end_to_end", END_TO_END), ("per_layer", PER_LAYER)] {
            let declared: Vec<(String, String)> = doc
                .get(key)
                .and_then(|v| v.as_arr())
                .unwrap()
                .iter()
                .map(|m| {
                    let field = |f| m.get(f).and_then(|v| v.as_str()).unwrap().to_string();
                    (field("name"), field("unit"))
                })
                .collect();
            let ours: Vec<(String, String)> = table
                .iter()
                .map(|(n, u)| (n.to_string(), u.to_string()))
                .collect();
            assert_eq!(declared, ours, "{key} differs from BENCHMARK.json");
        }
        for (name, unit) in END_TO_END.iter().chain(PER_LAYER) {
            assert!(!name.is_empty() && !unit.is_empty());
            assert!(name.len() <= 64 && unit.len() <= 16);
        }
    }

    #[test]
    fn result_json_names_every_metric_with_its_unit() {
        let mut m = Metrics::default();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            m.set(name, i as f64 + 0.5);
        }
        assert!(m.missing(END_TO_END).is_empty());
        assert_eq!(m.missing(PER_LAYER).len(), PER_LAYER.len());
        let line = result_line(true, 3, 0, &m.to_json(END_TO_END));
        let doc = smc_obs::JsonValue::parse(&line).unwrap();
        let metrics = doc.get("metrics").unwrap();
        for (name, unit) in END_TO_END {
            let entry = metrics.get(name).unwrap();
            assert_eq!(entry.get("unit").and_then(|u| u.as_str()), Some(*unit));
            assert!(entry.get("value").and_then(|v| v.as_f64()).is_some());
        }
        assert_eq!(metrics.as_obj().unwrap().len(), END_TO_END.len());
    }

    #[test]
    #[should_panic(expected = "not declared")]
    fn undeclared_metric_is_refused() {
        Metrics::default().set("made_up_us", 1.0);
    }
}
