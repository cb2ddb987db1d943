//! The metric vocabulary, the summary statistics behind it, and the one
//! JSON line a run ends with.
//!
//! Every workload reports every metric of its mode: the end-to-end set in
//! untraced runs, the per-layer set in traced runs. A per-layer metric that
//! does not belong to a workload reads 0 there (README.md lists which
//! workload each one belongs to); an end-to-end metric is measured on every
//! workload and is never 0.

use std::collections::BTreeMap;
use std::fmt::Write as _;

/// `(name, unit)` of every end-to-end metric, in report order.
pub const END_TO_END: &[(&str, &str)] = &[
    ("setup_s", "s"),
    ("ingest_profiles_per_s", "profiles/s"),
    ("commit_p50_s", "s"),
    ("commit_tail_s", "s"),
    ("batch_s", "s"),
    ("pc", "ratio"),
    ("pq", "ratio"),
    ("peak_rss_mib", "MiB"),
];

/// `(name, unit)` of every per-layer metric, in report order.
pub const PER_LAYER: &[(&str, &str)] = &[
    ("incremental.insert_s", "s"),
    ("incremental.index_s", "s"),
    ("incremental.cleaner_s", "s"),
    ("incremental.cleaner_dirty_keys", "count"),
    ("graph.snapshot_s", "s"),
    ("graph.patched_rows", "count"),
    ("graph.patched_slots", "count"),
    ("incremental.repair_s", "s"),
    ("incremental.dirty_nodes", "count"),
    ("incremental.edges_reweighed", "count"),
    ("incremental.dirty_per_profile", "ratio"),
    ("incremental.reweigh_s", "s"),
    ("incremental.edges_swept", "count"),
    ("incremental.edges_rekeyed", "count"),
    ("incremental.rekey_ratio", "ratio"),
    ("incremental.decision_s", "s"),
    ("incremental.retention_flips", "count"),
    ("incremental.threshold_crossers", "count"),
    ("incremental.work_per_flip", "ratio"),
    ("incremental.tier_dirty", "count"),
    ("incremental.tier_reweigh", "count"),
    ("incremental.tier_full", "count"),
    ("memory.accounted_mib", "MiB"),
    ("memory.unaccounted_mib", "MiB"),
    ("serve.publish_s", "s"),
    ("serve.snapshot_swaps", "count"),
    ("serve.stale_epochs_max", "count"),
    ("serve.read_inproc_p50_s", "s"),
    ("http.read_p50_s", "s"),
    ("http.read_p99_s", "s"),
    ("http.requests", "count"),
    ("http.errors", "count"),
    ("http.reconnects", "count"),
    ("http.service_p50_s", "s"),
    ("http.late_p50_s", "s"),
    ("http.late_max_s", "s"),
    ("core.schema_s", "s"),
    ("core.schema_clusters", "count"),
    ("core.schema_attributes", "count"),
    ("blocking.token_s", "s"),
    ("blocking.purge_s", "s"),
    ("blocking.filter_s", "s"),
    ("blocking.blocks", "count"),
    ("blocking.comparisons", "count"),
    ("graph.build_s", "s"),
    ("graph.prune_s", "s"),
    ("graph.retained", "count"),
    ("graph.retained_ratio", "ratio"),
    ("batch.rerun_s", "s"),
    ("batch.break_even", "ratio"),
    ("commit_tail_pct", "%"),
    ("commits", "count"),
    ("error_ratio", "ratio"),
    ("trace.overhead_ratio", "ratio"),
];

/// Everything one run measured.
#[derive(Debug, Default)]
pub struct Report {
    values: BTreeMap<&'static str, f64>,
    /// Every correctness gate passed.
    pub correct: bool,
    /// Operations attempted (commits + HTTP requests + batch runs).
    pub attempted: u64,
    /// Operations that failed (HTTP errors, timeouts, gate violations).
    pub failed: u64,
    /// Human-readable lines printed ahead of the JSON result.
    pub notes: Vec<String>,
}

impl Report {
    /// A report whose gates have not failed yet.
    pub fn new() -> Self {
        Report {
            correct: true,
            ..Report::default()
        }
    }

    /// Records a metric; the name must be in [`END_TO_END`] or [`PER_LAYER`].
    pub fn set(&mut self, name: &'static str, value: f64) {
        assert!(
            unit_of(name).is_some(),
            "metric {name} is not in the vocabulary"
        );
        self.values.insert(name, value);
    }

    /// Fails the run with a reason.
    pub fn gate(&mut self, ok: bool, what: &str) {
        if ok {
            self.notes.push(format!("gate ok: {what}"));
        } else {
            self.correct = false;
            self.failed += 1;
            self.notes.push(format!("gate FAILED: {what}"));
        }
    }

    /// The result line: every metric of the mode, missing per-layer values
    /// as 0. A missing or non-finite end-to-end value marks the run
    /// incorrect and is left out rather than reported as a wrong number.
    pub fn result_line(&mut self, traced: bool) -> String {
        let vocabulary = if traced { PER_LAYER } else { END_TO_END };
        let mut metrics = String::new();
        for &(name, unit) in vocabulary {
            let value = match self.values.get(name) {
                Some(v) if v.is_finite() => *v,
                Some(_) | None if !traced => {
                    self.correct = false;
                    self.notes.push(format!("metric {name} missing"));
                    continue;
                }
                Some(_) | None => 0.0,
            };
            if !metrics.is_empty() {
                metrics.push_str(", ");
            }
            // Rust's shortest round-trip formatting: every digit measured.
            let _ = write!(
                metrics,
                "\"{name}\": {{\"value\": {value}, \"unit\": \"{unit}\"}}"
            );
        }
        format!(
            "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
            self.correct,
            self.attempted.max(1),
            self.failed
        )
    }

    /// All recorded values as a JSON object (the results file).
    pub fn values_json(&self) -> String {
        let body: Vec<String> = self
            .values
            .iter()
            .filter(|(_, v)| v.is_finite())
            .map(|(k, v)| format!("\"{k}\": {v}"))
            .collect();
        format!("{{{}}}", body.join(", "))
    }
}

fn unit_of(name: &str) -> Option<&'static str> {
    END_TO_END
        .iter()
        .chain(PER_LAYER)
        .find(|(n, _)| *n == name)
        .map(|(_, u)| *u)
}

/// Nearest-rank quantile `q` in `[0, 1]` of unsorted samples (0 when empty).
pub fn quantile(samples: &[f64], q: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut sorted = samples.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len());
    sorted[rank - 1]
}

/// The median (nearest-rank).
pub fn median(samples: &[f64]) -> f64 {
    quantile(samples, 0.5)
}

/// The highest whole percentile with at least ten samples beyond it, and
/// its value: `(percentile, value)`. The percentile is never below 50:
/// with twenty samples or fewer the median stands in for the tail.
pub fn tail(samples: &[f64]) -> (f64, f64) {
    let n = samples.len().max(1);
    let pct = (100.0 * n.saturating_sub(10) as f64 / n as f64)
        .floor()
        .max(50.0);
    (pct, quantile(samples, pct / 100.0))
}

/// Arithmetic mean (0 when empty).
pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `num / den`, or 0 when the denominator is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// Bytes to MiB.
pub fn mib(bytes: u64) -> f64 {
    bytes as f64 / (1024.0 * 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn tail_keeps_ten_samples_beyond() {
        let samples: Vec<f64> = (1..=40).map(f64::from).collect();
        let (pct, value) = tail(&samples);
        assert_eq!(pct, 75.0);
        assert_eq!(value, 30.0);
        assert!(samples.iter().filter(|&&s| s > value).count() >= 10);
        assert_eq!(tail(&[3.0, 1.0, 2.0]), (50.0, 2.0));
    }

    #[test]
    fn nearest_rank_quantiles() {
        let s = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert_eq!(median(&s), 3.0);
        assert_eq!(quantile(&s, 0.99), 5.0);
        assert_eq!(quantile(&s, 0.0), 1.0);
    }

    #[test]
    fn untraced_line_lists_every_end_to_end_metric() {
        let mut r = Report::new();
        for (i, (name, _)) in END_TO_END.iter().enumerate() {
            r.set(name, 1.5 + i as f64);
        }
        let line = r.result_line(false);
        assert!(r.correct);
        for (name, unit) in END_TO_END {
            assert!(line.contains(&format!("\"{name}\": {{\"value\": ")));
            assert!(line.contains(&format!("\"unit\": \"{unit}\"")));
        }
    }

    #[test]
    fn missing_end_to_end_metric_fails_the_run() {
        let mut r = Report::new();
        r.set("setup_s", 0.5);
        let line = r.result_line(false);
        assert!(!r.correct);
        assert!(!line.contains("peak_rss_mib"));
    }
}
