//! `batch-dbp`: batch BLAST on the clean-clean dbp preset.
//!
//! Set-up loads the generated rows into the library's input collections;
//! the measured work is `BlastPipeline::run` with the default
//! configuration. No incremental or serve code runs. The traced run also recomputes the result through
//! `build_blocks`, `GraphSnapshot::build` and `BlastPruning::prune` called
//! directly, to time graph construction and pruning apart, and checks that
//! the two pair sets are equal.

use crate::data;
use crate::ingest::digest;
use crate::report::{self, Report};
use crate::trace::Tracer;
use blast_core::{BlastConfig, BlastPipeline, BlastPruning, ChiSquaredWeigher};
use blast_datamodel::input::ErInput;
use blast_graph::context::GraphSnapshot;
use blast_graph::retained::RetainedPairs;
use std::time::Instant;

/// `--seconds` per `run` of the batch pipeline: one run takes about 12 s
/// on the reference machine (2 cores), and a 25-second run does three, so
/// `batch_s` is a true median.
const SECONDS_PER_RUN: f64 = 10.0;
/// Set-ups per run; `setup_s` is their median (one load is ~60 ms).
const SETUP_REPS: usize = 15;

/// Runs the workload and fills `report`.
pub fn run(seed: u64, seconds: f64, traced: bool, tracer: &mut Tracer, report: &mut Report) {
    let ds = data::dbp(seed);
    let rss_reset = blast_metrics::reset_peak_rss();
    if !rss_reset {
        report
            .notes
            .push("VmHWM reset unsupported: peak_rss_mib not reported".to_string());
    }

    // Set-up: rows → input collections, repeated; the last load is used.
    let mut setups = Vec::with_capacity(SETUP_REPS);
    let mut input: Option<ErInput> = None;
    for _ in 0..SETUP_REPS {
        drop(input.take());
        let span = tracer.start("bench.setup", 0, 0);
        let t = Instant::now();
        input = Some(data::load(&ds.rows));
        setups.push(t.elapsed().as_secs_f64());
        tracer.end(span);
    }
    let input = input.expect("at least one set-up");
    report.set("setup_s", report::median(&setups));

    // The measured work.
    let config = BlastConfig::default();
    let pipeline = BlastPipeline::new(config.clone());
    let runs = ((seconds / SECONDS_PER_RUN).ceil() as usize).max(1);
    let mut run_s = Vec::with_capacity(runs);
    let mut outcome = None;
    for r in 0..runs {
        drop(outcome.take());
        let span = tracer.start("core.run", 0, r as u64 + 1);
        let t = Instant::now();
        outcome = Some(pipeline.run(&input));
        run_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
    }
    let outcome = outcome.expect("at least one run");
    let peak = blast_metrics::peak_rss_bytes().filter(|_| rss_reset);
    report.attempted += runs as u64;

    // One run is one "commit" of the whole collection: every profile's
    // candidates become available when it returns.
    let profiles = input.total_profiles() as f64;
    let (tail_pct, tail_s) = report::tail(&run_s);
    report.set("batch_s", report::median(&run_s));
    report.set("commit_p50_s", report::median(&run_s));
    report.set("commit_tail_s", tail_s);
    report.set("commit_tail_pct", tail_pct);
    report.set("commits", runs as f64);
    report.set(
        "ingest_profiles_per_s",
        report::ratio(profiles * runs as f64, run_s.iter().sum()),
    );
    if let Some(peak) = peak {
        report.set("peak_rss_mib", report::mib(peak));
        report.set("memory.unaccounted_mib", report::mib(peak));
    }

    // Layer attribution from the run's own phase timings and outputs.
    let phase = |name: &str| outcome.timings.phase(name).map_or(0.0, |d| d.as_secs_f64());
    report.set("core.schema_s", phase("schema extraction"));
    report.set("blocking.token_s", phase("token blocking"));
    report.set("blocking.purge_s", phase("block purging"));
    report.set("blocking.filter_s", phase("block filtering"));
    report.set("core.schema_clusters", outcome.schema.clusters as f64);
    report.set("core.schema_attributes", outcome.schema.columns as f64);
    let comparisons = outcome.blocks.aggregate_cardinality() as f64;
    report.set("blocking.blocks", outcome.blocks.len() as f64);
    report.set("blocking.comparisons", comparisons);
    report.set("graph.retained", outcome.pairs.len() as f64);
    report.set(
        "graph.retained_ratio",
        report::ratio(outcome.pairs.len() as f64, comparisons),
    );

    // Gates: the pair set is well formed, and its quality is measured.
    let separator = input.separator();
    let total = input.total_profiles() as u32;
    report.gate(
        well_formed(&outcome.pairs, separator, total),
        "every pair canonical, cross-source, in range, no duplicates",
    );
    let quality = blast_metrics::evaluate_pairs(outcome.pairs.pairs(), &ds.gt);
    report.set("pc", quality.pc);
    report.set("pq", quality.pq);
    report.notes.push(format!(
        "dbp: {} profiles, {} attributes in {} clusters, {} retained pairs, digest {:016x}, {quality}",
        total,
        outcome.schema.columns,
        outcome.schema.clusters,
        outcome.pairs.len(),
        digest(&outcome.pairs)
    ));

    if traced {
        let t = Instant::now();
        let span = tracer.start("core.build_blocks", 0, 0);
        let (blocks, schema) = pipeline.build_blocks(&input);
        tracer.end(span);
        let span = tracer.start("graph.build", 0, 0);
        let ctx = GraphSnapshot::build(&blocks)
            .with_block_entropies(schema.partitioning.block_entropies(&blocks));
        report.set("graph.build_s", tracer.end(span));
        let weigher = if config.use_entropy {
            ChiSquaredWeigher::new()
        } else {
            ChiSquaredWeigher::without_entropy()
        };
        let span = tracer.start("graph.prune", 0, 0);
        let pairs = BlastPruning::with_constants(config.c, config.d).prune(&ctx, &weigher);
        report.set("graph.prune_s", tracer.end(span));
        let decomposed_s = t.elapsed().as_secs_f64();
        report.gate(
            pairs.pairs() == outcome.pairs.pairs(),
            "build_blocks + GraphSnapshot::build + BlastPruning::prune == run()",
        );
        report.set(
            "trace.overhead_ratio",
            report::ratio(decomposed_s, report::median(&run_s)),
        );
    }
}

/// Every pair `(a, b)` has `a < separator <= b < total` and the list is
/// strictly increasing (sorted, no duplicates).
fn well_formed(pairs: &RetainedPairs, separator: u32, total: u32) -> bool {
    let in_range = pairs
        .iter()
        .all(|(a, b)| a.0 < b.0 && a.0 < separator && separator <= b.0 && b.0 < total);
    let increasing = pairs.pairs().windows(2).all(|w| w[0] < w[1]);
    in_range && increasing
}

#[cfg(test)]
mod tests {
    use super::*;
    use blast_datamodel::entity::ProfileId;

    fn pairs(v: &[(u32, u32)]) -> RetainedPairs {
        RetainedPairs::from_sorted(
            v.iter()
                .map(|&(a, b)| (ProfileId(a), ProfileId(b)))
                .collect(),
        )
    }

    #[test]
    fn well_formed_rejects_same_source_and_out_of_range_pairs() {
        assert!(well_formed(&pairs(&[(0, 3), (1, 2), (1, 3)]), 2, 4));
        assert!(!well_formed(&pairs(&[(0, 1)]), 2, 4), "same source");
        assert!(!well_formed(&pairs(&[(0, 4)]), 2, 4), "out of range");
    }
}
