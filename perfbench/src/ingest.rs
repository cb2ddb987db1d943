//! The two streamed-ingest workloads.
//!
//! A run is a fixed number of identical *episodes*. Each episode builds a
//! fresh pipeline, bulk-loads the seed rows with one commit (the set-up),
//! then streams a fixed number of micro-batches (the measured window),
//! then verifies the result off the clock. Fixed work per episode keeps
//! every metric independent of how fast the code under test runs: a faster
//! commit path shortens the window instead of growing the collection.
//!
//! `ingest-serve-blast` drives a [`ServePipeline`] behind an in-process
//! [`Server`] while the open-loop reader queries it; `ingest-wep-b1000`
//! drives a plain [`IncrementalPipeline`] with no readers.

use crate::data::{self, Dataset, Row};
use crate::reader::{self, ReadStats, ReaderConfig};
use crate::report::{self, Report};
use crate::trace::Tracer;
use blast_core::weighting::ChiSquaredWeigher;
use blast_datamodel::entity::SourceId;
use blast_graph::meta::PruningAlgorithm;
use blast_graph::retained::RetainedPairs;
use blast_graph::weights::WeightingScheme;
use blast_incremental::{CleaningConfig, CommitOutcome, IncrementalPipeline, IncrementalPruning};
use blast_obs::CommitTotals;
use blast_serve::{ServePipeline, ServeState, ServeTotals, Server};
use std::collections::HashSet;
use std::sync::atomic::{AtomicBool, AtomicU32, Ordering};
use std::sync::Arc;
use std::time::Instant;

/// Weighting and pruning of a workload.
#[derive(Debug, Clone, Copy)]
pub enum Engine {
    /// χ² weights with BLAST pruning — `blast serve`'s default.
    Chi2Blast,
    /// CBS weights with WEP pruning.
    CbsWep,
}

/// One ingest workload's fixed configuration.
#[derive(Debug)]
pub struct IngestSpec {
    pub engine: Engine,
    /// Engine worker threads (`with_threads`).
    pub threads: usize,
    /// Profiles bulk-loaded by the set-up.
    pub seed_profiles: usize,
    /// Profiles per streamed micro-batch.
    pub batch: usize,
    /// Micro-batches streamed per episode.
    pub batches: usize,
    /// Live reads during the window at this rate (req/s) through a
    /// [`ServePipeline`]; `None` streams into a plain pipeline.
    pub live_read_rate: Option<f64>,
    /// The streamed window of one episode, in seconds, as measured on the
    /// reference machine (2 cores); the episode count is `--seconds`
    /// divided by it, so the fixed work lasts about `--seconds` there.
    pub nominal_window_s: f64,
}

/// `ingest-serve-blast`: census100k-shaped, 10k seed, batches of 100,
/// χ²/BLAST on one engine thread, one reader at 1000 req/s.
pub const SERVE_BLAST: IngestSpec = IngestSpec {
    engine: Engine::Chi2Blast,
    threads: 1,
    seed_profiles: 10_000,
    batch: 100,
    batches: 20,
    live_read_rate: Some(READ_RATE),
    nominal_window_s: 3.0,
};

/// `ingest-wep-b1000`: census100k-shaped, 20k seed, batches of 1000,
/// CBS/WEP on two engine threads, no readers during the window.
pub const WEP_B1000: IngestSpec = IngestSpec {
    engine: Engine::CbsWep,
    threads: 2,
    seed_profiles: 20_000,
    batch: 1000,
    batches: 4,
    live_read_rate: None,
    nominal_window_s: 4.0,
};

/// The reader's fixed request rate.
const READ_RATE: f64 = 1000.0;
/// Fewest episodes per run: set-up time is the median of at least three.
const MIN_EPISODES: usize = 3;
/// Batch reruns per episode (`batch_s` is the median over all of them).
const BATCH_REPS: usize = 3;

/// The pipeline under test: plain, or wrapped for publishing.
enum Writer {
    Plain(IncrementalPipeline),
    Serve(ServePipeline),
}

impl Writer {
    fn new(spec: &IngestSpec) -> Writer {
        let cleaning = CleaningConfig::default();
        let engine = match spec.engine {
            Engine::Chi2Blast => IncrementalPipeline::dirty(
                ChiSquaredWeigher::without_entropy(),
                IncrementalPruning::blast(),
                cleaning,
            ),
            Engine::CbsWep => IncrementalPipeline::dirty(
                WeightingScheme::Cbs,
                IncrementalPruning::Traditional(PruningAlgorithm::Wep),
                cleaning,
            ),
        }
        .with_threads(spec.threads);
        if spec.live_read_rate.is_some() {
            Writer::Serve(ServePipeline::new(engine))
        } else {
            Writer::Plain(engine)
        }
    }

    fn insert(&mut self, row: &Row) -> u32 {
        let id = match self {
            Writer::Plain(p) => p.insert(SourceId(row.source), &row.external_id, row.pairs()),
            Writer::Serve(p) => p.insert(SourceId(row.source), &row.external_id, row.pairs()),
        };
        id.0
    }

    fn commit(&mut self) -> CommitOutcome {
        match self {
            Writer::Plain(p) => p.commit(),
            Writer::Serve(p) => p.commit_and_publish(),
        }
    }

    fn commit_span_name(&self) -> &'static str {
        match self {
            Writer::Plain(_) => "incremental.commit",
            Writer::Serve(_) => "serve.commit_and_publish",
        }
    }

    fn engine(&self) -> &IncrementalPipeline {
        match self {
            Writer::Plain(p) => p,
            Writer::Serve(p) => p.inner(),
        }
    }

    fn serve_totals(&self) -> Option<ServeTotals> {
        match self {
            Writer::Plain(_) => None,
            Writer::Serve(p) => Some(ServeTotals::from_snapshot(&p.metrics().snapshot())),
        }
    }
}

/// What one episode measured.
#[derive(Default)]
struct Episode {
    traced: bool,
    setup_s: f64,
    commit_s: Vec<f64>,
    /// Per commit: the commit call's wall time minus the engine phases its
    /// outcome reports (the serve layer's publish work).
    publish_s: Vec<f64>,
    phases: blast_obs::CommitPhases,
    dirty_nodes: u64,
    patched_rows: u64,
    patched_slots: u64,
    edges_reweighed: u64,
    edges_swept: u64,
    edges_rekeyed: u64,
    retention_flips: u64,
    threshold_crossers: u64,
    totals: CommitTotals,
    swaps: u64,
    stale_max: i64,
    read_inproc_p50_s: f64,
    reads: ReadStats,
    accounted_bytes: u64,
    blocks: usize,
    retained: usize,
    batch_s: Vec<f64>,
    digest: u64,
}

/// Runs an ingest workload and fills `report`.
pub fn run(
    spec: &IngestSpec,
    seed: u64,
    seconds: f64,
    traced: bool,
    tracer: &mut Tracer,
    report: &mut Report,
) {
    let needed = spec.seed_profiles + spec.batch * spec.batches;
    let ds = data::census100k(needed, spec.seed_profiles, seed);
    assert_eq!(ds.rows.len(), needed, "generator row count");

    // Peak RSS covers set-up through the end of the first window; the
    // generator's transient peak is excluded by resetting VmHWM here.
    let rss_reset = blast_metrics::reset_peak_rss();
    if !rss_reset {
        report
            .notes
            .push("VmHWM reset unsupported: peak_rss_mib not reported".to_string());
    }

    let mut episodes = ((seconds / spec.nominal_window_s).round() as usize).max(MIN_EPISODES);
    if traced {
        // Traced runs alternate untraced and traced episodes (an even
        // number, untraced first), so the tracing overhead is measured
        // inside one run with warm-up on the untraced side.
        episodes += episodes % 2;
    }
    let mut runs: Vec<Episode> = Vec::with_capacity(episodes);
    let mut peak_bytes = None;
    for e in 0..episodes {
        tracer.set_enabled(traced && e % 2 == 1);
        let last = e + 1 == episodes;
        let ep = episode(spec, &ds, seed, e, last, tracer, report, &mut peak_bytes);
        runs.push(ep);
    }
    tracer.set_enabled(traced);
    if !rss_reset {
        peak_bytes = None;
    }

    let digests_agree = runs.windows(2).all(|w| w[0].digest == w[1].digest);
    report.gate(
        digests_agree,
        "every episode retains the same pair set (determinism)",
    );

    summarize(spec, &runs, peak_bytes, tracer, report);
}

#[allow(clippy::too_many_arguments)]
fn episode(
    spec: &IngestSpec,
    ds: &Dataset,
    seed: u64,
    index: usize,
    last: bool,
    tracer: &mut Tracer,
    report: &mut Report,
    peak_bytes: &mut Option<u64>,
) -> Episode {
    let mut ep = Episode {
        traced: tracer.enabled(),
        ..Episode::default()
    };
    let (seed_rows, stream_rows) = ds.rows.split_at(spec.seed_profiles);

    // Set-up: insert every seed row, then the first (full-tier) commit.
    let mut ids_in_order = true;
    // Request ids: episode in the high bits, micro-batch (0 = set-up) low.
    let request_base = (index as u64) << 16;
    let setup_span = tracer.start("bench.setup", 0, request_base);
    let t = Instant::now();
    let mut writer = Writer::new(spec);
    for (i, row) in seed_rows.iter().enumerate() {
        let span = tracer.start("incremental.insert", setup_span.id(), request_base);
        ids_in_order &= writer.insert(row) as usize == i;
        tracer.end(span);
    }
    let span = tracer.start(writer.commit_span_name(), setup_span.id(), request_base);
    writer.commit();
    tracer.end(span);
    ep.setup_s = t.elapsed().as_secs_f64();
    tracer.end(setup_span);
    report.attempted += 1;

    // Live readers, when the workload has them.
    let published = Arc::new(AtomicU32::new(spec.seed_profiles as u32));
    let stop = Arc::new(AtomicBool::new(false));
    let live = match (&writer, spec.live_read_rate) {
        (Writer::Serve(p), Some(rate)) => {
            let state = ServeState {
                epoch: Arc::clone(p.epoch()),
                metrics: p.metrics().clone(),
                ingest_done: Arc::new(AtomicBool::new(false)),
            };
            let server = Server::start(state, "127.0.0.1:0", 1).expect("bind a loopback port");
            let config = ReaderConfig {
                addr: server.addr(),
                rate,
                seed: seed ^ (index as u64 + 1).wrapping_mul(0x9E37_79B9),
                request_base: (1 << 40) + (request_base << 8),
            };
            // Client span ids live above 2^31, a 2^20 block per episode.
            let client = Tracer::new(
                tracer.enabled(),
                tracer.origin(),
                (1 << 31) + ((index as u32) << 20),
            );
            let handle = reader::spawn(config, Arc::clone(&published), Arc::clone(&stop), client);
            Some((server, handle))
        }
        _ => None,
    };

    // The measured window: a fixed number of micro-batches.
    let before = writer.engine().metrics().snapshot();
    let serve_before = writer.serve_totals();
    for (b, chunk) in stream_rows.chunks(spec.batch).enumerate() {
        let request = request_base + b as u64 + 1;
        let batch_span = tracer.start("bench.batch", 0, request);
        let t = Instant::now();
        for (j, row) in chunk.iter().enumerate() {
            let span = tracer.start("incremental.insert", batch_span.id(), request);
            ids_in_order &= writer.insert(row) as usize == spec.seed_profiles + b * spec.batch + j;
            tracer.end(span);
        }
        let span = tracer.start(writer.commit_span_name(), batch_span.id(), request);
        let tc = Instant::now();
        let out = writer.commit();
        let call_s = tc.elapsed().as_secs_f64();
        tracer.end(span);
        ep.commit_s.push(t.elapsed().as_secs_f64());
        tracer.end(batch_span);
        published.store(
            (spec.seed_profiles + (b + 1) * spec.batch) as u32,
            Ordering::SeqCst,
        );
        let engine_in_call = out.timings.cleaning_secs
            + out.timings.snapshot_secs
            + out.timings.repair_secs
            + out.timings.reweigh_secs
            + out.timings.decision_secs;
        ep.publish_s.push((call_s - engine_in_call).max(0.0));
        accumulate(&mut ep, &out);
        if tracer.enabled() {
            if let Some(t) = writer.serve_totals() {
                ep.stale_max = ep.stale_max.max(t.stale_epochs);
            }
        }
    }
    report.attempted += ep.commit_s.len() as u64;
    if peak_bytes.is_none() {
        *peak_bytes = blast_metrics::peak_rss_bytes();
    }

    if let Some((server, handle)) = live {
        stop.store(true, Ordering::SeqCst);
        let (reads, client) = handle.join().expect("reader thread panicked");
        tracer.absorb(client);
        server.shutdown();
        ep.reads = reads;
    }

    // Off the clock: counters, footprint, then the correctness gates.
    let engine = writer.engine();
    ep.totals = CommitTotals::from_snapshot(&engine.metrics().snapshot().delta_since(&before));
    if let (Some(after), Some(before)) = (writer.serve_totals(), serve_before) {
        ep.swaps = after.snapshot_swaps - before.snapshot_swaps;
        ep.read_inproc_p50_s = after.read_p50_secs;
    }
    ep.accounted_bytes = engine.footprint().total_bytes() as u64;
    ep.retained = engine.retained().len();

    // The batch rerun is timed BATCH_REPS times; the last result is kept.
    let mut batch = None;
    for _ in 0..BATCH_REPS {
        drop(batch.take());
        let span = tracer.start("incremental.batch_retained", 0, request_base);
        let t = Instant::now();
        batch = Some(engine.batch_retained());
        ep.batch_s.push(t.elapsed().as_secs_f64());
        tracer.end(span);
        report.attempted += 1;
    }
    let batch = batch.expect("at least one batch rerun");

    report.gate(ids_in_order, "profile ids follow row order");
    let retained = engine.retained();
    report.gate(
        retained.pairs() == batch.pairs(),
        &format!(
            "episode {index}: retained == batch_retained ({} pairs)",
            batch.len()
        ),
    );
    if let Writer::Serve(p) = &writer {
        let published: Vec<(u32, u32)> = p.latest().all_pairs();
        let engine_pairs: Vec<(u32, u32)> = retained.iter().map(|(a, b)| (a.0, b.0)).collect();
        report.gate(
            published == engine_pairs,
            &format!("episode {index}: published snapshot == retained"),
        );
        if last {
            report.gate(
                p.verify_equivalence(),
                "ServePipeline::verify_equivalence (serve == incremental == batch)",
            );
        }
    }
    ep.digest = digest(retained);
    if last {
        let quality = blast_metrics::evaluate_pairs(retained.pairs(), &ds.gt);
        report.set("pc", quality.pc);
        report.set("pq", quality.pq);
        report.notes.push(format!(
            "final collection: {} profiles, {} retained pairs, digest {:016x}, {quality}",
            ds.rows.len(),
            retained.len(),
            ep.digest
        ));
    }
    ep
}

fn accumulate(ep: &mut Episode, out: &CommitOutcome) {
    ep.phases.accumulate(&out.timings);
    let s = &out.stats;
    ep.dirty_nodes += s.dirty_nodes as u64;
    ep.patched_rows += s.patched_rows as u64;
    ep.patched_slots += s.patched_slots as u64;
    ep.edges_reweighed += s.edges_reweighed as u64;
    ep.edges_swept += s.edges_swept as u64;
    ep.edges_rekeyed += s.edges_rekeyed as u64;
    ep.retention_flips += s.retention_flips as u64;
    ep.threshold_crossers += s.threshold_crossers as u64;
    ep.blocks = out.blocks;
}

fn summarize(
    spec: &IngestSpec,
    runs: &[Episode],
    peak_bytes: Option<u64>,
    tracer: &Tracer,
    report: &mut Report,
) {
    let commit_s: Vec<f64> = runs.iter().flat_map(|e| e.commit_s.clone()).collect();
    let commits = commit_s.len() as f64;
    let streamed = commits * spec.batch as f64;
    let batch_s: Vec<f64> = runs.iter().flat_map(|e| e.batch_s.clone()).collect();
    let mut reads = ReadStats::default();
    for e in runs {
        reads.merge(&e.reads);
    }

    let setups: Vec<f64> = runs.iter().map(|e| e.setup_s).collect();
    let (tail_pct, tail_s) = report::tail(&commit_s);
    report.set("setup_s", report::median(&setups));
    report.set(
        "ingest_profiles_per_s",
        report::ratio(streamed, commit_s.iter().sum()),
    );
    report.set("commit_p50_s", report::median(&commit_s));
    report.set("commit_tail_s", tail_s);
    report.set("batch_s", report::median(&batch_s));
    report.set("commit_tail_pct", tail_pct);
    report.set("commits", commits);
    if let Some(peak) = peak_bytes {
        report.set("peak_rss_mib", report::mib(peak));
        report.set(
            "memory.unaccounted_mib",
            report::mib(peak.saturating_sub(runs[0].accounted_bytes)),
        );
    }
    report.set("memory.accounted_mib", report::mib(runs[0].accounted_bytes));
    if spec.live_read_rate.is_some() {
        set_read_metrics(report, &reads);
    }

    // Layer attribution, per streamed commit.
    let sum = |f: fn(&Episode) -> u64| runs.iter().map(f).sum::<u64>() as f64;
    let mut phases = blast_obs::CommitPhases::default();
    for e in runs {
        phases.accumulate(&e.phases);
    }
    let per_commit = |v: f64| report::ratio(v, commits);
    report.set("incremental.index_s", per_commit(phases.index_secs));
    report.set("incremental.cleaner_s", per_commit(phases.cleaning_secs));
    report.set("graph.snapshot_s", per_commit(phases.snapshot_secs));
    report.set("incremental.repair_s", per_commit(phases.repair_secs));
    report.set("incremental.reweigh_s", per_commit(phases.reweigh_secs));
    report.set("incremental.decision_s", per_commit(phases.decision_secs));
    report.set(
        "incremental.cleaner_dirty_keys",
        per_commit(sum(|e| e.totals.cleaner_dirty_keys)),
    );
    report.set("graph.patched_rows", per_commit(sum(|e| e.patched_rows)));
    report.set("graph.patched_slots", per_commit(sum(|e| e.patched_slots)));
    let dirty = sum(|e| e.dirty_nodes);
    let reweighed = sum(|e| e.edges_reweighed);
    let swept = sum(|e| e.edges_swept);
    let flips = sum(|e| e.retention_flips);
    report.set("incremental.dirty_nodes", per_commit(dirty));
    report.set("incremental.edges_reweighed", per_commit(reweighed));
    report.set(
        "incremental.dirty_per_profile",
        report::ratio(dirty, streamed),
    );
    report.set("incremental.edges_swept", per_commit(swept));
    report.set(
        "incremental.edges_rekeyed",
        per_commit(sum(|e| e.edges_rekeyed)),
    );
    report.set(
        "incremental.rekey_ratio",
        report::ratio(sum(|e| e.edges_rekeyed), swept),
    );
    report.set("incremental.retention_flips", per_commit(flips));
    report.set(
        "incremental.threshold_crossers",
        per_commit(sum(|e| e.threshold_crossers)),
    );
    report.set(
        "incremental.work_per_flip",
        report::ratio(reweighed + swept, flips),
    );
    report.set("incremental.tier_dirty", sum(|e| e.totals.tier_commits[0]));
    report.set(
        "incremental.tier_reweigh",
        sum(|e| e.totals.tier_commits[1]),
    );
    report.set("incremental.tier_full", sum(|e| e.totals.tier_commits[2]));
    report.set("blocking.blocks", runs[0].blocks as f64);
    report.set("graph.retained", runs[0].retained as f64);

    let rerun = report::median(&batch_s);
    report.set("batch.rerun_s", rerun);
    report.set(
        "batch.break_even",
        report::ratio(report::mean(&commit_s), rerun),
    );

    // Serve layer: publish cost, swaps and the in-process read histogram.
    if spec.live_read_rate.is_some() {
        let publish: Vec<f64> = runs.iter().flat_map(|e| e.publish_s.clone()).collect();
        report.set("serve.publish_s", report::mean(&publish));
        report.set("serve.snapshot_swaps", sum(|e| e.swaps));
        report.set(
            "serve.stale_epochs_max",
            runs.iter().map(|e| e.stale_max).max().unwrap_or(0) as f64,
        );
        let inproc: Vec<f64> = runs.iter().map(|e| e.read_inproc_p50_s).collect();
        report.set("serve.read_inproc_p50_s", report::median(&inproc));
    }

    // Span-derived numbers from the traced episodes.
    let traced: Vec<f64> = runs
        .iter()
        .filter(|e| e.traced)
        .flat_map(|e| e.commit_s.clone())
        .collect();
    let untraced: Vec<f64> = runs
        .iter()
        .filter(|e| !e.traced)
        .flat_map(|e| e.commit_s.clone())
        .collect();
    if !traced.is_empty() {
        // Insert calls of the streamed micro-batches (children of a
        // `bench.batch` span); set-up inserts are excluded.
        let batches: HashSet<u32> = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "bench.batch")
            .map(|s| s.id)
            .collect();
        let insert_s: f64 = tracer
            .spans()
            .iter()
            .filter(|s| s.name == "incremental.insert" && batches.contains(&s.parent))
            .map(|s| s.secs())
            .sum();
        report.set(
            "incremental.insert_s",
            report::ratio(insert_s, traced.len() as f64),
        );
        report.set(
            "trace.overhead_ratio",
            report::ratio(report::mean(&traced), report::mean(&untraced)),
        );
    }
}

/// Records the reader's statistics (read latency timed from when each
/// request was due, service time, generator lateness) and the gate that
/// every response was valid.
fn set_read_metrics(report: &mut Report, reads: &ReadStats) {
    report.set("http.read_p50_s", report::quantile(&reads.latency, 0.50));
    report.set("http.read_p99_s", report::quantile(&reads.latency, 0.99));
    report.set("http.requests", reads.requests as f64);
    report.set("http.errors", reads.errors as f64);
    report.set("http.reconnects", reads.reconnects as f64);
    report.set("http.service_p50_s", report::quantile(&reads.service, 0.50));
    report.set("http.late_p50_s", report::quantile(&reads.late, 0.50));
    report.set("http.late_max_s", report::quantile(&reads.late, 1.0));
    report.attempted += reads.requests;
    report.failed += reads.errors;
    let ok = reads.errors == 0 && reads.requests > 0;
    report.correct &= ok;
    report.notes.push(format!(
        "gate {}: {} HTTP reads, {} errors, {} reconnects{}",
        if ok { "ok" } else { "FAILED" },
        reads.requests,
        reads.errors,
        reads.reconnects,
        if reads.error_samples.is_empty() {
            String::new()
        } else {
            format!(" — e.g. {}", reads.error_samples.join("; "))
        }
    ));
}

/// FNV-1a over the pair list: equal digests ⇔ (almost surely) equal sets.
pub fn digest(pairs: &RetainedPairs) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for (a, b) in pairs.iter() {
        for byte in a.0.to_le_bytes().into_iter().chain(b.0.to_le_bytes()) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}
