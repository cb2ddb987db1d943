//! The commit path's bit-identity contract across thread counts.
//!
//! The parallel phases of a commit (fresh-edge weighting, the reweigh
//! sweep, artefact recomputes, the ordered-index rebuild) run on the
//! work-stealing scheduler. The contract is absolute: **every commit
//! outcome — candidate set, delta stream, repair tier — is bit-identical
//! to the single-thread pipeline at any thread count.**
//!
//! Property tests drive random mutation sequences through a reference
//! single-thread pipeline and re-run the identical stream at other thread
//! counts, comparing the retained pairs, the per-commit deltas and the
//! tier at *every* commit (not just the end state). Scripted tests stream
//! an even/odd pair collection against batch and turn the thread count
//! mid-stream.

use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::{EdgeWeigher, WeightingScheme};
use blast_incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning};
use proptest::prelude::*;

const VOCAB: [&str; 10] = [
    "alpha", "beta", "gamma", "delta", "epsilon", "zeta", "eta", "theta", "iota", "kappa",
];

/// One generated mutation: kind (insert/update/delete), a target selector
/// for update/delete, and the token indices of the new value.
type Op = (u8, u8, Vec<u8>);

fn value_of(tokens: &[u8]) -> String {
    tokens
        .iter()
        .map(|&t| VOCAB[t as usize % VOCAB.len()])
        .collect::<Vec<_>>()
        .join(" ")
}

fn op_strategy() -> impl Strategy<Value = Vec<Op>> {
    proptest::collection::vec(
        (0u8..6, 0u8..16, proptest::collection::vec(0u8..10, 1..5)),
        4..14,
    )
}

/// The per-commit observations a run produces — everything that must be
/// bit-identical across thread counts.
#[derive(Debug, PartialEq)]
struct CommitTrace {
    retained: Vec<(ProfileId, ProfileId)>,
    added: Vec<(ProfileId, ProfileId)>,
    retracted: Vec<(ProfileId, ProfileId)>,
    tier: &'static str,
}

/// Streams `ops` through a pipeline pinned to `threads` worker threads,
/// committing every `commit_every` mutations, and returns the trace.
fn run_traced(
    ops: &[Op],
    commit_every: usize,
    weigher: impl EdgeWeigher + Send + Clone + 'static,
    pruning: IncrementalPruning,
    cleaning: CleaningConfig,
    threads: usize,
) -> (Vec<CommitTrace>, IncrementalPipeline) {
    let mut p = IncrementalPipeline::dirty(weigher, pruning, cleaning).with_threads(threads);
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut since = 0usize;
    let mut trace = Vec::new();
    let commit = |p: &mut IncrementalPipeline, trace: &mut Vec<CommitTrace>| {
        let out = p.commit();
        trace.push(CommitTrace {
            retained: p.retained().pairs().to_vec(),
            added: out.delta.added,
            retracted: out.delta.retracted,
            tier: out.stats.tier.label(),
        });
    };
    for (kind, target, tokens) in ops {
        let value = value_of(tokens);
        let live: Vec<ProfileId> = ids
            .iter()
            .copied()
            .filter(|&id| p.store().is_live(id))
            .collect();
        match kind % 3 {
            1 if !live.is_empty() => {
                let id = live[*target as usize % live.len()];
                p.update(id, [("text", value.as_str())]);
            }
            2 if !live.is_empty() => {
                let id = live[*target as usize % live.len()];
                p.delete(id);
            }
            _ => {
                let id = p.insert(
                    SourceId(0),
                    &format!("p{}", ids.len()),
                    [("text", value.as_str())],
                );
                ids.push(id);
            }
        }
        since += 1;
        if since >= commit_every {
            since = 0;
            commit(&mut p, &mut trace);
        }
    }
    if p.has_pending() {
        commit(&mut p, &mut trace);
    }
    (trace, p)
}

/// Runs the single-thread reference and every other count of [`THREADS`]
/// over the same stream, asserting every commit's trace is identical and
/// the final state matches a from-scratch batch run.
fn check_grid(
    ops: &[Op],
    commit_every: usize,
    weigher: impl EdgeWeigher + Send + Clone + 'static,
    pruning: IncrementalPruning,
    cleaning: CleaningConfig,
    label: &str,
) {
    let (reference, ref_pipeline) = run_traced(
        ops,
        commit_every,
        weigher.clone(),
        pruning,
        cleaning.clone(),
        1,
    );
    assert_eq!(
        ref_pipeline.retained().pairs(),
        ref_pipeline.batch_retained().pairs(),
        "{label}: single-thread reference diverged from batch"
    );
    for &threads in &THREADS[1..] {
        let (trace, _) = run_traced(
            ops,
            commit_every,
            weigher.clone(),
            pruning,
            cleaning.clone(),
            threads,
        );
        assert_eq!(
            trace, reference,
            "{label}: threads={threads} diverged from single-thread"
        );
    }
}

/// The thread counts every stream runs at; the first is the reference.
const THREADS: [usize; 3] = [1, 2, 8];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// Every thread count on the edge-decision variants (WEP's
    /// exact-sum threshold and CEP's rank-K cutoff are where ordering
    /// bugs would surface), CBS weighting.
    #[test]
    fn prop_full_grid_edge_variants(ops in op_strategy(), commit_every in 1usize..4) {
        for algorithm in [PruningAlgorithm::Wep, PruningAlgorithm::Cep] {
            check_grid(
                &ops,
                commit_every,
                WeightingScheme::Cbs,
                IncrementalPruning::Traditional(algorithm),
                CleaningConfig::default(),
                &format!("cbs/{}", algorithm.label()),
            );
        }
    }

    /// Every pruning variant (all six traditional + BLAST's own) and every
    /// weighting scheme, cleaning on and off, at every thread count.
    #[test]
    fn prop_all_configs_threaded(ops in op_strategy(), commit_every in 1usize..4) {
        let mut prunings: Vec<IncrementalPruning> = PruningAlgorithm::ALL
            .iter()
            .map(|&a| IncrementalPruning::Traditional(a))
            .collect();
        prunings.push(IncrementalPruning::blast());
        for cleaning in [CleaningConfig::none(), CleaningConfig::default()] {
            for pruning in &prunings {
                for scheme in WeightingScheme::ALL {
                    check_grid(
                        &ops,
                        commit_every,
                        scheme,
                        *pruning,
                        cleaning.clone(),
                        &format!(
                            "{}/{} cleaning={}",
                            scheme.name(),
                            pruning.label(),
                            cleaning.filtering
                        ),
                    );
                }
            }
        }
    }
}

/// An even/odd pair collection: token group g is shared by exactly
/// profiles 2g and 2g + 1, so every edge pairs an even profile with an
/// odd one and the retained set is a perfect matching. A 40-group seed
/// commit followed by commits of four groups must equal batch after every
/// commit and be identical at 1 and 8 threads. The collection is sized so
/// the parallel phases split into several chunks: the seed's fresh edges,
/// and under EJS (whose |E_G| drifts every commit) the reweigh sweep.
#[test]
fn even_odd_pairs_match_batch_at_any_thread_count() {
    let build = |scheme: WeightingScheme, threads: usize| {
        let mut p = IncrementalPipeline::dirty(
            scheme,
            IncrementalPruning::Traditional(PruningAlgorithm::Wep),
            CleaningConfig::none(),
        )
        .with_threads(threads);
        let mut per_commit = Vec::new();
        for g in 0..64u32 {
            for half in 0..2u32 {
                let u = 2 * g + half;
                // Two shared tokens per pair so size-2 blocks exist, plus
                // a unique one so the profiles are not literal duplicates.
                p.insert(
                    SourceId(0),
                    &format!("p{u}"),
                    [("text", format!("tok{g} grp{g} u{u}").as_str())],
                );
            }
            if g >= 39 && g % 4 == 3 {
                let out = p.commit();
                assert_eq!(
                    p.retained().pairs(),
                    p.batch_retained().pairs(),
                    "{}/threads={threads}: stream diverged from batch after group {g}",
                    scheme.name()
                );
                per_commit.push((out.stats.tier.label(), p.retained().pairs().to_vec()));
            }
        }
        per_commit
    };

    for scheme in [WeightingScheme::Cbs, WeightingScheme::Ejs] {
        let reference = build(scheme, 1);
        assert!(!reference.last().unwrap().1.is_empty());
        assert_eq!(
            build(scheme, 8),
            reference,
            "{}: 8 threads diverged from 1 thread",
            scheme.name()
        );
    }
}

/// `BLAST_THREADS`-style explicit thread pinning mid-stream: turning the
/// thread count *between commits* never changes an outcome.
#[test]
fn threads_can_turn_mid_stream() {
    let stream = |threads: &[usize]| {
        let mut p = IncrementalPipeline::dirty(
            WeightingScheme::Ejs,
            IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
            CleaningConfig::default(),
        );
        for (i, &t) in threads.iter().enumerate() {
            p.set_threads(t);
            for j in 0..4u32 {
                let u = 4 * i as u32 + j;
                p.insert(
                    SourceId(0),
                    &format!("p{u}"),
                    [("text", VOCAB[(u as usize * 3 + j as usize) % VOCAB.len()])],
                );
            }
            p.commit();
        }
        p.retained().pairs().to_vec()
    };
    let steady = stream(&[1; 6]);
    let wandering = stream(&[1, 2, 8, 1, 4, 2]);
    assert_eq!(
        steady, wandering,
        "mid-stream thread changes changed the outcome"
    );
}
