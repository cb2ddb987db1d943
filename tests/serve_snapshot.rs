//! Concurrency contract of the serving layer.
//!
//! Eight reader threads hammer [`blast_serve::Epoch`] pins while the
//! writer thread streams a randomly generated mutation sequence through a
//! [`ServePipeline`], committing and publishing every few mutations. The
//! properties:
//!
//! - **Internal consistency** — every observed snapshot is well-formed in
//!   itself: candidate lists are exactly mirrored (same weight on both
//!   endpoints), every candidate endpoint is live, `pairs()` matches the
//!   enumerated pair count, and `top_k` agrees with the full lists.
//! - **Version exactness** — a snapshot tagged seq N carries *exactly* the
//!   candidate set the writer published at commit N (no torn or blended
//!   views), checked against the writer's per-seq reference log.
//! - **Monotonic versions** — consecutive pins on one reader never observe
//!   a seq going backwards.
//! - **Batch equivalence** — after the stream drains, the final published
//!   view still equals the engine's retained set and its from-scratch
//!   batch counterpart ([`ServePipeline::verify_equivalence`]).

use blast_datamodel::entity::{ProfileId, SourceId};
use blast_graph::meta::PruningAlgorithm;
use blast_graph::weights::WeightingScheme;
use blast_incremental::{CleaningConfig, IncrementalPipeline, IncrementalPruning};
use blast_serve::{ServePipeline, ServeSnapshot};
use proptest::prelude::*;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread;

const READERS: usize = 8;

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
        6..20,
    )
}

/// A snapshot must be consistent *in itself*, whenever it was pinned.
fn assert_internally_consistent(snap: &ServeSnapshot) {
    let pairs = snap.all_pairs();
    assert_eq!(
        pairs.len() as u64,
        snap.pairs(),
        "seq {}: pair count diverges from the enumeration",
        snap.seq()
    );
    for &(u, v) in &pairs {
        assert!(u < v, "seq {}: unnormalised pair ({u},{v})", snap.seq());
        assert!(
            snap.is_live(u) && snap.is_live(v),
            "seq {}: candidate pair ({u},{v}) touches a tombstone",
            snap.seq()
        );
        let forward = snap
            .candidates(u)
            .and_then(|c| c.iter().find(|c| c.id == v).map(|c| c.weight));
        let backward = snap
            .candidates(v)
            .and_then(|c| c.iter().find(|c| c.id == u).map(|c| c.weight));
        assert!(
            forward.is_some() && forward == backward,
            "seq {}: pair ({u},{v}) not mirrored ({forward:?} vs {backward:?})",
            snap.seq()
        );
    }
    // top_k is a prefix of the weight-sorted candidate list.
    for id in 0..snap.nodes() {
        let Some(cands) = snap.candidates(id) else {
            continue;
        };
        let top = snap.top_k(id, 3);
        assert!(top.len() <= 3 && top.len() <= cands.len());
        for w in top.windows(2) {
            assert!(
                w[0].weight >= w[1].weight,
                "seq {}: top_k out of order at node {id}",
                snap.seq()
            );
        }
    }
}

/// Streams `ops` through a serve pipeline while `READERS` threads pin and
/// check every version they observe.
fn hammer(ops: &[Op], commit_every: usize) {
    let mut p = ServePipeline::new(IncrementalPipeline::dirty(
        WeightingScheme::Cbs,
        IncrementalPruning::Traditional(PruningAlgorithm::Wnp1),
        CleaningConfig::none(),
    ));
    let done = Arc::new(AtomicBool::new(false));

    let readers: Vec<_> = (0..READERS)
        .map(|_| {
            let mut reader = p.epoch().register().expect("a free epoch slot");
            let done = Arc::clone(&done);
            thread::spawn(move || {
                // Observation log: (seq, pairs) for every *new* version
                // this reader saw — verified against the writer's
                // references after the join.
                let mut log: Vec<(u64, Vec<(u32, u32)>)> = Vec::new();
                let mut last_seq = 0u64;
                loop {
                    // Load the stop flag before pinning so the final
                    // published version cannot slip past the last pin.
                    let finished = done.load(Ordering::Acquire);
                    {
                        let guard = reader.pin();
                        assert!(
                            guard.seq() >= last_seq,
                            "reader went back in time: {} after {last_seq}",
                            guard.seq()
                        );
                        if guard.seq() > last_seq {
                            last_seq = guard.seq();
                            assert_internally_consistent(&guard);
                            log.push((guard.seq(), guard.all_pairs()));
                        }
                    }
                    if finished {
                        return log;
                    }
                    thread::yield_now();
                }
            })
        })
        .collect();

    // The writer thread: apply the mutation stream, publishing every
    // `commit_every` ops, and record the reference pair set per seq.
    let mut references: Vec<Vec<(u32, u32)>> = vec![Vec::new()]; // seq 0
    let mut ids: Vec<ProfileId> = Vec::new();
    let mut since = 0usize;
    for (kind, target, tokens) in ops {
        let value = value_of(tokens);
        let live: Vec<ProfileId> = ids
            .iter()
            .copied()
            .filter(|&id| p.inner().store().is_live(id))
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
            p.commit_and_publish();
            references.push(p.latest().all_pairs());
            assert_eq!(references.len() as u64 - 1, p.seq());
        }
    }
    if since > 0 {
        p.commit_and_publish();
        references.push(p.latest().all_pairs());
    }
    // The read-your-writes gate: published == retained == batch.
    assert!(
        p.verify_equivalence(),
        "final published snapshot diverges from the engine/batch run"
    );
    done.store(true, Ordering::Release);

    for handle in readers {
        let log = handle.join().expect("reader thread panicked");
        for (seq, pairs) in log {
            assert_eq!(
                pairs, references[seq as usize],
                "a reader observed a candidate set that was never published at seq {seq}"
            );
        }
    }
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(8))]

    /// The full concurrent contract under random mutation streams and
    /// micro-batch sizes.
    #[test]
    fn prop_concurrent_reads_observe_published_versions_only(
        ops in op_strategy(),
        commit_every in 1usize..4,
    ) {
        hammer(&ops, commit_every);
    }
}

/// A deterministic long-stream variant (no generator) so the hammer runs
/// even if the property harness is filtered out, with enough commits to
/// force epoch reclamation of many retired snapshots.
#[test]
fn scripted_stream_hammers_reclamation() {
    let ops: Vec<Op> = (0..40u8)
        .map(|i| (i % 3, i / 3, vec![i % 10, (i / 2) % 10]))
        .collect();
    hammer(&ops, 1);
}
