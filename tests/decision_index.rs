//! Property tests for the delta-aware decision structures: the ordered
//! weight index ([`OrderedWeightIndex`]) against a naive re-sort
//! reference, over random insert / remove / re-weight sequences.
//!
//! The index's contracts (the decision stage leans on all of them):
//!
//! * the key order is `(weight rank bits, u, v)` — descending weight with
//!   f64-*bit* granularity, `-0.0` folded onto `+0.0`, ascending `(u, v)`
//!   among bit-exact ties — identical to batch CEP's sort order;
//! * `select(K-1)` is batch CEP's cutoff **including the tie-break at the
//!   rank-K boundary** (duplicate weights cut mid-tie by `(u, v)`);
//! * the running Σw is exact, so WEP's mean is bit-identical to the batch
//!   accumulator whatever mutation history produced the live edge set;
//! * `for_each_between(old, new)` enumerates exactly the edges whose
//!   mean-threshold retention flips when Θ moves.

use blast_graph::exact_sum::ExactSum;
use blast_graph::pruning::common::weight_rank_bits;
use blast_graph::pruning::{Cep, Wep};
use blast_incremental::{EdgeKey, OrderedWeightIndex};
use proptest::prelude::*;

/// One scripted mutation over a bounded pair universe: `kind % 3` selects
/// insert / remove / re-weight, `(a, b)` the pair, `w` the weight in
/// quarter steps (plenty of duplicates).
type Op = (u8, u8, u8, u8);

/// Applies ops to the index and a naive mirror, returning the mirror as
/// the live edge list (canonical pairs, unsorted).
fn drive(ops: &[Op], idx: &mut OrderedWeightIndex) -> Vec<(u32, u32, f64)> {
    let mut live: Vec<(u32, u32, f64)> = Vec::new();
    for &(kind, a, b, w) in ops {
        let (a, b) = (a as u32 % 12, b as u32 % 12);
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        let w = w as f64 / 4.0;
        let pos = live.iter().position(|&(x, y, _)| (x, y) == (a, b));
        match (kind % 3, pos) {
            (0, None) => {
                idx.insert(a, b, w);
                live.push((a, b, w));
            }
            (1, Some(i)) => {
                let (_, _, old) = live.swap_remove(i);
                idx.remove(a, b, old);
            }
            (2, Some(i)) => {
                let old = live[i].2;
                idx.remove(a, b, old);
                idx.insert(a, b, w);
                live[i].2 = w;
            }
            _ => {}
        }
    }
    live
}

/// Signed quarter-step weights with an explicit `-0.0` (w = 1), so
/// duplicate-weight and signed-zero ties are routine, not rare.
fn signed_quarter(w: u8) -> f64 {
    if w == 1 {
        -0.0
    } else {
        (w as f64 - 8.0) / 4.0
    }
}

/// [`drive`] with [`signed_quarter`] weights, mutating `live` in place —
/// the driver of the bulk-vs-incremental construction property.
fn apply_signed(ops: &[Op], idx: &mut OrderedWeightIndex, live: &mut Vec<(u32, u32, f64)>) {
    for &(kind, a, b, w) in ops {
        let (a, b) = (a as u32 % 12, b as u32 % 12);
        if a == b {
            continue;
        }
        let (a, b) = (a.min(b), a.max(b));
        let w = signed_quarter(w);
        let pos = live.iter().position(|&(x, y, _)| (x, y) == (a, b));
        match (kind % 3, pos) {
            (0, None) => {
                idx.insert(a, b, w);
                live.push((a, b, w));
            }
            (1, Some(i)) => {
                let (_, _, old) = live.swap_remove(i);
                idx.remove(a, b, old);
            }
            (2, Some(i)) => {
                let old = live[i].2;
                idx.remove(a, b, old);
                idx.insert(a, b, w);
                live[i].2 = w;
            }
            _ => {}
        }
    }
}

fn drive_signed(ops: &[Op], idx: &mut OrderedWeightIndex) -> Vec<(u32, u32, f64)> {
    let mut live = Vec::new();
    apply_signed(ops, idx, &mut live);
    live
}

/// The pre-order `(key, weight bits)` fingerprint: a BST's pre-order
/// determines its structure, so equal fingerprints mean equal trees.
fn shape(idx: &OrderedWeightIndex) -> Vec<(EdgeKey, u64)> {
    let mut v = Vec::new();
    idx.for_each_preorder(&mut |k, w| v.push((k, w.to_bits())));
    v
}

/// The naive reference ranking: weight descending (bit-exact through the
/// rank map), then ascending `(u, v)` — a full re-sort per query, the cost
/// the index exists to avoid.
fn reference_order(live: &[(u32, u32, f64)]) -> Vec<(u32, u32, f64)> {
    let mut sorted = live.to_vec();
    sorted.sort_by_key(|&(u, v, w)| (weight_rank_bits(w), u, v));
    sorted
}

proptest! {
    #![proptest_config(ProptestConfig::with_cases(64))]

    /// Order statistics and the running exact sum match the re-sort
    /// reference after any mutation history.
    #[test]
    fn prop_select_and_sum_match_resort_reference(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..12), 0..60),
    ) {
        let mut idx = OrderedWeightIndex::new();
        let live = drive(&ops, &mut idx);
        let sorted = reference_order(&live);

        prop_assert_eq!(idx.len(), live.len());
        for (rank, &(u, v, w)) in sorted.iter().enumerate() {
            let key = idx.select(rank).expect("rank within len");
            prop_assert_eq!((key.u, key.v), (u, v), "rank {}", rank);
            prop_assert_eq!(key.rank, weight_rank_bits(w));
            prop_assert_eq!(idx.prefix_len(key), rank + 1);
        }
        prop_assert_eq!(idx.select(live.len()), None);

        // Σw bit-identical to a from-scratch exact accumulation of the
        // survivors — the WEP-mean contract.
        let fresh = ExactSum::of(live.iter().map(|&(_, _, w)| w));
        prop_assert_eq!(idx.sum().round().to_bits(), fresh.round().to_bits());
        prop_assert_eq!(
            Wep::mean_from_sum(idx.sum(), idx.len()).map(f64::to_bits),
            Wep::mean_from_sum(&fresh, live.len()).map(f64::to_bits),
        );
    }

    /// The rank-K prefix equals batch CEP bit-for-bit, for every K — the
    /// tie-break at the rank-K boundary included (quarter-step weights
    /// guarantee the boundary regularly cuts through duplicate weights).
    #[test]
    fn prop_rank_k_prefix_is_batch_cep(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..8), 0..50),
    ) {
        let mut idx = OrderedWeightIndex::new();
        let live = drive(&ops, &mut idx);
        // Batch CEP consumes the canonical (u, v)-sorted edge list.
        let mut edges = live.clone();
        edges.sort_unstable_by_key(|&(u, v, _)| (u, v));
        for k in 0..=live.len() + 1 {
            let frontier = if k == 0 {
                None
            } else {
                idx.select(k.min(idx.len()).wrapping_sub(1))
            };
            let incremental = idx.prefix_pairs(frontier);
            let batch = Cep::prune_edges(k as u64, &edges);
            prop_assert_eq!(
                incremental.pairs(),
                batch.pairs(),
                "rank-{} prefix diverged from batch CEP",
                k
            );
        }
    }

    /// The bulk from-sorted-array construction ([`OrderedWeightIndex::rebuild`])
    /// is **bit-identical** to insert-by-insert construction: same shape
    /// (pre-order fingerprint), same traversal order, same exact Σw —
    /// across random mutation histories with duplicate weights (quarter
    /// steps), negative weights and `-0.0` ties, and whatever the live
    /// list's arrival order, at every thread count of the Σw reduction.
    /// The two indexes also stay interchangeable under further mutation
    /// (the rebuild leaves no stale free-list or size state behind).
    #[test]
    fn prop_bulk_rebuild_matches_incremental_construction(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..60),
        extra in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..16), 0..12),
    ) {
        let mut inc = OrderedWeightIndex::new();
        let live = drive_signed(&ops, &mut inc);
        for threads in [1usize, 2, 8] {
            let mut bulk = OrderedWeightIndex::new();
            // The live list arrives in mutation order, not key order — the
            // rebuild owns the sort.
            bulk.rebuild(live.iter().copied(), threads);
            prop_assert_eq!(bulk.len(), inc.len());
            prop_assert_eq!(shape(&bulk), shape(&inc), "pre-order fingerprint, threads={}", threads);
            prop_assert_eq!(
                bulk.sum().round().to_bits(),
                inc.sum().round().to_bits(),
                "exact Σw, threads={}",
                threads
            );
        }
        let mut bulk = OrderedWeightIndex::new();
        bulk.rebuild(live.iter().copied(), 1);

        // Further mutations on top of both constructions converge too.
        let mut live_inc = live.clone();
        apply_signed(&extra, &mut inc, &mut live_inc);
        let mut live_bulk = live;
        apply_signed(&extra, &mut bulk, &mut live_bulk);
        prop_assert_eq!(shape(&bulk), shape(&inc), "post-rebuild mutation");
        prop_assert_eq!(bulk.sum().round().to_bits(), inc.sum().round().to_bits());
    }

    /// Mean-threshold crossing enumeration: when Θ moves from θ_old to
    /// θ_new, `for_each_between` yields exactly the edges whose `w ≥ Θ`
    /// retention flips — no clean survivor, no non-crosser.
    #[test]
    fn prop_band_enumerates_exact_mean_crossers(
        ops in proptest::collection::vec(
            (0u8..3, 0u8..255, 0u8..255, 0u8..12), 1..50),
        theta_old in 0u8..14,
        theta_new in 0u8..14,
    ) {
        let mut idx = OrderedWeightIndex::new();
        let live = drive(&ops, &mut idx);
        let (theta_old, theta_new) = (theta_old as f64 / 4.0, theta_new as f64 / 4.0);
        let f_old = Some(EdgeKey::mean_bound(theta_old));
        let f_new = Some(EdgeKey::mean_bound(theta_new));

        let mut band: Vec<(u32, u32)> = Vec::new();
        if f_old != f_new {
            let lo = f_old.min(f_new);
            if let Some(hi) = f_old.max(f_new) {
                idx.for_each_between(lo, hi, &mut |key, w| {
                    let was = Wep::retains(w, theta_old);
                    let now = Wep::retains(w, theta_new);
                    if was != now {
                        band.push((key.u, key.v));
                    }
                });
            }
        }
        band.sort_unstable();

        let mut naive: Vec<(u32, u32)> = live
            .iter()
            .filter(|&&(_, _, w)| Wep::retains(w, theta_old) != Wep::retains(w, theta_new))
            .map(|&(u, v, _)| (u, v))
            .collect();
        naive.sort_unstable();
        prop_assert_eq!(band, naive);
    }
}

/// The bulk construction's tie handling pinned deterministically:
/// duplicate weights and `-0.0`/`+0.0` ties produce the exact tree the
/// insert path produces, and the rebuilt index answers order-statistic
/// queries identically.
#[test]
fn bulk_rebuild_pins_duplicate_and_signed_zero_ties() {
    let edges = [
        (5, 6, 0.0),
        (0, 1, -0.0),
        (2, 3, 0.0),
        (7, 8, -1.0),
        (4, 9, 1.0),
        (1, 2, 1.0),
        (3, 7, -0.0),
    ];
    let mut inc = OrderedWeightIndex::new();
    for &(u, v, w) in &edges {
        inc.insert(u, v, w);
    }
    let mut bulk = OrderedWeightIndex::new();
    bulk.rebuild(edges.iter().copied(), 1);
    assert_eq!(shape(&bulk), shape(&inc), "tie-ridden shapes agree");
    for rank in 0..=edges.len() {
        assert_eq!(bulk.select(rank), inc.select(rank), "rank {rank}");
    }
    assert_eq!(bulk.sum().round().to_bits(), inc.sum().round().to_bits());
    let mut empty = OrderedWeightIndex::new();
    empty.rebuild(std::iter::empty(), 1);
    assert_eq!(empty.len(), 0);
    assert_eq!(empty.select(0), None);
}

/// A rebuild large enough to split the Σw reduction into several chunks:
/// the tree shape and the exact Σw are bit-identical at 1, 2 and 8
/// threads, and Σw equals one serial accumulator over the same weights.
#[test]
fn bulk_rebuild_is_identical_across_thread_counts() {
    // Weights spanning 60 orders of magnitude, so a naive chunked f64 sum
    // would depend on the split.
    let edges: Vec<(u32, u32, f64)> = (0..150_000u32)
        .map(|i| {
            let w = ((i * 37 + 11) as f64).sin() * 10f64.powi((i % 61) as i32 - 30);
            (i / 400, 400 + i, w)
        })
        .collect();
    let serial = ExactSum::of(edges.iter().map(|&(_, _, w)| w));
    let mut reference: Option<Vec<(EdgeKey, u64)>> = None;
    for threads in [1usize, 2, 8] {
        let mut idx = OrderedWeightIndex::new();
        idx.rebuild(edges.iter().copied(), threads);
        assert_eq!(idx.len(), edges.len());
        assert_eq!(
            idx.sum().round().to_bits(),
            serial.round().to_bits(),
            "exact Σw, threads={threads}"
        );
        let s = shape(&idx);
        match &reference {
            None => reference = Some(s),
            Some(r) => assert!(*r == s, "tree shape differs at threads={threads}"),
        }
    }
}

/// f64-bit ordering corner cases pinned deterministically: duplicate
/// weights cut by `(u, v)`, `-0.0` ties with `+0.0`, subnormals and
/// negative weights ordered correctly.
#[test]
fn bit_order_corner_cases() {
    let mut idx = OrderedWeightIndex::new();
    idx.insert(5, 6, 0.0);
    idx.insert(0, 1, -0.0);
    idx.insert(2, 3, f64::from_bits(1)); // smallest subnormal
    idx.insert(7, 8, -1.0);
    idx.insert(4, 9, 1.0);

    let order: Vec<(u32, u32)> = (0..idx.len())
        .map(|r| idx.select(r).map(|k| (k.u, k.v)).unwrap())
        .collect();
    // 1.0 first, then the subnormal, then the two zeros tied (−0.0
    // normalised, so (0,1) precedes (5,6) by pair order), then −1.0.
    assert_eq!(order, vec![(4, 9), (2, 3), (0, 1), (5, 6), (7, 8)]);

    // A frontier at the K=3 boundary cuts through the zero tie exactly
    // like batch CEP's (u, v) tie-break.
    let frontier = idx.select(2);
    assert_eq!(frontier.map(|k| (k.u, k.v)), Some((0, 1)));
    let retained = idx.prefix_pairs(frontier);
    assert_eq!(retained.len(), 3);
    assert!(!retained.contains(
        blast_datamodel::entity::ProfileId(5),
        blast_datamodel::entity::ProfileId(6)
    ));
}
