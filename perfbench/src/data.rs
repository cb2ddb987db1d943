//! Workload inputs, generated in-process.
//!
//! The collection itself is the preset's (its fixed generator seed), and
//! so is the split into rows the set-up bulk-loads and rows that stream;
//! the run's `--seed` permutes the rows within each part (within each
//! source for clean-clean), which decides the ingest order, the grouping
//! into micro-batches and the ids the reader asks for. Regenerating the
//! collection per seed instead moved PQ by up to a quarter between seeds
//! at these sizes, wider than any regression bound.
//!
//! The generator's collections are flattened into plain rows (source,
//! external id, attribute name/value pairs) and the generator's own
//! structures are dropped, so the library under test only ever sees the
//! rows, fed through its public loading and insert calls.

use blast_datagen::{
    clean_clean_preset, dirty_preset, generate_clean_clean, generate_dirty, CleanCleanPreset,
    DirtyPreset,
};
use blast_datamodel::collection::EntityCollection;
use blast_datamodel::entity::{ProfileId, SourceId};
use blast_datamodel::ground_truth::GroundTruth;
use blast_datamodel::input::ErInput;

/// One generated profile.
#[derive(Debug, Clone)]
pub struct Row {
    pub source: u8,
    pub external_id: String,
    pub values: Vec<(String, String)>,
}

impl Row {
    /// The `(attribute, value)` pairs as borrowed strings.
    pub fn pairs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.values.iter().map(|(a, v)| (a.as_str(), v.as_str()))
    }
}

/// A generated collection: rows in ingest order plus the generator's
/// ground truth over the rows' positions.
#[derive(Debug)]
pub struct Dataset {
    pub rows: Vec<Row>,
    pub gt: GroundTruth,
}

/// A census100k-shaped dirty collection (the preset's vocabulary and
/// generator seed, scaled to `profiles` rows). The first `head` rows and
/// the rest are each shuffled by `seed`; which rows fall in each part is
/// fixed.
pub fn census100k(profiles: usize, head: usize, seed: u64) -> Dataset {
    let mut spec = dirty_preset(DirtyPreset::Census100k);
    // The preset's duplication rate (0.7 entities per profile) at exactly
    // `profiles` rows.
    spec.entities = profiles * spec.entities / spec.profiles;
    spec.profiles = profiles;
    let (input, gt) = generate_dirty(&spec);
    shuffled(flatten(&input), &gt, &[head], seed)
}

/// The clean-clean dbp preset at full size, each source's rows shuffled
/// by `seed`.
pub fn dbp(seed: u64) -> Dataset {
    let (input, gt) = generate_clean_clean(&clean_clean_preset(CleanCleanPreset::DbpScaled));
    let separator = input.separator() as usize;
    shuffled(flatten(&input), &gt, &[separator], seed)
}

/// Permutes rows within each segment between the `cuts` (so clean-clean
/// sources keep their order and separator) and relabels the ground truth.
fn shuffled(rows: Vec<Row>, gt: &GroundTruth, cuts: &[usize], seed: u64) -> Dataset {
    let mut rng = SplitMix64(seed);
    let mut order: Vec<usize> = (0..rows.len()).collect();
    let mut start = 0;
    for end in cuts.iter().copied().chain([rows.len()]) {
        let segment = &mut order[start..end];
        for i in (1..segment.len()).rev() {
            let j = (rng.next() % (i as u64 + 1)) as usize;
            segment.swap(i, j);
        }
        start = end;
    }
    let mut position = vec![0u32; rows.len()];
    for (new, &old) in order.iter().enumerate() {
        position[old] = new as u32;
    }
    let gt = gt
        .iter()
        .map(|(a, b)| {
            (
                ProfileId(position[a.index()]),
                ProfileId(position[b.index()]),
            )
        })
        .collect();
    let mut slots: Vec<Option<Row>> = rows.into_iter().map(Some).collect();
    let rows = order
        .iter()
        .map(|&old| slots[old].take().expect("each row moves once"))
        .collect();
    Dataset { rows, gt }
}

/// A small deterministic generator (SplitMix64).
pub struct SplitMix64(pub u64);

impl SplitMix64 {
    /// The next 64 random bits.
    pub fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }
}

fn flatten(input: &ErInput) -> Vec<Row> {
    input
        .iter_profiles()
        .map(|(_, source, profile)| {
            let collection = input.collection(source);
            Row {
                source: source.0,
                external_id: profile.external_id.to_string(),
                values: profile
                    .values
                    .iter()
                    .map(|(a, v)| (collection.attribute_name(*a).to_string(), v.to_string()))
                    .collect(),
            }
        })
        .collect()
}

/// Loads rows into the library's batch input: one collection per source,
/// profiles in row order (so global ids equal row positions).
pub fn load(rows: &[Row]) -> ErInput {
    let mut d1 = EntityCollection::new(SourceId(0));
    let mut d2 = EntityCollection::new(SourceId(1));
    for row in rows {
        let target = if row.source == 0 { &mut d1 } else { &mut d2 };
        target.push_pairs(&row.external_id, row.pairs());
    }
    if d2.is_empty() {
        ErInput::dirty(d1)
    } else {
        ErInput::clean_clean(d1, d2)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn row(source: u8, id: &str) -> Row {
        Row {
            source,
            external_id: id.to_string(),
            values: Vec::new(),
        }
    }

    #[test]
    fn shuffle_keeps_segments_in_order_and_relabels_ground_truth() {
        let rows = vec![
            row(0, "a"),
            row(0, "b"),
            row(0, "c"),
            row(1, "x"),
            row(1, "y"),
        ];
        let gt: GroundTruth = [(ProfileId(0), ProfileId(4)), (ProfileId(2), ProfileId(3))]
            .into_iter()
            .collect();
        let ds = shuffled(rows, &gt, &[3], 7);
        let sources: Vec<u8> = ds.rows.iter().map(|r| r.source).collect();
        assert_eq!(sources, [0, 0, 0, 1, 1]);
        let at = |ext: &str| {
            ProfileId(ds.rows.iter().position(|r| r.external_id == ext).unwrap() as u32)
        };
        assert!(ds.gt.is_match(at("a"), at("y")));
        assert!(ds.gt.is_match(at("c"), at("x")));
        assert_eq!(ds.gt.len(), 2);
    }
}
