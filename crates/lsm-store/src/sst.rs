//! Sorted string tables: in-memory functional form plus merge logic.
//!
//! An SST is a sorted run of `(key, value-or-tombstone)` entries. The
//! bytes live "on disk" via the filesystem (which tracks extents and
//! timing); the functional content lives here so reads are exact.
//! Keys are inline [`KeyBuf`]s, so a table is one contiguous array that
//! binary searches and merges walk without chasing a pointer per key.

use kvssd_core::bloom::BloomFilter;
use kvssd_core::hash::key_hash;
use kvssd_core::{KeyBuf, Payload};
use kvssd_host_stack::FileId;

/// One stored version of a key; a `None` value is a tombstone.
pub type Entry = (KeyBuf, Option<Payload>);

/// One table's sorted entries.
#[derive(Debug, Clone)]
pub struct SstData {
    entries: Vec<Entry>,
}

impl SstData {
    /// Builds from entries that must already be sorted and unique.
    pub fn from_sorted(entries: Vec<Entry>) -> Self {
        debug_assert!(entries.windows(2).all(|w| w[0].0 < w[1].0), "unsorted SST");
        SstData { entries }
    }

    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary-searches for a key; `Some(index)` on hit.
    pub fn find(&self, key: &[u8]) -> Option<usize> {
        self.entries
            .binary_search_by(|(k, _)| k.as_slice().cmp(key))
            .ok()
    }

    /// Entry at `idx`.
    pub fn entry(&self, idx: usize) -> (&[u8], Option<&Payload>) {
        let (k, v) = &self.entries[idx];
        (k, v.as_ref())
    }

    /// All entries, in key order.
    pub fn entries(&self) -> &[Entry] {
        &self.entries
    }

    /// The entries with keys `>= from`, in key order.
    pub fn entries_from(&self, from: &[u8]) -> &[Entry] {
        let start = self.entries.partition_point(|(k, _)| k.as_slice() < from);
        &self.entries[start..]
    }

    /// Gives the entries up (compaction consumes its inputs).
    pub fn into_entries(self) -> Vec<Entry> {
        self.entries
    }

    /// Smallest key.
    pub fn min_key(&self) -> &KeyBuf {
        &self.entries.first().expect("nonempty SST").0
    }

    /// Largest key.
    pub fn max_key(&self) -> &KeyBuf {
        &self.entries.last().expect("nonempty SST").0
    }

    /// Total user bytes (keys + live values).
    pub fn user_bytes(&self, overhead: u64) -> u64 {
        self.entries
            .iter()
            .map(|(k, v)| k.len() as u64 + v.as_ref().map_or(0, Payload::len) + overhead)
            .sum()
    }
}

/// Host-memory metadata of one on-disk SST.
#[derive(Debug)]
pub struct SstMeta {
    /// Backing file.
    pub file: FileId,
    /// Encoded size in bytes.
    pub size_bytes: u64,
    /// Entry count.
    pub entries: u64,
    /// Smallest key.
    pub min_key: KeyBuf,
    /// Largest key.
    pub max_key: KeyBuf,
    /// Per-table Bloom filter (filter block, kept cached as RocksDB
    /// pins filter blocks).
    pub bloom: BloomFilter,
}

impl SstMeta {
    /// Builds metadata for `data` backed by `file`.
    pub fn describe(file: FileId, data: &SstData, size_bytes: u64, bloom_bits: u32) -> Self {
        let mut bloom = BloomFilter::new(data.len() as u64, bloom_bits);
        for (k, _) in data.entries() {
            bloom.insert(key_hash(k));
        }
        SstMeta {
            file,
            size_bytes,
            entries: data.len() as u64,
            min_key: data.min_key().clone(),
            max_key: data.max_key().clone(),
            bloom,
        }
    }

    /// True when `key` falls inside this table's key range.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.min_key.as_slice() <= key && key <= self.max_key.as_slice()
    }

    /// True when this table's range overlaps `[lo, hi]`.
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.min_key.as_slice() <= hi && lo <= self.max_key.as_slice()
    }
}

/// Merges sorted runs (newest first) into one sorted stream, dropping
/// shadowed versions: on equal keys the earliest run wins. Tombstones
/// are kept unless `drop_tombstones` (bottom level). Pulls from the
/// runs lazily and moves their entries through, allocating nothing per
/// entry.
pub fn merge_runs<I>(mut runs: Vec<I>, drop_tombstones: bool) -> impl Iterator<Item = Entry>
where
    I: Iterator<Item = Entry>,
{
    let mut heads: Vec<Option<Entry>> = runs.iter_mut().map(Iterator::next).collect();
    std::iter::from_fn(move || loop {
        // Smallest head key; `min_by_key` returns the first of equal
        // minima, which leaves ties with the earliest (newest) run.
        let (run, _) = heads
            .iter()
            .enumerate()
            .filter_map(|(run, head)| Some((run, &head.as_ref()?.0)))
            .min_by_key(|&(_, key)| key)?;
        let (key, value) = std::mem::replace(&mut heads[run], runs[run].next())?;
        // Keys are unique within a run, so each later run holds at most
        // one shadowed version of `key`, and it is at that run's head.
        for (head, later) in heads.iter_mut().zip(&mut runs).skip(run + 1) {
            if head.as_ref().is_some_and(|(k, _)| *k == key) {
                *head = later.next();
            }
        }
        if value.is_some() || !drop_tombstones {
            return Some((key, value));
        }
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn kv(k: &str, v: Option<&str>) -> Entry {
        (
            KeyBuf::new(k.as_bytes()),
            v.map(|s| Payload::from_bytes(s.as_bytes().to_vec())),
        )
    }

    fn sst(pairs: &[(&str, Option<&str>)]) -> SstData {
        SstData::from_sorted(pairs.iter().map(|&(k, v)| kv(k, v)).collect())
    }

    /// The clone-based merge this crate shipped before the consuming
    /// one, kept as the oracle: rescans every run per output entry.
    fn merge_runs_reference(runs: &[&SstData], drop_tombstones: bool) -> Vec<Entry> {
        let mut cursors = vec![0usize; runs.len()];
        let mut out = Vec::new();
        loop {
            // Find the smallest current key; ties resolved to newest run.
            let mut best: Option<(usize, &KeyBuf)> = None;
            for (run, &pos) in cursors.iter().enumerate() {
                let Some((k, _)) = runs[run].entries().get(pos) else {
                    continue;
                };
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((run, k));
                }
            }
            let Some((winner, key)) = best else { break };
            let key = key.clone();
            let (_, v) = &runs[winner].entries()[cursors[winner]];
            if !(drop_tombstones && v.is_none()) {
                out.push((key.clone(), v.clone()));
            }
            // Advance every run past this key.
            for (run, pos) in cursors.iter_mut().enumerate() {
                while runs[run]
                    .entries()
                    .get(*pos)
                    .is_some_and(|(k, _)| *k == key)
                {
                    *pos += 1;
                }
            }
        }
        out
    }

    /// Runs the consuming merge over clones of `runs` (each run a chain
    /// of tables) and checks it against the oracle, which sees each
    /// chain as one concatenated table.
    fn merge_checked(runs: &[&[&SstData]], drop_tombstones: bool) -> Vec<Entry> {
        let consuming: Vec<_> = runs
            .iter()
            .map(|chain| {
                let tables: Vec<SstData> = chain.iter().map(|&t| t.clone()).collect();
                tables.into_iter().flat_map(SstData::into_entries)
            })
            .collect();
        let got: Vec<Entry> = merge_runs(consuming, drop_tombstones).collect();
        let flat: Vec<SstData> = runs
            .iter()
            .map(|chain| {
                SstData::from_sorted(chain.iter().flat_map(|t| t.entries().to_vec()).collect())
            })
            .collect();
        let want = merge_runs_reference(&flat.iter().collect::<Vec<_>>(), drop_tombstones);
        assert_eq!(got, want);
        got
    }

    fn keys(entries: &[Entry]) -> Vec<&[u8]> {
        entries.iter().map(|(k, _)| k.as_slice()).collect()
    }

    fn value(entries: &[Entry], key: &str) -> Option<Vec<u8>> {
        let (_, v) = entries
            .iter()
            .find(|(k, _)| k.as_slice() == key.as_bytes())?;
        Some(v.as_ref()?.as_bytes().unwrap().to_vec())
    }

    #[test]
    fn find_and_entry() {
        let s = sst(&[("a", Some("1")), ("c", Some("3"))]);
        assert_eq!(s.find(b"a"), Some(0));
        assert_eq!(s.find(b"b"), None);
        let (k, v) = s.entry(1);
        assert_eq!(k, b"c");
        assert_eq!(v.unwrap().as_bytes().unwrap(), b"3");
    }

    #[test]
    fn entries_from_starts_at_the_first_key_not_below() {
        let s = sst(&[("a", Some("1")), ("c", Some("3")), ("e", Some("5"))]);
        assert_eq!(keys(s.entries_from(b"")), vec![&b"a"[..], b"c", b"e"]);
        assert_eq!(keys(s.entries_from(b"c")), vec![&b"c"[..], b"e"]);
        assert_eq!(keys(s.entries_from(b"d")), vec![&b"e"[..]]);
        assert!(s.entries_from(b"f").is_empty());
    }

    #[test]
    fn meta_covers_and_overlaps() {
        let s = sst(&[("b", Some("1")), ("f", Some("2"))]);
        let m = SstMeta::describe(FileId(1), &s, 100, 10);
        assert!(m.covers(b"d"));
        assert!(!m.covers(b"a"));
        assert!(m.overlaps(b"a", b"c"));
        assert!(!m.overlaps(b"g", b"z"));
        assert_eq!(m.entries, 2);
    }

    #[test]
    fn bloom_rejects_absent_keys() {
        let s = sst(&[("key1", Some("v")), ("key2", Some("v"))]);
        let m = SstMeta::describe(FileId(1), &s, 100, 10);
        assert!(m.bloom.may_contain(key_hash(b"key1")));
        // Absent keys are almost always rejected.
        let rejected = (0..100)
            .filter(|i| !m.bloom.may_contain(key_hash(format!("zz{i}").as_bytes())))
            .count();
        assert!(rejected > 90);
    }

    #[test]
    fn merge_newest_wins() {
        let newer = sst(&[("a", Some("new")), ("b", Some("b1"))]);
        let older = sst(&[("a", Some("old")), ("c", Some("c1"))]);
        let merged = merge_checked(&[&[&newer], &[&older]], false);
        assert_eq!(merged.len(), 3);
        assert_eq!(
            value(&merged, "a").unwrap(),
            b"new",
            "newer run must shadow older"
        );
    }

    #[test]
    fn merge_keeps_or_drops_tombstones() {
        let newer = sst(&[("a", None)]);
        let older = sst(&[("a", Some("old")), ("b", Some("b1"))]);
        let kept = merge_checked(&[&[&newer], &[&older]], false);
        assert_eq!(kept.len(), 2);
        assert!(kept[0].1.is_none(), "tombstone shadows older value");
        let dropped = merge_checked(&[&[&newer], &[&older]], true);
        assert_eq!(keys(&dropped), vec![&b"b"[..]]);
    }

    #[test]
    fn merge_of_disjoint_runs_concatenates() {
        let a = sst(&[("a", Some("1")), ("b", Some("2"))]);
        let b = sst(&[("x", Some("3")), ("y", Some("4"))]);
        let merged = merge_checked(&[&[&a], &[&b]], false);
        assert_eq!(keys(&merged), vec![&b"a"[..], b"b", b"x", b"y"]);
    }

    #[test]
    fn merge_of_four_overlapping_runs_lets_the_earliest_run_win_ties() {
        // "k" is in r0, r1 and r3 (three-way tie), "m" in r1, r2, r3;
        // "d": a tombstone over a value; "v": a value over a tombstone.
        let r0 = sst(&[("d", None), ("k", Some("k0")), ("v", Some("v0"))]);
        let r1 = sst(&[("b", Some("b1")), ("k", Some("k1")), ("m", Some("m1"))]);
        let r2 = sst(&[("d", Some("d2")), ("m", Some("m2")), ("z", None)]);
        let r3 = sst(&[
            ("a", Some("a3")),
            ("k", Some("k3")),
            ("m", None),
            ("v", None),
        ]);
        let empty = sst(&[]);
        let runs: [&[&SstData]; 6] = [&[&r0], &[&empty], &[&r1], &[&r2], &[], &[&r3]];
        let kept = merge_checked(&runs, false);
        assert_eq!(
            keys(&kept),
            vec![&b"a"[..], b"b", b"d", b"k", b"m", b"v", b"z"]
        );
        assert_eq!(value(&kept, "k").unwrap(), b"k0");
        assert_eq!(value(&kept, "m").unwrap(), b"m1");
        assert_eq!(value(&kept, "d"), None, "tombstone over value");
        assert_eq!(value(&kept, "v").unwrap(), b"v0", "value over tombstone");
        let dropped = merge_checked(&runs, true);
        assert_eq!(keys(&dropped), vec![&b"a"[..], b"b", b"k", b"m", b"v"]);
    }

    #[test]
    fn merge_walks_a_chain_of_disjoint_tables_as_one_run() {
        // The destination level: three disjoint, key-ordered files.
        let d0 = sst(&[("a", Some("a-old")), ("c", Some("c-old"))]);
        let d1 = sst(&[("f", Some("f-old")), ("h", None)]);
        let d2 = sst(&[("p", Some("p-old")), ("q", Some("q-old"))]);
        let newest = sst(&[("c", None), ("g", Some("g-new")), ("q", Some("q-new"))]);
        let newer = sst(&[("c", Some("c-mid")), ("f", Some("f-mid")), ("z", Some("z"))]);
        let runs: [&[&SstData]; 3] = [&[&newest], &[&newer], &[&d0, &d1, &d2]];
        let kept = merge_checked(&runs, false);
        assert_eq!(
            keys(&kept),
            vec![&b"a"[..], b"c", b"f", b"g", b"h", b"p", b"q", b"z"]
        );
        assert_eq!(value(&kept, "c"), None);
        assert_eq!(value(&kept, "f").unwrap(), b"f-mid");
        assert_eq!(value(&kept, "q").unwrap(), b"q-new");
        let dropped = merge_checked(&runs, true);
        assert_eq!(
            keys(&dropped),
            vec![&b"a"[..], b"f", b"g", b"p", b"q", b"z"]
        );
    }

    #[test]
    fn merge_of_nothing_is_empty() {
        assert!(merge_checked(&[], false).is_empty());
        assert!(merge_checked(&[&[], &[&sst(&[])]], true).is_empty());
    }

    #[test]
    fn user_bytes_counts_live_data() {
        let s = sst(&[("aa", Some("xyz")), ("bb", None)]);
        // 2+3 + 2+0 user, plus 2 * overhead.
        assert_eq!(s.user_bytes(10), 2 + 3 + 2 + 20);
    }
}
