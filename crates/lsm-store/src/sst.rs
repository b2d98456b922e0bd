//! Sorted string tables: in-memory functional form, the merge and the
//! table builder.
//!
//! An SST is a sorted run of `(key, value-or-tombstone)` entries. The
//! bytes live "on disk" via the filesystem (which tracks extents and
//! timing); the functional content lives here so reads are exact.
//! Keys are inline [`KeyBuf`]s, so a table is one contiguous array that
//! binary searches and merges walk without chasing a pointer per key.
//!
//! A point lookup searches a parallel array of 8-byte *windows*: the
//! bytes of each key just past the prefix every key of the table
//! shares, big-endian and zero-padded. Key order implies window order
//! (a zero pad sorts like the end of a key), so the search compares one
//! `u64` per step and reads a whole key only where windows tie. The
//! merge orders run heads the same way, by their first 16 key bytes.
//!
//! Flushes and compactions build every table through one
//! `TableBuilder`: it sums the table's size as the entries arrive, and
//! fills the windows and the Bloom filter from the keys in one pass when
//! the table is finished. Its buffers are those of the tables compaction
//! consumed, so a store at steady state seldom allocates.

use std::cmp::Ordering;
use std::collections::VecDeque;

use kvssd_core::bloom::BloomFilter;
use kvssd_core::hash::key_hash;
use kvssd_core::{KeyBuf, Payload};
use kvssd_host_stack::FileId;

/// One stored version of a key.
#[derive(Debug, Clone, PartialEq)]
pub struct Entry {
    /// The key.
    pub key: KeyBuf,
    /// The value; `None` is a tombstone.
    pub value: Option<Payload>,
}

// Every stored version pays for each byte here (ROADMAP item 18(d)).
const _: () = assert!(size_of::<Entry>() <= 40);

/// One table's sorted entries.
#[derive(Debug, Clone)]
pub struct SstData {
    entries: Vec<Entry>,
    /// Length of the prefix every key shares.
    prefix_len: usize,
    /// Each key's window: its 8 bytes after the prefix.
    windows: Vec<u64>,
}

/// The first 8 bytes of `rest`, big-endian, zero-padded.
fn window(rest: &[u8]) -> u64 {
    if let Some(head) = rest.first_chunk() {
        return u64::from_be_bytes(*head);
    }
    let mut bytes = [0u8; 8];
    for (b, &k) in bytes.iter_mut().zip(rest) {
        *b = k;
    }
    u64::from_be_bytes(bytes)
}

impl SstData {
    /// Number of entries.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Binary-searches for a key by window, comparing whole keys only
    /// where windows tie; `Some(index)` on hit. A key without the
    /// table's shared prefix is in no entry, so it is answered without
    /// a search.
    pub fn find(&self, key: &[u8]) -> Option<usize> {
        let first = &self.entries.first()?.key;
        let rest = key.strip_prefix(first.get(..self.prefix_len)?)?;
        let want = window(rest);
        let (mut lo, mut hi) = (0, self.entries.len());
        while lo < hi {
            let mid = lo + (hi - lo) / 2;
            let order = match self.windows.get(mid)?.cmp(&want) {
                Ordering::Equal => self.entries.get(mid)?.key.as_slice().cmp(key),
                order => order,
            };
            match order {
                Ordering::Less => lo = mid + 1,
                Ordering::Greater => hi = mid,
                Ordering::Equal => return Some(mid),
            }
        }
        None
    }

    /// Entry at `idx`.
    pub fn entry(&self, idx: usize) -> (&[u8], Option<&Payload>) {
        let e = &self.entries[idx];
        (&e.key, e.value.as_ref())
    }

    /// The entries with keys `>= from`, in key order.
    pub fn entries_from(&self, from: &[u8]) -> &[Entry] {
        let start = self.entries.partition_point(|e| e.key.as_slice() < from);
        &self.entries[start..]
    }
}

/// One on-disk SST: its host-memory metadata and its entries.
#[derive(Debug, Clone)]
pub struct SstMeta {
    /// Backing file.
    pub file: FileId,
    /// Encoded size in bytes.
    pub size_bytes: u64,
    /// Smallest key.
    pub min_key: KeyBuf,
    /// Largest key.
    pub max_key: KeyBuf,
    /// Per-table Bloom filter (filter block, kept cached as RocksDB
    /// pins filter blocks).
    pub bloom: BloomFilter,
    /// The table's entries.
    pub data: SstData,
}

impl SstMeta {
    /// True when `key` falls inside this table's key range.
    pub fn covers(&self, key: &[u8]) -> bool {
        self.min_key.as_slice() <= key && key <= self.max_key.as_slice()
    }

    /// True when this table's range overlaps `[lo, hi]`.
    pub fn overlaps(&self, lo: &[u8], hi: &[u8]) -> bool {
        self.min_key.as_slice() <= hi && lo <= self.max_key.as_slice()
    }
}

/// Spare buffers each of [`TableBuilder`]'s lists keeps at most.
const SPARE_BUFFERS: usize = 8;

/// Takes the smallest spare buffer that holds `want` elements, unless
/// it is more than twice that: a small table keeps no large buffer.
/// Otherwise allocates one of exactly `want`.
fn take_spare<T>(spares: &mut Vec<Vec<T>>, want: usize) -> Vec<T> {
    let fits = spares
        .iter()
        .enumerate()
        .filter(|(_, buf)| buf.capacity() >= want);
    match fits.min_by_key(|(_, buf)| buf.capacity()) {
        Some((i, buf)) if buf.capacity() <= want.saturating_mul(2) => spares.swap_remove(i),
        _ => Vec::with_capacity(want),
    }
}

/// Keeps `buf`, cleared, for a later [`take_spare`]. A full list keeps
/// its larger buffers.
fn put_spare<T>(spares: &mut Vec<Vec<T>>, mut buf: Vec<T>) {
    buf.clear();
    if buf.capacity() == 0 {
        return;
    }
    if spares.len() < SPARE_BUFFERS {
        spares.push(buf);
    } else if let Some(smallest) = spares.iter_mut().min_by_key(|b| b.capacity()) {
        if smallest.capacity() < buf.capacity() {
            *smallest = buf;
        }
    }
}

/// An entry's encoded size: key, live value and `overhead`.
fn encoded_bytes(entry: &Entry, overhead: u64) -> u64 {
    entry.key.len() as u64 + entry.value.as_ref().map_or(0, Payload::len) + overhead
}

/// Builds tables one at a time, from recycled buffers (see module docs).
/// Entries arrive in key order through [`Self::push`] or, for a flushed
/// memtable, all at once through [`Self::adopt`]; [`Self::finish`] turns
/// them into a table. Compaction hands the buffers of every table it
/// consumed back through [`Self::recycle`].
#[derive(Debug)]
pub(crate) struct TableBuilder {
    overhead: u64,
    bloom_bits: u32,
    /// The table being built.
    entries: Vec<Entry>,
    /// Encoded size of `entries`.
    size_bytes: u64,
    /// Entries of the largest table built so far.
    largest: usize,
    spare_entries: Vec<Vec<Entry>>,
    spare_windows: Vec<Vec<u64>>,
    spare_blooms: Vec<Vec<u64>>,
    spare_lists: Vec<Vec<SstMeta>>,
}

impl TableBuilder {
    /// A builder charging `overhead` encoded bytes per entry, whose
    /// tables get `bloom_bits` Bloom bits per key.
    pub fn new(overhead: u64, bloom_bits: u32) -> Self {
        TableBuilder {
            overhead,
            bloom_bits,
            entries: Vec::new(),
            size_bytes: 0,
            largest: 0,
            spare_entries: Vec::with_capacity(SPARE_BUFFERS),
            spare_windows: Vec::with_capacity(SPARE_BUFFERS),
            spare_blooms: Vec::with_capacity(SPARE_BUFFERS),
            spare_lists: Vec::with_capacity(SPARE_BUFFERS),
        }
    }

    /// Entries of the table being built.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no table is being built.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// Encoded size of the table being built.
    pub fn size_bytes(&self) -> u64 {
        self.size_bytes
    }

    /// Adds the next entry (keys strictly ascending) to the table being
    /// built; returns the table's encoded size so far.
    pub fn push(&mut self, entry: Entry) -> u64 {
        if self.entries.capacity() == 0 {
            self.entries = take_spare(&mut self.spare_entries, self.largest);
        }
        self.size_bytes += encoded_bytes(&entry, self.overhead);
        self.entries.push(entry);
        self.size_bytes
    }

    /// Starts a table from a whole sorted run, `entries` (a flushed
    /// memtable), without moving it.
    pub fn adopt(&mut self, entries: Vec<Entry>) {
        debug_assert!(self.is_empty(), "adopt while a table is being built");
        let spare = std::mem::replace(&mut self.entries, entries);
        put_spare(&mut self.spare_entries, spare);
        for entry in &self.entries {
            self.size_bytes += encoded_bytes(entry, self.overhead);
        }
    }

    /// Finishes the table being built as `file`'s, filling its windows
    /// and its Bloom filter, and leaves the builder empty. `None` when
    /// no table is being built.
    pub fn finish(&mut self, file: FileId) -> Option<SstMeta> {
        let entries = std::mem::take(&mut self.entries);
        debug_assert!(
            entries.windows(2).all(|w| w[0].key < w[1].key),
            "unsorted SST"
        );
        // Sorted, so the first and last keys share the shortest prefix.
        let (min_key, max_key) = match (entries.first(), entries.last()) {
            (Some(lo), Some(hi)) => (lo.key.clone(), hi.key.clone()),
            _ => {
                put_spare(&mut self.spare_entries, entries);
                return None;
            }
        };
        let prefix_len = min_key
            .iter()
            .zip(max_key.iter())
            .take_while(|(a, b)| a == b)
            .count();
        self.largest = self.largest.max(entries.len());
        let n = entries.len() as u64;
        let mut windows = take_spare(&mut self.spare_windows, entries.len());
        let words = take_spare(
            &mut self.spare_blooms,
            BloomFilter::words_for(n, self.bloom_bits),
        );
        let mut bloom = BloomFilter::with_words(n, self.bloom_bits, words);
        for e in &entries {
            windows.push(window(e.key.get(prefix_len..).unwrap_or_default()));
            bloom.insert(key_hash(&e.key));
        }
        Some(SstMeta {
            file,
            size_bytes: std::mem::take(&mut self.size_bytes),
            min_key,
            max_key,
            bloom,
            data: SstData {
                entries,
                prefix_len,
                windows,
            },
        })
    }

    /// An empty entry buffer with room for `want` entries, for the
    /// memtable's next generation.
    pub fn spare_entries(&mut self, want: usize) -> Vec<Entry> {
        take_spare(&mut self.spare_entries, want)
    }

    /// An empty table list, for a compaction's inputs.
    pub fn spare_list(&mut self) -> Vec<SstMeta> {
        self.spare_lists.pop().unwrap_or_default()
    }

    /// Takes a consumed table's entries, windows and Bloom words for the
    /// tables built next, leaving it empty (its filter answers "maybe").
    pub fn recycle(&mut self, table: &mut SstMeta) {
        put_spare(
            &mut self.spare_entries,
            std::mem::take(&mut table.data.entries),
        );
        put_spare(
            &mut self.spare_windows,
            std::mem::take(&mut table.data.windows),
        );
        let bloom = std::mem::take(&mut table.bloom);
        put_spare(&mut self.spare_blooms, bloom.into_words());
    }

    /// Takes back a table list [`Self::spare_list`] gave out, its
    /// tables' buffers included.
    pub fn recycle_list(&mut self, mut list: Vec<SstMeta>) {
        for table in &mut list {
            self.recycle(table);
        }
        put_spare(&mut self.spare_lists, list);
    }
}

/// A merge run over tables a compaction consumes, in key order: one
/// table, or a deeper level's disjoint files. It moves their entries
/// out and hands each table's entry buffer back to the table once it is
/// spent, for [`Self::recycle_spent`].
#[derive(Debug)]
pub(crate) struct TableRun {
    tables: Vec<SstMeta>,
    /// Tables loaded so far; the last of them is being read.
    next: usize,
    /// The unread entries of the table being read.
    cur: VecDeque<Entry>,
}

impl TableRun {
    /// A run over `tables`, which must be disjoint and in key order.
    pub fn new(tables: Vec<SstMeta>) -> Self {
        TableRun {
            tables,
            next: 0,
            cur: VecDeque::new(),
        }
    }

    /// The run's tables (a spent one holds no entries).
    pub fn tables(&self) -> &[SstMeta] {
        &self.tables
    }

    /// Hands `builder` what the merge no longer reads: the windows and
    /// Bloom words of every table loaded so far (a merge reads neither)
    /// and the entry buffer of every spent one.
    pub fn recycle_spent(&mut self, builder: &mut TableBuilder) {
        for table in self.tables.iter_mut().take(self.next) {
            builder.recycle(table);
        }
    }

    /// Gives the table list back.
    pub fn into_tables(self) -> Vec<SstMeta> {
        self.tables
    }
}

impl Iterator for TableRun {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        loop {
            if let Some(entry) = self.cur.pop_front() {
                return Some(entry);
            }
            if self.cur.capacity() > 0 {
                let spent = self.tables.get_mut(self.next.checked_sub(1)?)?;
                spent.data.entries = std::mem::take(&mut self.cur).into();
            }
            let table = self.tables.get_mut(self.next)?;
            self.next += 1;
            self.cur = std::mem::take(&mut table.data.entries).into();
        }
    }
}

/// A key's first 16 bytes, big-endian, zero-padded: a smaller order key
/// means a smaller key, so a merge compares whole keys only on a tie.
fn order_key(key: &[u8]) -> u128 {
    if let Some(head) = key.first_chunk() {
        return u128::from_be_bytes(*head);
    }
    let mut bytes = [0u8; 16];
    for (b, &k) in bytes.iter_mut().zip(key) {
        *b = k;
    }
    u128::from_be_bytes(bytes)
}

/// One sorted source of a merge, with its next entry pulled ahead and
/// that entry's order key cached.
#[derive(Debug)]
pub struct Run<I> {
    head: Option<(u128, Entry)>,
    rest: I,
}

impl<I: Iterator<Item = Entry>> Run<I> {
    /// A run over `rest`, whose keys must be unique and ascending.
    pub fn new(mut rest: I) -> Self {
        let head = keyed(rest.next());
        Run { head, rest }
    }

    fn advance(&mut self) -> Option<(u128, Entry)> {
        let next = keyed(self.rest.next());
        std::mem::replace(&mut self.head, next)
    }
}

impl<I> Run<I> {
    /// The source.
    pub fn source(&self) -> &I {
        &self.rest
    }

    /// The source, mutably.
    pub fn source_mut(&mut self) -> &mut I {
        &mut self.rest
    }

    /// Gives the source back.
    pub fn into_source(self) -> I {
        self.rest
    }
}

fn keyed(entry: Option<Entry>) -> Option<(u128, Entry)> {
    entry.map(|entry| (order_key(&entry.key), entry))
}

/// The merge of [`merge_runs`].
#[derive(Debug)]
pub struct Merge<'a, I> {
    runs: &'a mut [Run<I>],
    drop_tombstones: bool,
}

impl<I> Merge<'_, I> {
    /// The runs being merged.
    pub fn runs_mut(&mut self) -> &mut [Run<I>] {
        self.runs
    }
}

/// Merges sorted runs (newest first) into one sorted stream, dropping
/// shadowed versions: on equal keys the earliest run wins. Tombstones
/// are kept unless `drop_tombstones` (bottom level). Pulls from the
/// runs lazily and moves their entries through, allocating nothing.
pub fn merge_runs<I>(runs: &mut [Run<I>], drop_tombstones: bool) -> Merge<'_, I>
where
    I: Iterator<Item = Entry>,
{
    Merge {
        runs,
        drop_tombstones,
    }
}

impl<I: Iterator<Item = Entry>> Iterator for Merge<'_, I> {
    type Item = Entry;

    fn next(&mut self) -> Option<Entry> {
        loop {
            // Smallest head key. Only a strictly smaller key displaces
            // the best so far, which leaves ties with the earliest
            // (newest) run.
            let mut best: Option<(usize, u128, &[u8])> = None;
            for (run, head) in self.runs.iter().enumerate() {
                let Some((order, Entry { key, .. })) = &head.head else {
                    continue;
                };
                let smaller = best.is_none_or(|(_, best_order, best_key)| {
                    *order < best_order || (*order == best_order && key.as_slice() < best_key)
                });
                if smaller {
                    best = Some((run, *order, key));
                }
            }
            let (run, _, _) = best?;
            let (order, entry) = self.runs.get_mut(run)?.advance()?;
            // Keys are unique within a run, so each later run holds at
            // most one shadowed version of `key`, and it is at that
            // run's head.
            for later in self.runs.iter_mut().skip(run + 1) {
                if (later.head.as_ref()).is_some_and(|(o, e)| *o == order && e.key == entry.key) {
                    later.advance();
                }
            }
            if entry.value.is_some() || !self.drop_tombstones {
                return Some(entry);
            }
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::check::check;
    use kvssd_sim::DeterministicRng;

    /// `key`'s version `value`.
    fn entry(key: &[u8], value: Option<Payload>) -> Entry {
        Entry {
            key: KeyBuf::new(key),
            value,
        }
    }

    fn kv(k: &str, v: Option<&str>) -> Entry {
        let v = v.map(|s| Payload::from_bytes(s.as_bytes().to_vec()));
        entry(k.as_bytes(), v)
    }

    /// A table of `pairs` (sorted, unique keys) built as file 1's.
    fn sst(pairs: &[(&str, Option<&str>)]) -> SstMeta {
        build(pairs.iter().map(|&(k, v)| kv(k, v)).collect())
    }

    fn build(entries: Vec<Entry>) -> SstMeta {
        let mut builder = TableBuilder::new(10, 10);
        entries.into_iter().for_each(|e| _ = builder.push(e));
        builder.finish(FileId(1)).expect("nonempty table")
    }

    /// The two-pass construction flushes and compactions used before
    /// the builder: entries first, then a pass for the windows, one for
    /// the Bloom filter and one for the size.
    fn two_pass(file: FileId, entries: Vec<Entry>, overhead: u64, bloom_bits: u32) -> SstMeta {
        let prefix_len = match (entries.first(), entries.last()) {
            (Some(lo), Some(hi)) => (lo.key.iter().zip(hi.key.iter()))
                .take_while(|(a, b)| a == b)
                .count(),
            _ => 0,
        };
        let windows = entries
            .iter()
            .map(|e| window(e.key.get(prefix_len..).unwrap_or_default()))
            .collect();
        let mut bloom = BloomFilter::new(entries.len() as u64, bloom_bits);
        for e in &entries {
            bloom.insert(key_hash(&e.key));
        }
        let size_bytes = entries
            .iter()
            .map(|e| e.key.len() as u64 + e.value.as_ref().map_or(0, Payload::len) + overhead)
            .sum();
        SstMeta {
            file,
            size_bytes,
            min_key: entries[0].key.clone(),
            max_key: entries[entries.len() - 1].key.clone(),
            bloom,
            data: SstData {
                entries,
                prefix_len,
                windows,
            },
        }
    }

    /// Field-by-field equality of two tables.
    fn same_table(got: &SstMeta, want: &SstMeta) -> Result<(), String> {
        let fields = [
            ("file", got.file == want.file),
            ("size_bytes", got.size_bytes == want.size_bytes),
            ("min_key", got.min_key == want.min_key),
            ("max_key", got.max_key == want.max_key),
            ("bloom bits", got.bloom.bits() == want.bloom.bits()),
            ("bloom words", got.bloom.words() == want.bloom.words()),
            (
                "bloom inserts",
                got.bloom.inserted() == want.bloom.inserted(),
            ),
            ("entries", got.data.entries == want.data.entries),
            ("prefix_len", got.data.prefix_len == want.data.prefix_len),
            ("windows", got.data.windows == want.data.windows),
        ];
        match fields.iter().find(|(_, same)| !same) {
            Some((field, _)) => Err(format!("{} differs in {field}", want.file.0)),
            None => Ok(()),
        }
    }

    /// The clone-based merge this crate shipped before the consuming
    /// one, kept as the oracle: rescans every run per output entry.
    fn merge_runs_reference(runs: &[&[Entry]], drop_tombstones: bool) -> Vec<Entry> {
        let mut cursors = vec![0usize; runs.len()];
        let mut out = Vec::new();
        loop {
            // Find the smallest current key; ties resolved to newest run.
            let mut best: Option<(usize, &KeyBuf)> = None;
            for (run, &pos) in cursors.iter().enumerate() {
                let Some(Entry { key: k, .. }) = runs[run].get(pos) else {
                    continue;
                };
                if best.is_none_or(|(_, bk)| k < bk) {
                    best = Some((run, k));
                }
            }
            let Some((winner, key)) = best else { break };
            let key = key.clone();
            let won = &runs[winner][cursors[winner]];
            if !(drop_tombstones && won.value.is_none()) {
                out.push(won.clone());
            }
            // Advance every run past this key.
            for (run, pos) in cursors.iter_mut().enumerate() {
                while runs[run].get(*pos).is_some_and(|e| e.key == key) {
                    *pos += 1;
                }
            }
        }
        out
    }

    /// Runs the consuming merge over clones of `runs` (each run a chain
    /// of tables) and checks it against the oracle, which sees each
    /// chain as one concatenated table; then checks that every spent
    /// table's buffers are handed back.
    fn merge_checked(runs: &[&[&SstMeta]], drop_tombstones: bool) -> Vec<Entry> {
        let chains: Vec<Vec<Entry>> = runs
            .iter()
            .map(|chain| chain.iter().flat_map(|t| t.data.entries.clone()).collect())
            .collect();
        let flat: Vec<&[Entry]> = chains.iter().map(Vec::as_slice).collect();
        let want = merge_runs_reference(&flat, drop_tombstones);
        let mut consuming: Vec<Run<TableRun>> = runs
            .iter()
            .map(|chain| Run::new(TableRun::new(chain.iter().map(|&t| t.clone()).collect())))
            .collect();
        let got: Vec<Entry> = merge_runs(&mut consuming, drop_tombstones).collect();
        assert_eq!(got, want);
        let mut builder = TableBuilder::new(10, 10);
        for run in &mut consuming {
            run.source_mut().recycle_spent(&mut builder);
        }
        let tables = runs.iter().map(|chain| chain.len()).sum::<usize>();
        assert_eq!(builder.spare_entries.len(), tables.min(SPARE_BUFFERS));
        for run in consuming {
            for t in run.into_source().into_tables() {
                assert_eq!(t.data.entries.capacity(), 0, "buffer left behind");
            }
        }
        got
    }

    fn keys(entries: &[Entry]) -> Vec<&[u8]> {
        entries.iter().map(|e| e.key.as_slice()).collect()
    }

    fn value(entries: &[Entry], key: &str) -> Option<Vec<u8>> {
        let e = entries
            .iter()
            .find(|e| e.key.as_slice() == key.as_bytes())?;
        Some(e.value.as_ref()?.as_bytes().unwrap().to_vec())
    }

    #[test]
    fn find_and_entry() {
        let s = sst(&[("a", Some("1")), ("c", Some("3"))]).data;
        assert_eq!(s.find(b"a"), Some(0));
        assert_eq!(s.find(b"b"), None);
        let (k, v) = s.entry(1);
        assert_eq!(k, b"c");
        assert_eq!(v.unwrap().as_bytes().unwrap(), b"3");
    }

    /// Keys for `find_agrees_with_binary_search` and the builder model:
    /// one of four shared prefixes (none, short, inline-length, past the
    /// 22 B inline limit) then a short tail over an alphabet with `0x00`
    /// and `0xFF`; some keys extend an earlier one, so keys are prefixes
    /// of others.
    fn table_keys(rng: &mut DeterministicRng) -> Vec<Vec<u8>> {
        const PREFIXES: [&[u8]; 4] = [
            b"",
            b"usr.",
            b"user00000000000000",
            b"a-key-prefix-past-the-inline-limit/",
        ];
        const ALPHABET: [u8; 5] = [0x00, 0x01, b'a', b'b', 0xFF];
        let prefix = PREFIXES[rng.below(4) as usize];
        let n = if rng.chance(0.2) {
            1
        } else {
            rng.between(2, 60)
        };
        let mut keys: Vec<Vec<u8>> = Vec::new();
        for _ in 0..n {
            let mut k = match keys.len() {
                len if len > 0 && rng.chance(0.3) => keys[rng.below(len as u64) as usize].clone(),
                _ => prefix.to_vec(),
            };
            for _ in 0..rng.below(13) {
                k.push(ALPHABET[rng.below(5) as usize]);
            }
            keys.push(k);
        }
        keys
    }

    fn sorted_unique(keys: &[Vec<u8>]) -> Vec<Vec<u8>> {
        let mut sorted = keys.to_vec();
        sorted.sort();
        sorted.dedup();
        sorted
    }

    /// Windowed `find` against a plain binary search over the same
    /// entries, for every key, its neighbours and probes outside
    /// `[min, max]`.
    #[test]
    fn find_agrees_with_binary_search() {
        let shorter = |k: &Vec<u8>| (!k.is_empty()).then(|| k[..k.len() - 1].to_vec());
        check(0..500, table_keys, shorter, |keys| {
            let sorted = sorted_unique(keys);
            let entries: Vec<Entry> = sorted.iter().map(|k| entry(k, None)).collect();
            let table = build(entries.clone()).data;
            let mut probes = vec![Vec::new(), vec![0xFF; 40], vec![0x00]];
            for k in &sorted {
                probes.push(k.clone());
                probes.push([k.as_slice(), &[0x00]].concat());
                probes.push([k.as_slice(), &[0xFF]].concat());
                if let Some((&last, head)) = k.split_last() {
                    probes.push(head.to_vec());
                    probes.push([head, &[last.wrapping_add(1)]].concat());
                    probes.push([head, &[last.wrapping_sub(1)]].concat());
                }
            }
            for probe in &probes {
                let want = entries
                    .binary_search_by(|e| e.key.as_slice().cmp(probe))
                    .ok();
                let got = table.find(probe);
                if got != want {
                    return Err(format!("find({probe:?}) = {got:?}, want {want:?}"));
                }
            }
            Ok(())
        });
    }

    /// One table of the builder model: its keys (sorted and deduplicated
    /// before use), a value length per key (0 is a tombstone), and
    /// whether the builder gets the previous table's buffers back first.
    #[derive(Debug, Clone)]
    struct TableCase {
        keys: Vec<Vec<u8>>,
        lens: Vec<u8>,
        recycle_previous: bool,
    }

    fn table_cases(rng: &mut DeterministicRng) -> Vec<TableCase> {
        (0..rng.between(1, 8))
            .map(|_| {
                let keys = table_keys(rng);
                let lens = keys.iter().map(|_| rng.below(200) as u8).collect();
                let recycle_previous = rng.chance(0.7);
                TableCase {
                    keys,
                    lens,
                    recycle_previous,
                }
            })
            .collect()
    }

    /// The one-pass builder against the two-pass construction, table
    /// after table through one builder whose buffers come back from the
    /// tables it built (dirty windows and Bloom words of other sizes),
    /// at two Bloom densities and overheads, through `push` and `adopt`.
    #[test]
    fn builder_matches_the_two_pass_construction() {
        let fewer = |case: &TableCase| {
            (case.keys.len() > 1).then(|| TableCase {
                keys: case.keys[..case.keys.len() / 2].to_vec(),
                ..case.clone()
            })
        };
        check(0..300, table_cases, fewer, |cases| {
            for (overhead, bloom_bits) in [(20, 10), (0, 3)] {
                let mut builder = TableBuilder::new(overhead, bloom_bits);
                let mut previous: Option<SstMeta> = None;
                for (i, case) in cases.iter().enumerate() {
                    let entries: Vec<Entry> = sorted_unique(&case.keys)
                        .iter()
                        .zip(&case.lens)
                        .map(|(k, &len)| {
                            let v = (len > 0).then(|| Payload::synthetic(u32::from(len), 7));
                            entry(k, v)
                        })
                        .collect();
                    if let Some(mut table) = previous.take().filter(|_| case.recycle_previous) {
                        builder.recycle(&mut table);
                    }
                    let file = FileId(i as u64);
                    let want = two_pass(file, entries.clone(), overhead, bloom_bits);
                    if i % 2 == 0 {
                        entries.into_iter().for_each(|e| _ = builder.push(e));
                    } else {
                        builder.adopt(entries);
                    }
                    if builder.size_bytes() != want.size_bytes {
                        return Err(format!("size so far {}", builder.size_bytes()));
                    }
                    let got = builder.finish(file).ok_or("no table")?;
                    same_table(&got, &want)?;
                    if !builder.is_empty() || builder.size_bytes() != 0 {
                        return Err("builder not left empty".into());
                    }
                    previous = Some(got);
                }
            }
            Ok(())
        });
    }

    #[test]
    fn builder_reuses_recycled_buffers() {
        let mut builder = TableBuilder::new(10, 10);
        let entries = |n: u64| (0..n).map(|i| entry(&i.to_be_bytes(), None));
        entries(500).for_each(|e| _ = builder.push(e));
        let mut first = builder.finish(FileId(1)).unwrap();
        let ptrs = |t: &SstMeta| {
            let (e, w, b) = (&t.data.entries, &t.data.windows, t.bloom.words());
            (
                e.as_ptr() as usize,
                w.as_ptr() as usize,
                b.as_ptr() as usize,
            )
        };
        let before = ptrs(&first);
        builder.recycle(&mut first);
        assert!(first.bloom.may_contain(0), "a recycled table answers maybe");
        entries(400).for_each(|e| _ = builder.push(e));
        let second = builder.finish(FileId(2)).unwrap();
        assert_eq!(
            ptrs(&second),
            before,
            "the second table reuses the first's buffers"
        );
        assert!(builder.finish(FileId(3)).is_none(), "nothing to finish");
    }

    #[test]
    fn entries_from_starts_at_the_first_key_not_below() {
        let s = sst(&[("a", Some("1")), ("c", Some("3")), ("e", Some("5"))]).data;
        assert_eq!(keys(s.entries_from(b"")), vec![&b"a"[..], b"c", b"e"]);
        assert_eq!(keys(s.entries_from(b"c")), vec![&b"c"[..], b"e"]);
        assert_eq!(keys(s.entries_from(b"d")), vec![&b"e"[..]]);
        assert!(s.entries_from(b"f").is_empty());
    }

    #[test]
    fn meta_covers_and_overlaps() {
        let m = sst(&[("b", Some("1")), ("f", Some("2"))]);
        assert!(m.covers(b"d"));
        assert!(!m.covers(b"a"));
        assert!(m.overlaps(b"a", b"c"));
        assert!(!m.overlaps(b"g", b"z"));
        assert_eq!(m.data.len(), 2);
    }

    #[test]
    fn bloom_rejects_absent_keys() {
        let m = sst(&[("key1", Some("v")), ("key2", Some("v"))]);
        assert!(m.bloom.may_contain(key_hash(b"key1")));
        // Absent keys are almost always rejected.
        let rejected = (0..100)
            .filter(|i| !m.bloom.may_contain(key_hash(format!("zz{i}").as_bytes())))
            .count();
        assert!(rejected > 90);
    }

    #[test]
    fn order_keys_order_like_keys() {
        let sorted: [&[u8]; 8] = [
            b"",
            b"\0",
            b"a",
            b"a\0",
            b"a\0\0",
            b"abcdefghijklmnop",
            b"abcdefghijklmnop\0",
            b"abcdefghijklmnoq",
        ];
        for (i, a) in sorted.iter().enumerate() {
            for b in &sorted[i + 1..] {
                assert!(order_key(a) <= order_key(b), "{a:?} vs {b:?}");
            }
        }
        assert!(order_key(b"a") < order_key(b"b"));
        assert_eq!(
            order_key(b"a"),
            order_key(b"a\0"),
            "a tie: whole keys decide"
        );
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
        assert!(kept[0].value.is_none(), "tombstone shadows older value");
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
        // "d": a tombstone over a value; "v": a value over a tombstone;
        // "p" and "p\0" tie on their order keys.
        let r0 = sst(&[
            ("d", None),
            ("k", Some("k0")),
            ("p\0", Some("p0")),
            ("v", Some("v0")),
        ]);
        let r1 = sst(&[("b", Some("b1")), ("k", Some("k1")), ("m", Some("m1"))]);
        let r2 = sst(&[
            ("d", Some("d2")),
            ("m", Some("m2")),
            ("p", Some("p2")),
            ("z", None),
        ]);
        let r3 = sst(&[
            ("a", Some("a3")),
            ("k", Some("k3")),
            ("m", None),
            ("v", None),
        ]);
        let runs: [&[&SstMeta]; 6] = [&[&r0], &[], &[&r1], &[&r2], &[], &[&r3]];
        let kept = merge_checked(&runs, false);
        assert_eq!(
            keys(&kept),
            vec![&b"a"[..], b"b", b"d", b"k", b"m", b"p", b"p\0", b"v", b"z"]
        );
        assert_eq!(value(&kept, "k").unwrap(), b"k0");
        assert_eq!(value(&kept, "m").unwrap(), b"m1");
        assert_eq!(value(&kept, "d"), None, "tombstone over value");
        assert_eq!(value(&kept, "v").unwrap(), b"v0", "value over tombstone");
        let dropped = merge_checked(&runs, true);
        assert_eq!(
            keys(&dropped),
            vec![&b"a"[..], b"b", b"k", b"m", b"p", b"p\0", b"v"]
        );
    }

    #[test]
    fn merge_walks_a_chain_of_disjoint_tables_as_one_run() {
        // The destination level: three disjoint, key-ordered files.
        let d0 = sst(&[("a", Some("a-old")), ("c", Some("c-old"))]);
        let d1 = sst(&[("f", Some("f-old")), ("h", None)]);
        let d2 = sst(&[("p", Some("p-old")), ("q", Some("q-old"))]);
        let newest = sst(&[("c", None), ("g", Some("g-new")), ("q", Some("q-new"))]);
        let newer = sst(&[("c", Some("c-mid")), ("f", Some("f-mid")), ("z", Some("z"))]);
        let runs: [&[&SstMeta]; 3] = [&[&newest], &[&newer], &[&d0, &d1, &d2]];
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
        assert!(merge_checked(&[&[], &[]], true).is_empty());
    }

    #[test]
    fn size_counts_keys_live_values_and_overhead() {
        let s = sst(&[("aa", Some("xyz")), ("bb", None)]);
        // 2+3 + 2+0 user, plus 2 * overhead.
        assert_eq!(s.size_bytes, 2 + 3 + 2 + 20);
    }
}
