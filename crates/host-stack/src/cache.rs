//! LRU caches: the OS page cache and RocksDB's block cache.
//!
//! One [`LruCache`] implementation serves both: the experiments only need
//! presence tracking (hit/miss), capacity in entries, and strict LRU
//! eviction — contents live elsewhere in the functional models. Both
//! caches key by `(file, page)`: the [`PageCache`] wrapper by 4 KiB page
//! index (and converts byte capacities), the LSM block cache by block
//! number.
//!
//! # Layout
//!
//! The recency list is an intrusive doubly linked list over a slab of
//! nodes. Nothing is hashed: a vector indexed by file id names the entry
//! of each file with a resident page, and that entry holds a dense vector
//! from page number to node (`NIL` where the page is absent).
//! Dropping a whole file walks only that file's vector, and a vector is
//! cleared and kept for the next file once its last page leaves, so a
//! cache in steady state allocates nothing.
//!
//! Memory: `capacity` nodes; 4 B per file id up to the largest that ever
//! held a page; and one page vector per file with a resident page (at
//! most `capacity` of them, and the recycled ones), each as long as that
//! file's largest resident page number plus one. File ids and page
//! numbers must therefore be dense — ids handed out in sequence as
//! `ExtFs` does, pages a byte offset over a block size — not arbitrary
//! 64-bit tags; [`LruCache::insert`] rejects either at `u32::MAX` or
//! above.

/// A cache key: `(file, page)`.
pub type PageKey = (u64, u64);

/// "No node": the end of a list, or an absent page.
const NIL: u32 = u32::MAX;

/// The slot at `at` of an id-indexed vector, growing it with `NIL`s to
/// hold `at`.
fn grown_slot(slots: &mut Vec<u32>, at: usize) -> Option<&mut u32> {
    if slots.len() <= at {
        slots.resize(at.checked_add(1)?, NIL);
    }
    slots.get_mut(at)
}

/// A strict-LRU presence cache over `(file, page)` keys.
///
/// O(1) for hit, insert and eviction; dropping a file is O(its largest
/// resident page number).
#[derive(Debug)]
pub struct LruCache {
    /// By file id: the file's entry in `files`, `NIL` without a resident
    /// page.
    owners: Vec<u32>,
    files: Vec<FilePages>,
    /// Entries of `files` no file owns, each with an empty `nodes`.
    idle_files: Vec<u32>,
    nodes: Vec<Node>,
    /// Head of the free-node list, chained through `Node::next`.
    free: u32,
    head: u32, // most recent
    tail: u32, // least recent
    len: usize,
    capacity: usize,
}

/// The resident pages of one file.
#[derive(Debug, Default)]
struct FilePages {
    /// Node of each page, `NIL` where the page is absent.
    nodes: Vec<u32>,
    /// Pages resident.
    resident: u32,
}

#[derive(Debug, Clone, Copy)]
struct Node {
    file: u64,
    page: u64,
    /// The file's entry in `LruCache::files`.
    owner: u32,
    prev: u32,
    next: u32,
}

impl LruCache {
    /// Creates a cache holding up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero or does not fit 32-bit node indices.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        assert!(capacity < NIL as usize, "cache capacity must fit u32");
        LruCache {
            owners: Vec::new(),
            files: Vec::new(),
            idle_files: Vec::new(),
            nodes: Vec::new(),
            free: NIL,
            head: NIL,
            tail: NIL,
            len: 0,
            capacity,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.len
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.len == 0
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Checks presence, promoting on hit.
    pub fn touch(&mut self, key: &PageKey) -> bool {
        let Some(idx) = self.node_of(key) else {
            return false;
        };
        self.promote(idx);
        true
    }

    /// Presence check without promotion.
    pub fn contains(&self, key: &PageKey) -> bool {
        self.node_of(key).is_some()
    }

    /// Inserts a key as most-recent, evicting the LRU entry if full.
    /// Returns the evicted key, if any.
    ///
    /// The key must be dense (see the module docs): the cache grows a
    /// vector indexed by `file` and one indexed by `page`, 4 B a slot,
    /// to hold it.
    ///
    /// # Panics
    ///
    /// Panics if `file` or `page` is `u32::MAX` or above, before the
    /// cache changes.
    pub fn insert(&mut self, key: PageKey) -> Option<PageKey> {
        let (file, page) = key;
        assert!(
            file < u64::from(NIL) && page < u64::from(NIL),
            "cache key {key:?} is not a dense (file, page) pair"
        );
        if let Some(idx) = self.node_of(&key) {
            self.promote(idx);
            return None;
        }
        let evicted = if self.len >= self.capacity {
            self.release(self.tail)
        } else {
            None
        };
        // Looked up after the eviction, which may have emptied the file.
        let owner = self.owner_of(file).unwrap_or_else(|| self.open_file(file));
        let idx = self.alloc_node(Node {
            file,
            page,
            owner,
            prev: NIL,
            next: NIL,
        });
        if let Some(pages) = self.files.get_mut(owner as usize) {
            if let Some(slot) = grown_slot(&mut pages.nodes, page as usize) {
                *slot = idx;
                pages.resident += 1;
            }
        }
        self.len += 1;
        self.push_front(idx);
        evicted
    }

    /// Removes a key if present.
    pub fn remove(&mut self, key: &PageKey) -> bool {
        self.node_of(key)
            .is_some_and(|idx| self.release(idx).is_some())
    }

    /// Drops every page of `file`, walking only that file's pages.
    pub fn invalidate_file(&mut self, file: u64) {
        let Some(owner) = self.close_file(file) else {
            return;
        };
        let Some(pages) = self.files.get_mut(owner as usize) else {
            return;
        };
        let mut nodes = std::mem::take(&mut pages.nodes);
        pages.resident = 0;
        for idx in nodes.iter().copied().filter(|&idx| idx != NIL) {
            self.unlink(idx);
            self.free_node(idx);
        }
        nodes.clear();
        if let Some(pages) = self.files.get_mut(owner as usize) {
            pages.nodes = nodes;
        }
        self.idle_files.push(owner);
    }

    /// The node holding `key`, if resident.
    fn node_of(&self, &(file, page): &PageKey) -> Option<u32> {
        self.page_node(self.owner_of(file)?, page)
    }

    /// `file`'s entry in `files`, if it has a resident page.
    fn owner_of(&self, file: u64) -> Option<u32> {
        let owner = *self.owners.get(usize::try_from(file).ok()?)?;
        (owner != NIL).then_some(owner)
    }

    /// The node holding `page` of the file at entry `owner`.
    fn page_node(&self, owner: u32, page: u64) -> Option<u32> {
        let pages = &self.files.get(owner as usize)?.nodes;
        let idx = *pages.get(usize::try_from(page).ok()?)?;
        (idx != NIL).then_some(idx)
    }

    /// Gives `file` an entry in `files`, recycling an idle one.
    fn open_file(&mut self, file: u64) -> u32 {
        let owner = self.idle_files.pop().unwrap_or_else(|| {
            self.files.push(FilePages::default());
            self.files.len() as u32 - 1
        });
        if let Some(slot) = grown_slot(&mut self.owners, file as usize) {
            *slot = owner;
        }
        owner
    }

    /// Takes `file`'s entry away from it; returns the entry it had.
    fn close_file(&mut self, file: u64) -> Option<u32> {
        let slot = self.owners.get_mut(usize::try_from(file).ok()?)?;
        let owner = std::mem::replace(slot, NIL);
        (owner != NIL).then_some(owner)
    }

    /// Unlinks and frees node `idx`; returns its key. A file emptied so
    /// hands its entry back to the idle list.
    fn release(&mut self, idx: u32) -> Option<PageKey> {
        let &Node {
            file, page, owner, ..
        } = self.nodes.get(idx as usize)?;
        self.unlink(idx);
        self.free_node(idx);
        if let Some(pages) = self.files.get_mut(owner as usize) {
            if let Some(slot) = pages.nodes.get_mut(page as usize) {
                *slot = NIL;
            }
            pages.resident -= 1;
            if pages.resident == 0 {
                pages.nodes.clear();
                self.close_file(file);
                self.idle_files.push(owner);
            }
        }
        Some((file, page))
    }

    fn alloc_node(&mut self, node: Node) -> u32 {
        match self.nodes.get_mut(self.free as usize) {
            Some(slot) => {
                let idx = self.free;
                self.free = slot.next;
                *slot = node;
                idx
            }
            None => {
                self.nodes.push(node);
                self.nodes.len() as u32 - 1
            }
        }
    }

    /// Puts an unlinked node on the free list.
    fn free_node(&mut self, idx: u32) {
        self.nodes[idx as usize].next = self.free;
        self.free = idx;
        self.len -= 1;
    }

    fn promote(&mut self, idx: u32) {
        if self.head != idx {
            self.unlink(idx);
            self.push_front(idx);
        }
    }

    fn unlink(&mut self, idx: u32) {
        let Node { prev, next, .. } = self.nodes[idx as usize];
        match self.nodes.get_mut(prev as usize) {
            Some(p) => p.next = next,
            None => self.head = next,
        }
        match self.nodes.get_mut(next as usize) {
            Some(n) => n.prev = prev,
            None => self.tail = prev,
        }
    }

    fn push_front(&mut self, idx: u32) {
        let head = self.head;
        let node = &mut self.nodes[idx as usize];
        (node.prev, node.next) = (NIL, head);
        match self.nodes.get_mut(head as usize) {
            Some(h) => h.prev = idx,
            None => self.tail = idx,
        }
        self.head = idx;
    }

    /// Keys from most to least recent (the model tests' view).
    #[cfg(test)]
    fn order(&self) -> Vec<PageKey> {
        let mut out = Vec::new();
        let mut idx = self.head;
        while let Some(n) = self.nodes.get(idx as usize) {
            out.push((n.file, n.page));
            idx = n.next;
        }
        out
    }
}

/// The OS page cache: presence of 4 KiB pages keyed by (file, page).
#[derive(Debug)]
pub struct PageCache {
    lru: LruCache,
}

/// Page size the cache tracks.
pub const PAGE_BYTES: u64 = 4096;

impl PageCache {
    /// Creates a page cache of `capacity_bytes` (rounded down to whole
    /// pages, minimum one page).
    pub fn new(capacity_bytes: u64) -> Self {
        PageCache {
            lru: LruCache::new(((capacity_bytes / PAGE_BYTES) as usize).max(1)),
        }
    }

    /// Checks/promotes one page of a file.
    pub fn touch(&mut self, file: u64, page: u64) -> bool {
        self.lru.touch(&(file, page))
    }

    /// Inserts one page of a file.
    pub fn insert(&mut self, file: u64, page: u64) {
        self.lru.insert((file, page));
    }

    /// Drops all pages of a file (e.g. on delete).
    pub fn invalidate_file(&mut self, file: u64) {
        self.lru.invalidate_file(file);
    }

    /// Resident pages.
    pub fn len(&self) -> usize {
        self.lru.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.lru.is_empty()
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::check::check;
    use kvssd_sim::DeterministicRng;

    #[test]
    fn insert_then_touch_hits() {
        let mut c = LruCache::new(2);
        c.insert((1, 0));
        assert!(c.touch(&(1, 0)));
        assert!(!c.touch(&(1, 1)));
        assert!(!c.touch(&(2, 0)));
        assert!(c.touch(&(1, 0)), "a miss leaves (1, 0) resident");
    }

    #[test]
    fn eviction_is_strictly_lru() {
        let mut c = LruCache::new(2);
        c.insert((1, 1));
        c.insert((2, 2));
        c.touch(&(1, 1)); // (1, 1) now most recent
        let evicted = c.insert((3, 3));
        assert_eq!(evicted, Some((2, 2)));
        assert!(c.contains(&(1, 1)));
        assert!(c.contains(&(3, 3)));
    }

    #[test]
    fn reinsert_promotes_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert((0, 1));
        c.insert((0, 2));
        assert_eq!(c.insert((0, 1)), None);
        assert_eq!(
            c.insert((0, 3)),
            Some((0, 2)),
            "(0, 2) was LRU after (0, 1)'s promotion"
        );
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = LruCache::new(2);
        c.insert((0, 1));
        c.insert((0, 2));
        assert!(c.remove(&(0, 1)));
        assert!(!c.remove(&(0, 1)));
        c.insert((0, 3));
        c.insert((0, 4)); // evicts (0, 2)
        assert!(!c.contains(&(0, 2)));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.insert((0, 1));
        assert_eq!(c.insert((0, 2)), Some((0, 1)));
        assert_eq!(c.insert((5, 2)), Some((0, 2)));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn long_churn_preserves_invariants() {
        let mut c = LruCache::new(16);
        let key = |i: u64| (i % 5, i % 37);
        for i in 0..10_000u64 {
            c.insert(key(i));
            assert!(c.len() <= 16);
        }
        // The 16 most recent distinct keys must be present.
        let mut recent = Vec::new();
        let mut i = 9_999u64;
        while recent.len() < 16 {
            if !recent.contains(&key(i)) {
                recent.push(key(i));
            }
            i -= 1;
        }
        for k in recent {
            assert!(c.contains(&k), "recent key {k:?} evicted");
        }
    }

    #[test]
    fn emptied_files_recycle_their_page_vectors() {
        let mut c = LruCache::new(4);
        for file in 0..100u64 {
            for page in 0..4 {
                c.insert((file, page));
            }
            c.invalidate_file(file);
        }
        assert!(c.is_empty());
        assert_eq!(c.files.len(), 1, "one page vector serves every file");
        // Four files resident at a time, each insert evicting the oldest
        // file's only page first: its vector serves the new file.
        for file in 0..100u64 {
            c.insert((file, 0));
        }
        assert_eq!(c.files.len(), 4, "{} page vectors", c.files.len());
    }

    #[test]
    fn page_cache_invalidates_whole_files() {
        let mut pc = PageCache::new(10 * PAGE_BYTES);
        pc.insert(1, 0);
        pc.insert(1, 1);
        pc.insert(2, 0);
        pc.invalidate_file(1);
        assert!(!pc.touch(1, 0));
        assert!(pc.touch(2, 0));
        assert_eq!(pc.len(), 1);
        pc.invalidate_file(1);
        pc.invalidate_file(9);
        assert_eq!(pc.len(), 1);
    }

    #[test]
    #[should_panic(expected = "not a dense")]
    fn sparse_page_rejected() {
        let mut c = LruCache::new(2);
        c.insert((0, u64::MAX));
    }

    #[test]
    #[should_panic(expected = "not a dense")]
    fn sparse_file_rejected() {
        let mut c = LruCache::new(2);
        c.insert((u64::from(u32::MAX), 0));
    }

    #[test]
    fn sparse_keys_miss_without_growing() {
        let mut c = LruCache::new(2);
        c.insert((1, 1));
        for key in [(1, u64::MAX), (u64::MAX, 1)] {
            assert!(!c.touch(&key));
            assert!(!c.contains(&key));
            assert!(!c.remove(&key));
        }
        c.invalidate_file(u64::MAX);
        assert!(c.owners.len() <= 2 && c.files.iter().all(|f| f.nodes.len() <= 2));
        assert!(c.touch(&(1, 1)));
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = LruCache::new(0);
    }

    #[derive(Debug, Clone, Copy)]
    enum Op {
        Touch(u64, u64),
        Insert(u64, u64),
        Remove(u64, u64),
        Invalidate(u64),
    }

    /// Pages a case draws from: dense low pages, the block one past a
    /// 16-block file's data (where the LSM keys its index block), and
    /// pages far apart.
    const PAGES: [u64; 9] = [0, 1, 2, 3, 7, 15, 16, 1_000, 65_537];

    fn key(rng: &mut DeterministicRng) -> PageKey {
        (rng.below(4), PAGES[rng.below(PAGES.len() as u64) as usize])
    }

    fn ops(rng: &mut DeterministicRng) -> Vec<Op> {
        (0..rng.between(1, 300))
            .map(|_| match rng.below(10) {
                0..=3 => {
                    let (f, p) = key(rng);
                    Op::Insert(f, p)
                }
                4..=6 => {
                    let (f, p) = key(rng);
                    Op::Touch(f, p)
                }
                7 | 8 => {
                    let (f, p) = key(rng);
                    Op::Remove(f, p)
                }
                _ => Op::Invalidate(rng.below(4)),
            })
            .collect()
    }

    /// The cache against a most-recent-first list, at every capacity the
    /// case's length picks (1 half of the time): every answer, eviction
    /// and the whole recency order after every op.
    #[test]
    fn lru_matches_a_naive_recency_list() {
        check(
            0..400,
            ops,
            |_| None,
            |ops| {
                let capacity = if ops.len() % 2 == 0 {
                    1
                } else {
                    1 + ops.len() % 7
                };
                let mut lru = LruCache::new(capacity);
                let mut model: Vec<PageKey> = Vec::new();
                for (i, &op) in ops.iter().enumerate() {
                    let (got, want) = match op {
                        Op::Touch(f, p) => {
                            let at = model.iter().position(|&k| k == (f, p));
                            if let Some(at) = at {
                                let k = model.remove(at);
                                model.insert(0, k);
                            }
                            (lru.touch(&(f, p)) as u64, at.is_some() as u64)
                        }
                        Op::Insert(f, p) => {
                            let mut evicted = None;
                            match model.iter().position(|&k| k == (f, p)) {
                                Some(at) => {
                                    model.remove(at);
                                }
                                None if model.len() == capacity => evicted = model.pop(),
                                None => {}
                            }
                            model.insert(0, (f, p));
                            let got = lru.insert((f, p));
                            if got != evicted {
                                return Err(format!(
                                    "op {i} {op:?}: evicted {got:?}, want {evicted:?}"
                                ));
                            }
                            (0, 0)
                        }
                        Op::Remove(f, p) => {
                            let at = model.iter().position(|&k| k == (f, p));
                            if let Some(at) = at {
                                model.remove(at);
                            }
                            (lru.remove(&(f, p)) as u64, at.is_some() as u64)
                        }
                        Op::Invalidate(f) => {
                            model.retain(|&(mf, _)| mf != f);
                            lru.invalidate_file(f);
                            (0, 0)
                        }
                    };
                    if got != want {
                        return Err(format!("op {i} {op:?}: answered {got}, want {want}"));
                    }
                    if lru.order() != model || lru.len() != model.len() {
                        return Err(format!(
                            "op {i} {op:?}: order {:?} (len {}), want {model:?}",
                            lru.order(),
                            lru.len()
                        ));
                    }
                    if model.iter().any(|k| !lru.contains(k)) {
                        return Err(format!("op {i} {op:?}: a resident key is missing"));
                    }
                }
                Ok(())
            },
        );
    }
}
