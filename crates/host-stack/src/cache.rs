//! LRU caches: the OS page cache and RocksDB's block cache.
//!
//! One [`LruCache`] implementation serves both: the experiments only need
//! presence tracking (hit/miss), capacity in entries, and strict LRU
//! eviction — contents live elsewhere in the functional models. The
//! [`PageCache`] wrapper keys by `(file, 4 KiB page index)` and converts
//! byte capacities.

use std::hash::Hash;

use kvssd_sim::PrehashedMap;

/// A strict-LRU presence cache.
///
/// Implemented as an intrusive doubly linked list over a slab, O(1) for
/// hit, insert, and eviction.
#[derive(Debug)]
pub struct LruCache<K: Eq + Hash + Clone> {
    map: PrehashedMap<K, usize>,
    nodes: Vec<Node<K>>,
    head: usize, // most recent
    tail: usize, // least recent
    free: Vec<usize>,
    capacity: usize,
}

#[derive(Debug, Clone)]
struct Node<K> {
    key: Option<K>,
    prev: usize,
    next: usize,
}

const NIL: usize = usize::MAX;

impl<K: Eq + Hash + Clone> LruCache<K> {
    /// Creates a cache holding up to `capacity` entries.
    ///
    /// # Panics
    ///
    /// Panics if `capacity` is zero.
    pub fn new(capacity: usize) -> Self {
        assert!(capacity > 0, "cache capacity must be positive");
        LruCache {
            map: PrehashedMap::default(),
            nodes: Vec::new(),
            head: NIL,
            tail: NIL,
            free: Vec::new(),
            capacity,
        }
    }

    /// Number of resident entries.
    pub fn len(&self) -> usize {
        self.map.len()
    }

    /// True when empty.
    pub fn is_empty(&self) -> bool {
        self.map.is_empty()
    }

    /// Capacity in entries.
    pub fn capacity(&self) -> usize {
        self.capacity
    }

    /// Checks presence, promoting on hit.
    pub fn touch(&mut self, key: &K) -> bool {
        let Some(idx) = self.map.get(key).copied() else {
            return false;
        };
        self.unlink(idx);
        self.push_front(idx);
        true
    }

    /// Presence check without promotion.
    pub fn contains(&self, key: &K) -> bool {
        self.map.contains_key(key)
    }

    /// Inserts a key as most-recent, evicting the LRU entry if full.
    /// Returns the evicted key, if any.
    pub fn insert(&mut self, key: K) -> Option<K> {
        if let Some(&idx) = self.map.get(&key) {
            self.unlink(idx);
            self.push_front(idx);
            return None;
        }
        let mut evicted = None;
        if self.map.len() >= self.capacity {
            let lru = self.tail;
            debug_assert_ne!(lru, NIL);
            self.unlink(lru);
            let k = self.nodes[lru].key.take().expect("tail has a key");
            self.map.remove(&k);
            self.free.push(lru);
            evicted = Some(k);
        }
        let idx = match self.free.pop() {
            Some(i) => {
                self.nodes[i].key = Some(key.clone());
                i
            }
            None => {
                self.nodes.push(Node {
                    key: Some(key.clone()),
                    prev: NIL,
                    next: NIL,
                });
                self.nodes.len() - 1
            }
        };
        self.map.insert(key, idx);
        self.push_front(idx);
        evicted
    }

    /// Removes a key if present.
    pub fn remove(&mut self, key: &K) -> bool {
        match self.map.remove(key) {
            Some(idx) => {
                self.unlink(idx);
                self.nodes[idx].key = None;
                self.free.push(idx);
                true
            }
            None => false,
        }
    }

    /// Drops every entry for which `pred` returns true.
    pub fn remove_if(&mut self, pred: impl Fn(&K) -> bool) {
        let doomed: Vec<K> = self.map.keys().filter(|k| pred(k)).cloned().collect();
        for k in doomed {
            self.remove(&k);
        }
    }

    fn unlink(&mut self, idx: usize) {
        let (prev, next) = (self.nodes[idx].prev, self.nodes[idx].next);
        if prev != NIL {
            self.nodes[prev].next = next;
        } else if self.head == idx {
            self.head = next;
        }
        if next != NIL {
            self.nodes[next].prev = prev;
        } else if self.tail == idx {
            self.tail = prev;
        }
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = NIL;
    }

    fn push_front(&mut self, idx: usize) {
        self.nodes[idx].prev = NIL;
        self.nodes[idx].next = self.head;
        if self.head != NIL {
            self.nodes[self.head].prev = idx;
        }
        self.head = idx;
        if self.tail == NIL {
            self.tail = idx;
        }
    }
}

/// The OS page cache: presence of 4 KiB pages keyed by (file, page).
#[derive(Debug)]
pub struct PageCache {
    lru: LruCache<(u64, u64)>,
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
        self.lru.remove_if(|&(f, _)| f == file);
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

    #[test]
    fn insert_then_touch_hits() {
        let mut c = LruCache::new(2);
        c.insert("a");
        assert!(c.touch(&"a"));
        assert!(!c.touch(&"b"));
        assert!(c.touch(&"a"), "a miss on b leaves a resident");
    }

    #[test]
    fn eviction_is_strictly_lru() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        c.touch(&1); // 1 now most recent
        let evicted = c.insert(3);
        assert_eq!(evicted, Some(2));
        assert!(c.contains(&1));
        assert!(c.contains(&3));
    }

    #[test]
    fn reinsert_promotes_without_eviction() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert_eq!(c.insert(1), None);
        assert_eq!(c.insert(3), Some(2), "2 was LRU after 1's promotion");
    }

    #[test]
    fn remove_frees_slot() {
        let mut c = LruCache::new(2);
        c.insert(1);
        c.insert(2);
        assert!(c.remove(&1));
        assert!(!c.remove(&1));
        c.insert(3);
        c.insert(4); // evicts 2
        assert!(!c.contains(&2));
        assert_eq!(c.len(), 2);
    }

    #[test]
    fn capacity_one_works() {
        let mut c = LruCache::new(1);
        c.insert(1);
        assert_eq!(c.insert(2), Some(1));
        assert_eq!(c.len(), 1);
    }

    #[test]
    fn long_churn_preserves_invariants() {
        let mut c = LruCache::new(16);
        for i in 0..10_000u64 {
            c.insert(i % 37);
            assert!(c.len() <= 16);
        }
        // The 16 most recent distinct keys must be present.
        let mut recent = Vec::new();
        let mut i = 9_999i64;
        while recent.len() < 16 {
            let k = (i % 37) as u64;
            if !recent.contains(&k) {
                recent.push(k);
            }
            i -= 1;
        }
        for k in recent {
            assert!(c.contains(&k), "recent key {k} evicted");
        }
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
    }

    #[test]
    #[should_panic(expected = "capacity")]
    fn zero_capacity_rejected() {
        let _ = LruCache::<u64>::new(0);
    }
}
