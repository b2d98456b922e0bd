//! Every block's reverse map in one pool of fixed-size chunks.
//!
//! A block's refs are a chain of [`CHUNK_REFS`]-ref chunks, pushed and
//! popped at the tail and read in append order. A chunk returns to the
//! free list when a pop empties it and when its block's list is cleared,
//! and a fresh one is carved only when that list is empty, so the pool
//! never holds more chunks than its lists once held together. Chunks are
//! carved in order from [`SLAB_CHUNKS`]-chunk slabs, each one allocation
//! that is never moved or freed while the pool lives and is touched only
//! as far as it has been carved.

use kvssd_flash::BlockId;

use super::BlobRef;

/// Refs per chunk: 1.5 KiB of refs.
const CHUNK_REFS: usize = 128;

/// Chunks per slab: one allocation of 256 KiB. The size is measured,
/// not derived: under the benchmark's heap, which never returns memory,
/// where slabs land among the index's freed tables moved the KV
/// workloads' peak RSS by −12 to +72 MB over the sizes tried, and this
/// one left all three below their one-`Vec`-per-block peaks
/// (DESIGN.md).
const SLAB_CHUNKS: usize = 170;

const _: () = assert!(SLAB_CHUNKS * std::mem::size_of::<Chunk>() >= 64 * 1024);

/// No chunk: the end of a chain.
const NONE: u32 = u32::MAX;

#[derive(Debug)]
struct Chunk {
    refs: [BlobRef; CHUNK_REFS],
    /// The chunk before this one in its list.
    prev: u32,
    /// The chunk after this one in its list, or in the free list.
    next: u32,
}

const EMPTY_CHUNK: Chunk = Chunk {
    refs: [BlobRef { hash: 0, seg_no: 0 }; CHUNK_REFS],
    prev: NONE,
    next: NONE,
};

/// One block's chain. Every chunk but the tail is full, and an empty
/// list holds no chunk.
#[derive(Debug, Clone, Copy)]
struct List {
    head: u32,
    tail: u32,
    len: u32,
}

const EMPTY_LIST: List = List {
    head: NONE,
    tail: NONE,
    len: 0,
};

/// One ref list per block of a device (see module docs).
#[derive(Debug)]
pub(crate) struct RefPool {
    lists: Vec<List>,
    /// Each of capacity `SLAB_CHUNKS`, so pushing a chunk never moves one.
    slabs: Vec<Vec<Chunk>>,
    /// Head of the free-chunk list, linked through `next`.
    free: u32,
}

impl RefPool {
    /// Empty lists for blocks `0..lists`.
    pub(crate) fn new(lists: usize) -> Self {
        RefPool {
            lists: vec![EMPTY_LIST; lists],
            slabs: Vec::new(),
            free: NONE,
        }
    }

    pub(crate) fn len(&self, b: BlockId) -> usize {
        self.list(b).len as usize
    }

    /// Appends `r` to `b`'s list; `None` if `b` is outside the device.
    pub(crate) fn push(&mut self, b: BlockId, r: BlobRef) -> Option<()> {
        let l = *self.lists.get(b.0 as usize)?;
        let at = l.len as usize % CHUNK_REFS;
        let mut grown = l;
        if at == 0 {
            // The tail is full, or there is none: link a fresh chunk.
            let c = self.take_chunk()?;
            let fresh = self.chunk_mut(c)?;
            (fresh.prev, fresh.next) = (l.tail, NONE);
            match self.chunk_mut(l.tail) {
                Some(tail) => tail.next = c,
                None => grown.head = c,
            }
            grown.tail = c;
        }
        *self.chunk_mut(grown.tail)?.refs.get_mut(at)? = r;
        grown.len += 1;
        *self.lists.get_mut(b.0 as usize)? = grown;
        Some(())
    }

    /// Removes and returns `b`'s last ref, returning its tail chunk to
    /// the free list if that empties it.
    pub(crate) fn pop(&mut self, b: BlockId) -> Option<BlobRef> {
        let l = self.list(b);
        let len = l.len.checked_sub(1)?;
        let at = len as usize % CHUNK_REFS;
        let tail = self.chunk(l.tail)?;
        let (r, prev) = (*tail.refs.get(at)?, tail.prev);
        let mut shrunk = List { len, ..l };
        if at == 0 {
            let free = self.free;
            self.chunk_mut(l.tail)?.next = free;
            self.free = l.tail;
            match self.chunk_mut(prev) {
                Some(prev) => prev.next = NONE,
                None => shrunk.head = NONE,
            }
            shrunk.tail = prev;
        }
        *self.lists.get_mut(b.0 as usize)? = shrunk;
        Some(r)
    }

    /// Empties `b`'s list, returning all its chunks to the free list.
    pub(crate) fn clear(&mut self, b: BlockId) {
        let Some(l) = self.lists.get_mut(b.0 as usize) else {
            return;
        };
        let cleared = std::mem::replace(l, EMPTY_LIST);
        let free = self.free;
        if let Some(tail) = self.chunk_mut(cleared.tail) {
            tail.next = free;
            self.free = cleared.head;
        }
    }

    /// Every ref of `b`'s list, in append order.
    pub(crate) fn iter(&self, b: BlockId) -> Refs<'_> {
        let l = self.list(b);
        Refs {
            pool: self,
            cur: [].iter(),
            next: l.head,
            remaining: l.len as usize,
        }
    }

    /// The last `n` refs of `b`'s list (all of them if it holds fewer),
    /// in append order. Walks back one chunk per `CHUNK_REFS` refs.
    pub(crate) fn last(&self, b: BlockId, n: usize) -> Refs<'_> {
        let l = self.list(b);
        let len = l.len as usize;
        let start = len - n.min(len);
        // The tail chunk holds refs from `base` on.
        let (mut c, mut base) = (l.tail, len.saturating_sub(1) / CHUNK_REFS * CHUNK_REFS);
        while base > start {
            c = self.chunk(c).map_or(NONE, |chunk| chunk.prev);
            base -= CHUNK_REFS;
        }
        let chunk = self.chunk(c);
        let cur = chunk.and_then(|chunk| chunk.refs.get(start - base..));
        Refs {
            pool: self,
            cur: cur.unwrap_or_default().iter(),
            next: chunk.map_or(NONE, |chunk| chunk.next),
            remaining: len - start,
        }
    }

    fn list(&self, b: BlockId) -> List {
        self.lists.get(b.0 as usize).copied().unwrap_or(EMPTY_LIST)
    }

    fn chunk(&self, c: u32) -> Option<&Chunk> {
        let c = c as usize;
        self.slabs.get(c / SLAB_CHUNKS)?.get(c % SLAB_CHUNKS)
    }

    fn chunk_mut(&mut self, c: u32) -> Option<&mut Chunk> {
        let c = c as usize;
        self.slabs
            .get_mut(c / SLAB_CHUNKS)?
            .get_mut(c % SLAB_CHUNKS)
    }

    /// Pops a free chunk, or carves the next one if none is free.
    fn take_chunk(&mut self) -> Option<u32> {
        if self.free != NONE {
            let c = self.free;
            self.free = self.chunk(c)?.next;
            return Some(c);
        }
        if self
            .slabs
            .last()
            .is_none_or(|slab| slab.len() == SLAB_CHUNKS)
        {
            self.slabs.push(Vec::with_capacity(SLAB_CHUNKS));
        }
        let full = (self.slabs.len() - 1) * SLAB_CHUNKS;
        let slab = self.slabs.last_mut()?;
        let c = u32::try_from(full + slab.len())
            .ok()
            .filter(|&c| c != NONE)?;
        slab.push(EMPTY_CHUNK);
        Some(c)
    }
}

/// A run of one list's refs, in append order.
#[derive(Debug)]
pub(crate) struct Refs<'a> {
    pool: &'a RefPool,
    cur: std::slice::Iter<'a, BlobRef>,
    /// The chunk after `cur`'s.
    next: u32,
    remaining: usize,
}

impl Iterator for Refs<'_> {
    type Item = BlobRef;

    fn next(&mut self) -> Option<BlobRef> {
        if self.remaining == 0 {
            return None;
        }
        loop {
            if let Some(&r) = self.cur.next() {
                self.remaining -= 1;
                return Some(r);
            }
            let chunk = self.pool.chunk(self.next)?;
            self.cur = chunk.refs.iter();
            self.next = chunk.next;
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::check::check;
    use kvssd_sim::DeterministicRng;

    const LISTS: usize = 5;

    #[derive(Debug, Clone)]
    enum Op {
        /// Pushes this many refs to the list.
        Push(usize, u32),
        /// Pops up to this many refs from the list.
        Pop(usize, u32),
        Clear(usize),
    }

    fn ops(rng: &mut DeterministicRng) -> Vec<Op> {
        let op = |rng: &mut DeterministicRng| {
            let list = rng.below(LISTS as u64) as usize;
            match rng.below(8) {
                0..=3 => Op::Push(list, rng.between(1, 400) as u32),
                4..=6 => Op::Pop(list, rng.between(1, 300) as u32),
                _ => Op::Clear(list),
            }
        };
        (0..rng.between(10, 60)).map(|_| op(rng)).collect()
    }

    fn simpler(op: &Op) -> Option<Op> {
        match *op {
            Op::Push(l, n) if n > 1 => Some(Op::Push(l, n / 2)),
            Op::Pop(l, n) if n > 1 => Some(Op::Pop(l, n / 2)),
            _ => None,
        }
    }

    fn key(r: BlobRef) -> (u64, u32) {
        (r.hash, r.seg_no)
    }

    /// Runs `ops` on a pool and on `Vec<Vec<BlobRef>>`: after every op
    /// each list's length, its refs in order and the back windows GC
    /// prefetches from agree, every pop returns the model's, and the
    /// pool never carves more chunks than the lists once held together.
    fn matches_a_vec_per_list(ops: &[Op]) -> Result<(), String> {
        let b = |l: usize| BlockId(l as u32);
        let mut pool = RefPool::new(LISTS);
        let mut model: Vec<Vec<BlobRef>> = vec![Vec::new(); LISTS];
        let (mut next, mut peak_chunks) = (0u64, 0usize);
        for (i, op) in ops.iter().enumerate() {
            match *op {
                Op::Push(l, n) => {
                    for _ in 0..n {
                        let r = BlobRef {
                            hash: next.wrapping_mul(0x9E37_79B9_7F4A_7C15),
                            seg_no: next as u32,
                        };
                        next += 1;
                        pool.push(b(l), r).ok_or(format!("op {i}: push refused"))?;
                        model[l].push(r);
                    }
                }
                Op::Pop(l, n) => {
                    for _ in 0..n {
                        let (got, want) = (pool.pop(b(l)).map(key), model[l].pop().map(key));
                        if got != want {
                            return Err(format!("op {i}: popped {got:?}, model {want:?}"));
                        }
                    }
                }
                Op::Clear(l) => {
                    pool.clear(b(l));
                    model[l].clear();
                }
            }
            let chunks: usize = model.iter().map(|m| m.len().div_ceil(CHUNK_REFS)).sum();
            peak_chunks = peak_chunks.max(chunks);
            let carved: usize = pool.slabs.iter().map(Vec::len).sum();
            if carved > peak_chunks || pool.slabs.len() > peak_chunks.div_ceil(SLAB_CHUNKS) {
                let slabs = pool.slabs.len();
                return Err(format!(
                    "op {i}: {carved} chunks in {slabs} slabs for a peak of {peak_chunks}"
                ));
            }
            for (l, m) in model.iter().enumerate() {
                if pool.len(b(l)) != m.len() {
                    let len = pool.len(b(l));
                    return Err(format!("op {i}: list {l} len {len} != {}", m.len()));
                }
                if !pool.iter(b(l)).map(key).eq(m.iter().copied().map(key)) {
                    return Err(format!("op {i}: list {l} iterates out of order"));
                }
                for n in [0, 1, 16, CHUNK_REFS - 1, CHUNK_REFS + 1, m.len() + 3] {
                    let tail = m.get(m.len().saturating_sub(n)..).unwrap_or_default();
                    if !pool
                        .last(b(l), n)
                        .map(key)
                        .eq(tail.iter().copied().map(key))
                    {
                        return Err(format!("op {i}: list {l}'s last {n} refs differ"));
                    }
                }
            }
        }
        Ok(())
    }

    #[test]
    fn pool_matches_a_vec_per_list() {
        check(0..200, ops, simpler, matches_a_vec_per_list);
    }

    #[test]
    fn lists_outside_the_pool_hold_nothing() {
        let (mut pool, outside) = (RefPool::new(2), BlockId(2));
        let r = BlobRef { hash: 1, seg_no: 2 };
        assert_eq!(pool.push(outside, r), None);
        assert_eq!(pool.pop(outside).map(key), None);
        pool.clear(outside);
        let counts = (pool.len(outside), pool.iter(outside).count());
        assert_eq!((counts, pool.last(outside, 4).count()), ((0, 0), 0));
        assert!(pool.slabs.is_empty());
    }
}
