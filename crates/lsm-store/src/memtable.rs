//! The memtable: the newest version of every key written since the last
//! flush.
//!
//! Entries sit in arrival order in one vector, and a map from key hash
//! to the newest entry with that hash finds them; entries whose hashes
//! collide are chained, newest first. A write probes the map once and
//! either replaces the value in place or appends. Nothing is kept in key
//! order: a flush sorts the entries once, and a scan sorts the ones it
//! needs. The caller passes each key's hash in, so the store hashes a
//! key once per operation and reuses it for the Bloom filters; the map
//! is the only place the hash is kept.

use std::collections::hash_map::Entry as Slot;

use kvssd_core::{KeyBuf, Payload};
use kvssd_sim::PrehashedMap;

use crate::sst::Entry;

/// End of a collision chain.
const NIL: u32 = u32::MAX;

/// See the module docs.
#[derive(Debug, Default)]
pub struct Memtable {
    /// Every key's newest version, in first-arrival order.
    entries: Vec<Entry>,
    /// Per entry: the next older entry with the same key hash.
    chain: Vec<u32>,
    /// Key hash -> the newest entry with that hash.
    heads: PrehashedMap<u64, u32>,
}

impl Memtable {
    /// Distinct keys held.
    pub fn len(&self) -> usize {
        self.entries.len()
    }

    /// True when no key is held.
    pub fn is_empty(&self) -> bool {
        self.entries.is_empty()
    }

    /// The version of `key` (hashing to `hash`) held, if any: `Some(None)`
    /// is a tombstone.
    pub fn get(&self, hash: u64, key: &[u8]) -> Option<&Option<Payload>> {
        let mut at = *self.heads.get(&hash)?;
        loop {
            let e = self.entries.get(at as usize)?;
            if e.key.as_slice() == key {
                return Some(&e.value);
            }
            at = *self.chain.get(at as usize)?;
        }
    }

    /// Stores `value` as `key`'s newest version, with one probe of the
    /// hash map. Returns the version it replaced, if the key was held.
    pub fn insert(
        &mut self,
        hash: u64,
        key: &[u8],
        value: Option<Payload>,
    ) -> Option<Option<Payload>> {
        assert!(self.entries.len() < NIL as usize, "entries are u32-indexed");
        let new = self.entries.len() as u32;
        match self.heads.entry(hash) {
            Slot::Occupied(mut head) => {
                let mut at = *head.get();
                while let Some(e) = self.entries.get_mut(at as usize) {
                    if e.key.as_slice() == key {
                        return Some(std::mem::replace(&mut e.value, value));
                    }
                    at = self.chain.get(at as usize).copied().unwrap_or(NIL);
                }
                self.chain.push(std::mem::replace(head.get_mut(), new));
            }
            Slot::Vacant(slot) => {
                slot.insert(new);
                self.chain.push(NIL);
            }
        }
        self.entries.push(Entry {
            key: KeyBuf::new(key),
            value,
        });
        None
    }

    /// Entries the memtable holds without reallocating.
    pub fn capacity(&self) -> usize {
        self.entries.capacity()
    }

    /// Empties the memtable and returns its entries in key order. The
    /// next generation fills `next`, which must be empty.
    pub fn take_sorted(&mut self, next: Vec<Entry>) -> Vec<Entry> {
        debug_assert!(next.is_empty(), "the next generation starts empty");
        let mut entries = std::mem::replace(&mut self.entries, next);
        self.chain.clear();
        self.heads.clear();
        entries.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        entries
    }

    /// Copies of the entries with keys `>= from`, in key order.
    pub fn sorted_from(&self, from: &[u8]) -> Vec<Entry> {
        let mut out: Vec<Entry> = self
            .entries
            .iter()
            .filter(|e| e.key.as_slice() >= from)
            .cloned()
            .collect();
        out.sort_unstable_by(|a, b| a.key.cmp(&b.key));
        out
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::collections::BTreeMap;

    use kvssd_core::hash::key_hash;
    use kvssd_sim::check::check;
    use kvssd_sim::DeterministicRng;

    #[derive(Debug, Clone, Copy)]
    enum Op {
        /// Put key `.0` with value tag `.1`.
        Put(u8, u64),
        Delete(u8),
        Get(u8),
        Scan(u8),
        Flush,
    }

    /// Key `i`: spilled past the 22 B inline limit when `i` is odd, and
    /// with `0x00` bytes in it.
    fn key(i: u8) -> Vec<u8> {
        let mut k = vec![b'k', i / 16, i % 16];
        if i % 2 == 1 {
            k.extend_from_slice(b"-spilled-past-the-inline-limit");
        }
        k
    }

    fn ops(rng: &mut DeterministicRng) -> Vec<Op> {
        (0..rng.between(1, 400))
            .map(|i| {
                let k = rng.below(40) as u8;
                match rng.below(20) {
                    0..=8 => Op::Put(k, i),
                    9..=11 => Op::Delete(k),
                    12..=17 => Op::Get(k),
                    18 => Op::Scan(k),
                    _ => Op::Flush,
                }
            })
            .collect()
    }

    /// The memtable against a `BTreeMap`, with the key hash cut to
    /// `bits` bits so that keys collide: 0 bits puts every key on one
    /// chain, 64 is the store's own hash.
    fn agrees(ops: &[Op], bits: u32) -> Result<(), String> {
        let hash = |k: &[u8]| key_hash(k).checked_shr(64 - bits).unwrap_or(0);
        let entry = |key: &[u8], value| Entry {
            key: KeyBuf::new(key),
            value,
        };
        let mut table = Memtable::default();
        let mut model: BTreeMap<Vec<u8>, Option<Payload>> = BTreeMap::new();
        for (i, &op) in ops.iter().enumerate() {
            let mut write = |k: Vec<u8>, value: Option<Payload>| {
                table.insert(hash(&k), &k, value.clone()) != model.insert(k, value)
            };
            let diverged = match op {
                Op::Put(k, tag) => write(key(k), Some(Payload::synthetic(8, tag))),
                Op::Delete(k) => write(key(k), None),
                Op::Get(k) => {
                    let k = key(k);
                    table.get(hash(&k), &k) != model.get(&k)
                }
                Op::Scan(k) => {
                    let from = key(k);
                    let want: Vec<Entry> = model
                        .range(from.clone()..)
                        .map(|(k, v)| entry(k, v.clone()))
                        .collect();
                    table.sorted_from(&from) != want
                }
                Op::Flush => {
                    let want: Vec<Entry> = std::mem::take(&mut model)
                        .into_iter()
                        .map(|(k, v)| entry(&k, v))
                        .collect();
                    table.take_sorted(Vec::new()) != want || !table.is_empty()
                }
            };
            if diverged || table.len() != model.len() {
                return Err(format!("op {i} {op:?} diverged at {bits} hash bits"));
            }
        }
        Ok(())
    }

    #[test]
    fn memtable_matches_a_btreemap_with_forged_collisions() {
        check(
            0..200,
            ops,
            |_| None,
            |ops| {
                [0, 1, 3, 64]
                    .into_iter()
                    .try_for_each(|bits| agrees(ops, bits))
            },
        );
    }
}
