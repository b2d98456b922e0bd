//! The volatile write buffer's bookkeeping: how many bytes it holds,
//! when each programmed segment leaves it, and which keys a read can
//! still be served from it.
//!
//! A segment occupies the buffer from its append until the program of
//! its page completes (`leave`). Segments leave in `(leave, bytes, key)`
//! order — the order a stalled writer frees space in — and every segment
//! of one program shares its `leave`. So [`Departures`] keeps one heap
//! entry per *program* (per 16 segments of one), keyed by `(leave,
//! smallest remaining (bytes, key))`, with the program's segments in a
//! recycled group sorted descending: a drain up to `now` pops whole
//! groups, and a single pop takes the group's last segment and re-keys
//! the group in place. The pop order is exactly that of one heap entry
//! per segment, including ties between programs with equal `leave`.

use std::cmp::Reverse;
use std::collections::binary_heap::PeekMut;
use std::collections::BinaryHeap;

use kvssd_sim::{PrehashedMap, SimTime};

/// A key identity inside the device: (hash, fingerprint).
pub(crate) type KeyId = (u64, u64);

/// Segments one group holds. A program with more spreads over several
/// groups with the same `leave`, which the heap orders as one.
const GROUP_SEGS: usize = 16;

/// A group's departure: `(leave, bytes, key)` of its smallest remaining
/// segment, then the group.
type GroupKey = (SimTime, u64, KeyId, u32);

/// One program's remaining `(bytes, key)` segments, `segs[..len]`,
/// sorted descending so the next to leave is last.
#[derive(Debug)]
struct Group {
    len: usize,
    segs: [(u64, KeyId); GROUP_SEGS],
}

impl Group {
    const EMPTY: Group = Group {
        len: 0,
        segs: [(0, (0, 0)); GROUP_SEGS],
    };

    fn live(&self) -> &[(u64, KeyId)] {
        self.segs.get(..self.len).unwrap_or_default()
    }
}

/// Buffered segments by departure time (see the module docs). Groups
/// live in one slab and are recycled, so it grows like one heap would.
#[derive(Debug, Default)]
pub(crate) struct Departures {
    heap: BinaryHeap<Reverse<GroupKey>>,
    groups: Vec<Group>,
    /// Groups with no segments left, ready for the next program.
    idle: Vec<u32>,
}

impl Departures {
    /// An empty queue with room for `groups` groups before it reallocates.
    fn with_capacity(groups: usize) -> Self {
        Departures {
            heap: BinaryHeap::with_capacity(groups),
            groups: Vec::with_capacity(groups),
            idle: Vec::with_capacity(groups),
        }
    }

    /// Queues one program's segments, all leaving at `leave`.
    pub(crate) fn push_program(
        &mut self,
        leave: SimTime,
        segs: impl IntoIterator<Item = (u64, KeyId)>,
    ) {
        let mut segs = segs.into_iter().peekable();
        while segs.peek().is_some() {
            let g = self.idle.pop().unwrap_or_else(|| {
                self.groups.push(Group::EMPTY);
                self.groups.len() as u32 - 1
            });
            let Some(group) = self.groups.get_mut(g as usize) else {
                return;
            };
            group.len = group
                .segs
                .iter_mut()
                .zip(segs.by_ref())
                .map(|(slot, seg)| *slot = seg)
                .count();
            let live = group.segs.get_mut(..group.len).unwrap_or_default();
            live.sort_unstable_by(|a, b| b.cmp(a));
            if let Some(&(bytes, key)) = live.last() {
                self.heap.push(Reverse((leave, bytes, key, g)));
            }
        }
    }

    /// Takes the next segment to leave, `(leave, bytes, key)`.
    pub(crate) fn pop(&mut self) -> Option<(SimTime, u64, KeyId)> {
        let mut top = self.heap.peek_mut()?;
        let Reverse((leave, _, _, g)) = *top;
        let group = self.groups.get_mut(g as usize)?;
        group.len = group.len.checked_sub(1)?;
        let &(bytes, key) = group.segs.get(group.len)?;
        match group.live().last() {
            // Re-key the group in place; the heap re-sifts it on drop.
            Some(&(next_bytes, next_key)) => top.0 = (leave, next_bytes, next_key, g),
            None => {
                PeekMut::pop(top);
                self.idle.push(g);
            }
        }
        Some((leave, bytes, key))
    }

    /// Removes every segment that has left by `now`, whole groups at a
    /// time, handing each to `gone` as `(leave, bytes, key)`.
    pub(crate) fn drain(&mut self, now: SimTime, mut gone: impl FnMut(SimTime, u64, KeyId)) {
        while let Some(top) = self.heap.peek_mut() {
            let Reverse((leave, _, _, g)) = *top;
            if leave > now {
                break;
            }
            PeekMut::pop(top);
            if let Some(group) = self.groups.get_mut(g as usize) {
                for &(bytes, key) in group.live() {
                    gone(leave, bytes, key);
                }
                group.len = 0;
            }
            self.idle.push(g);
        }
    }

    /// Forgets every queued segment.
    pub(crate) fn clear(&mut self) {
        for Reverse((_, _, _, g)) in self.heap.drain() {
            if let Some(group) = self.groups.get_mut(g as usize) {
                group.len = 0;
            }
            self.idle.push(g);
        }
    }
}

/// Space held in the volatile buffer, and the keys resident in it.
#[derive(Debug, Default)]
pub(crate) struct WriteBuffer {
    /// Bytes appended and not yet departed.
    used: u64,
    departures: Departures,
    /// Key -> the `leave` of its latest program, or `SimTime` max while
    /// its newest segments still wait in an open page.
    resident: PrehashedMap<KeyId, SimTime>,
}

impl WriteBuffer {
    /// An empty buffer whose departure queue holds `programs` programs of
    /// up to 16 segments before it reallocates.
    pub(crate) fn with_capacity(programs: usize) -> Self {
        WriteBuffer {
            departures: Departures::with_capacity(programs),
            ..Self::default()
        }
    }

    /// Bytes currently held.
    pub(crate) fn used(&self) -> u64 {
        self.used
    }

    /// Claims `bytes` for a segment just appended.
    pub(crate) fn admit(&mut self, bytes: u64) {
        self.used += bytes;
    }

    /// Marks `key` readable from the buffer until a program takes it out,
    /// unless a program already did (its `leave` is kept).
    pub(crate) fn hold(&mut self, key: KeyId) {
        self.resident
            .entry(key)
            .or_insert(SimTime::from_nanos(u64::MAX));
    }

    /// Whether a read of `key` is served from the buffer.
    pub(crate) fn is_resident(&self, key: KeyId) -> bool {
        self.resident.contains_key(&key)
    }

    /// Records one program: its `(bytes, key)` segments leave at `leave`,
    /// and each key stays resident until then.
    pub(crate) fn program(&mut self, leave: SimTime, segs: impl IntoIterator<Item = (u64, KeyId)>) {
        let resident = &mut self.resident;
        self.departures.push_program(
            leave,
            segs.into_iter().inspect(|&(_, key)| {
                resident.insert(key, leave);
            }),
        );
    }

    /// Lets every segment that has left by `now` go.
    pub(crate) fn drain(&mut self, now: SimTime) {
        let (used, resident) = (&mut self.used, &mut self.resident);
        self.departures.drain(now, |leave, bytes, key| {
            Self::depart(used, resident, leave, bytes, key)
        });
    }

    /// Lets the next segment go, however far in the future it leaves;
    /// returns its `leave`, or `None` with nothing programmed.
    pub(crate) fn pop(&mut self) -> Option<SimTime> {
        let (leave, bytes, key) = self.departures.pop()?;
        Self::depart(&mut self.used, &mut self.resident, leave, bytes, key);
        Some(leave)
    }

    /// Empties the buffer (power loss after the capacitor flush).
    pub(crate) fn clear(&mut self) {
        self.used = 0;
        self.departures.clear();
        self.resident.clear();
    }

    fn depart(
        used: &mut u64,
        resident: &mut PrehashedMap<KeyId, SimTime>,
        leave: SimTime,
        bytes: u64,
        key: KeyId,
    ) {
        *used -= bytes;
        // Only the key's latest program ends its residency.
        if resident.get(&key) == Some(&leave) {
            resident.remove(&key);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use kvssd_sim::check::check;
    use kvssd_sim::DeterministicRng;

    #[derive(Debug, Clone)]
    enum Op {
        /// One program: its `leave` (ns) and `(bytes, key)` segments.
        Program(u64, Vec<(u64, KeyId)>),
        Pop,
        Drain(u64),
    }

    /// Interleavings over few distinct `leave` times (so programs tie),
    /// few byte sizes and keys (so segments within and across programs
    /// tie, duplicates included), empty programs, and programs that
    /// spread over several groups.
    fn ops(rng: &mut DeterministicRng) -> Vec<Op> {
        (0..rng.between(1, 120))
            .map(|_| match rng.below(10) {
                0..=4 => {
                    let n = match rng.below(4) {
                        0 => rng.below(3 * GROUP_SEGS as u64),
                        _ => rng.below(7),
                    };
                    let segs = (0..n)
                        .map(|_| (1024 * rng.between(1, 3), (rng.below(4), rng.below(2))))
                        .collect();
                    Op::Program(100 * rng.between(1, 12), segs)
                }
                5..=7 => Op::Pop,
                _ => Op::Drain(100 * rng.below(14)),
            })
            .collect()
    }

    /// Pops come out in the per-segment heap's exact order; a drain takes
    /// exactly the segments that heap would pop up to `now`.
    fn matches_a_per_segment_heap(ops: &[Op]) -> Result<(), String> {
        let mut d = Departures::default();
        let mut reference: BinaryHeap<Reverse<(SimTime, u64, KeyId)>> = BinaryHeap::new();
        for (step, op) in ops.iter().enumerate() {
            match op {
                Op::Program(leave, segs) => {
                    let leave = SimTime::from_nanos(*leave);
                    d.push_program(leave, segs.iter().copied());
                    reference.extend(segs.iter().map(|&(b, k)| Reverse((leave, b, k))));
                }
                Op::Pop => {
                    let want = reference.pop().map(|Reverse(s)| s);
                    assert_eq!(d.pop(), want, "step {step}");
                }
                Op::Drain(now) => {
                    let now = SimTime::from_nanos(*now);
                    let mut got = Vec::new();
                    d.drain(now, |leave, bytes, key| got.push((leave, bytes, key)));
                    let mut want = Vec::new();
                    while reference.peek().is_some_and(|Reverse(s)| s.0 <= now) {
                        want.extend(reference.pop().map(|Reverse(s)| s));
                    }
                    got.sort_unstable();
                    assert_eq!(got, want, "step {step}");
                }
            }
        }
        while let Some(Reverse(want)) = reference.pop() {
            assert_eq!(d.pop(), Some(want));
        }
        assert_eq!(d.pop(), None);
        assert_eq!(d.idle.len(), d.groups.len(), "every group returns to idle");
        Ok(())
    }

    #[test]
    fn departures_pop_in_per_segment_heap_order() {
        check(0..256, ops, |_| None, matches_a_per_segment_heap);
    }

    #[test]
    fn groups_are_recycled_not_reallocated() {
        let mut d = Departures::default();
        for round in 0..100u64 {
            let t = SimTime::from_nanos(round);
            d.push_program(t, [(1024, (round, 0)), (2048, (round, 1))]);
            d.push_program(t, [(1024, (round, 2))]);
            d.drain(t, |_, _, _| {});
        }
        assert_eq!(d.groups.len(), 2);
    }

    #[test]
    fn residency_ends_with_the_latest_program_only() {
        let mut b = WriteBuffer::default();
        let (k, t1, t2) = ((7, 7), SimTime::from_nanos(10), SimTime::from_nanos(20));
        b.admit(1024);
        b.hold(k);
        b.program(t1, [(1024, k)]);
        b.admit(1024);
        b.program(t2, [(1024, k)]);
        b.hold(k);
        assert_eq!(b.used(), 2048);
        b.drain(t1);
        assert!(
            b.is_resident(k),
            "the first program's departure keeps the newer copy"
        );
        assert_eq!(b.pop(), Some(t2));
        assert!(!b.is_resident(k));
        assert_eq!((b.used(), b.pop()), (0, None));
    }
}
