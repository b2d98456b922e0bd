//! Consistent-hash placement with virtual nodes.
//!
//! Each shard owns `vnodes_per_shard` pseudo-random points on a 64-bit
//! ring; a key belongs to the shard owning the first point at or after
//! the key's hash (wrapping). Placement is deterministic from the
//! configured seed, so the same workload seed always yields the same
//! key→shard map — the property every determinism test leans on.
//!
//! When membership changes, [`RingDelta`] reports the *exact* fraction
//! of the hash space whose owner changed, computed by walking the merged
//! arc boundaries of the old and new rings (not by sampling). With
//! virtual nodes, adding one shard to N moves ≈ 1/(N+1) of the space —
//! the consistent-hashing promise — and the cluster's rebalance
//! accounting checks actual moved keys against that figure.

use kvssd_sim::mix64;

/// Exact ownership difference between two ring states.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct RingDelta {
    /// Fraction of the 64-bit hash space whose owner changed.
    pub moved_fraction: f64,
    /// Number of contiguous arcs that changed owner.
    pub moved_arcs: usize,
}

/// The consistent-hash ring (see module docs).
#[derive(Debug, Clone)]
pub struct HashRing {
    seed: u64,
    vnodes_per_shard: usize,
    /// Sorted `(point, shard)` pairs.
    points: Vec<(u64, usize)>,
}

impl HashRing {
    /// Builds a ring for `shard_ids` with `vnodes_per_shard` points each.
    ///
    /// # Panics
    ///
    /// Panics if `vnodes_per_shard` is zero.
    pub fn new(seed: u64, vnodes_per_shard: usize, shard_ids: &[usize]) -> Self {
        assert!(vnodes_per_shard > 0, "a shard needs at least one vnode");
        let mut ring = HashRing {
            seed,
            vnodes_per_shard,
            points: Vec::with_capacity(shard_ids.len() * vnodes_per_shard),
        };
        for &id in shard_ids {
            ring.insert_points(id);
        }
        ring.points.sort_unstable();
        ring
    }

    fn vnode_point(&self, shard: usize, replica: usize, probe: u64) -> u64 {
        // Two mixing rounds decorrelate shard and replica indices; the
        // result is stable across runs for a given seed. `probe` is the
        // collision re-probe counter: 0 for the first attempt (so
        // collision-free placement is unchanged from the original
        // scheme), bumped until the point is unique on the ring.
        mix64(
            mix64(self.seed ^ (shard as u64).wrapping_mul(0xA24B_AED4_963E_E407))
                ^ replica as u64
                ^ probe.wrapping_mul(0x9E37_79B9_7F4A_7C15),
        )
    }

    fn insert_points(&mut self, shard: usize) {
        for replica in 0..self.vnodes_per_shard {
            // Two distinct (shard, replica) pairs can hash to the same
            // u64 point; the old code pushed the duplicate and
            // `sort_unstable` then handed the whole arc to the lower
            // shard id, leaving the other vnode a zero-length arc that
            // `share_of`/`delta` accounted inconsistently. Re-probe
            // deterministically until the point is free.
            let mut probe = 0u64;
            let mut point = self.vnode_point(shard, replica, probe);
            while self.points.iter().any(|&(p, _)| p == point) {
                probe += 1;
                point = self.vnode_point(shard, replica, probe);
            }
            self.points.push((point, shard));
        }
    }

    /// Number of shards on the ring.
    pub fn shard_count(&self) -> usize {
        let mut ids: Vec<usize> = self.points.iter().map(|&(_, s)| s).collect();
        ids.sort_unstable();
        ids.dedup();
        ids.len()
    }

    /// The shard owning hash `h`: successor point on the ring, wrapping.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring.
    pub fn shard_for(&self, h: u64) -> usize {
        assert!(!self.points.is_empty(), "routing on an empty ring");
        match self.points.binary_search(&(h, 0)) {
            Ok(i) => self.points[i].1,
            Err(i) if i < self.points.len() => self.points[i].1,
            Err(_) => self.points[0].1,
        }
    }

    /// The first `r` *distinct* shards walking successor points from
    /// `h` (wrapping), skipping points of shards already collected. The
    /// first entry is always [`Self::shard_for`]`(h)`; the result holds
    /// `min(r, shard_count)` shards. This is the key's replica set under
    /// R-way replication.
    ///
    /// # Panics
    ///
    /// Panics on an empty ring when `r > 0`.
    pub fn replica_set(&self, h: u64, r: usize) -> Vec<usize> {
        let mut out = Vec::with_capacity(r);
        self.replica_set_into(h, r, &mut out);
        out
    }

    /// Allocation-free [`Self::replica_set`]: fills `out` (cleared
    /// first), reusing its capacity.
    pub fn replica_set_into(&self, h: u64, r: usize, out: &mut Vec<usize>) {
        out.clear();
        if r == 0 {
            return;
        }
        assert!(!self.points.is_empty(), "routing on an empty ring");
        let n = self.points.len();
        let start = match self.points.binary_search(&(h, 0)) {
            Ok(i) => i,
            Err(i) if i < n => i,
            Err(_) => 0,
        };
        // Clockwise from `start`, wrapping once: no division per step.
        let (tail, head) = self.points.split_at(start);
        for &(_, shard) in head.iter().chain(tail) {
            if !out.contains(&shard) {
                out.push(shard);
                if out.len() == r {
                    return;
                }
            }
        }
    }

    /// Exact fraction of the hash space shard `id` owns.
    pub fn share_of(&self, id: usize) -> f64 {
        let mut owned: u128 = 0;
        let n = self.points.len();
        for i in 0..n {
            if self.points[i].1 != id {
                continue;
            }
            let here = self.points[i].0;
            let prev = if i == 0 {
                self.points[n - 1].0
            } else {
                self.points[i - 1].0
            };
            // Arc (prev, here], wrapping; a single-point ring owns all.
            let len = if n == 1 {
                1u128 << 64
            } else {
                (here.wrapping_sub(prev)) as u128
            };
            owned += len;
        }
        owned as f64 / (1u128 << 64) as f64
    }

    /// Adds a shard; returns the exact ownership change.
    pub fn add_shard(&mut self, id: usize) -> RingDelta {
        let before = self.clone();
        self.insert_points(id);
        self.points.sort_unstable();
        delta(&before, self)
    }

    /// Removes a shard; returns the exact ownership change.
    pub fn remove_shard(&mut self, id: usize) -> RingDelta {
        let before = self.clone();
        self.points.retain(|&(_, s)| s != id);
        delta(&before, self)
    }
}

/// Walks the merged arc boundaries of two rings and sums the arcs whose
/// owner differs. Exact: within one merged arc, both rings' successor
/// (and therefore owner) is constant.
fn delta(old: &HashRing, new: &HashRing) -> RingDelta {
    match (old.points.is_empty(), new.points.is_empty()) {
        // Nothing owned anything on either side: nothing moved. (The
        // old code fell into the one-sided arm and reported 1.0 / 1.)
        (true, true) => {
            return RingDelta {
                moved_fraction: 0.0,
                moved_arcs: 0,
            }
        }
        // One-sided: the whole space gained or lost an owner.
        (true, false) | (false, true) => {
            return RingDelta {
                moved_fraction: 1.0,
                moved_arcs: 1,
            }
        }
        (false, false) => {}
    }
    let mut bounds: Vec<u64> = old
        .points
        .iter()
        .chain(new.points.iter())
        .map(|&(p, _)| p)
        .collect();
    bounds.sort_unstable();
    bounds.dedup();
    let mut moved: u128 = 0;
    let mut arcs = 0usize;
    let n = bounds.len();
    for i in 0..n {
        let here = bounds[i];
        let prev = if i == 0 { bounds[n - 1] } else { bounds[i - 1] };
        let len = if n == 1 {
            1u128 << 64
        } else {
            (here.wrapping_sub(prev)) as u128
        };
        // `here` is inside the arc (prev, here], so it is a valid
        // representative for successor lookups in both rings.
        if old.shard_for(here) != new.shard_for(here) {
            moved += len;
            arcs += 1;
        }
    }
    RingDelta {
        moved_fraction: moved as f64 / (1u128 << 64) as f64,
        moved_arcs: arcs,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn routing_is_deterministic_and_total() {
        let a = HashRing::new(7, 64, &[0, 1, 2, 3]);
        let b = HashRing::new(7, 64, &[0, 1, 2, 3]);
        for k in 0..1_000u64 {
            let h = mix64(k);
            assert_eq!(a.shard_for(h), b.shard_for(h));
            assert!(a.shard_for(h) < 4);
        }
    }

    #[test]
    fn different_seeds_place_differently() {
        let a = HashRing::new(1, 64, &[0, 1, 2, 3]);
        let b = HashRing::new(2, 64, &[0, 1, 2, 3]);
        let diff = (0..1_000u64)
            .filter(|&k| a.shard_for(mix64(k)) != b.shard_for(mix64(k)))
            .count();
        assert!(diff > 250, "seeds should reshuffle placement ({diff})");
    }

    #[test]
    fn vnodes_balance_shares() {
        let ring = HashRing::new(11, 128, &[0, 1, 2, 3]);
        let mut total = 0.0;
        for id in 0..4 {
            let share = ring.share_of(id);
            assert!((0.10..=0.45).contains(&share), "shard {id} share {share}");
            total += share;
        }
        assert!((total - 1.0).abs() < 1e-9);
    }

    #[test]
    fn single_shard_owns_everything() {
        let ring = HashRing::new(3, 16, &[5]);
        assert!((ring.share_of(5) - 1.0).abs() < 1e-12);
        for k in 0..100u64 {
            assert_eq!(ring.shard_for(mix64(k)), 5);
        }
    }

    #[test]
    fn add_shard_moves_about_one_over_n_plus_one() {
        let mut ring = HashRing::new(9, 128, &[0, 1, 2]);
        let d = ring.add_shard(3);
        // Ideal is 1/4; vnode variance keeps it loose but bounded.
        assert!(
            (0.10..=0.45).contains(&d.moved_fraction),
            "moved {}",
            d.moved_fraction
        );
        // And the moved space is exactly the new shard's share.
        assert!((d.moved_fraction - ring.share_of(3)).abs() < 1e-12);
    }

    #[test]
    fn remove_shard_moves_exactly_its_share() {
        let mut ring = HashRing::new(9, 128, &[0, 1, 2, 3]);
        let share = ring.share_of(2);
        let d = ring.remove_shard(2);
        assert!((d.moved_fraction - share).abs() < 1e-12);
        assert_eq!(ring.shard_count(), 3);
        assert!((0..1_000u64).all(|k| ring.shard_for(mix64(k)) != 2));
    }

    #[test]
    fn add_then_remove_round_trips_routing() {
        let mut ring = HashRing::new(21, 64, &[0, 1]);
        let before: Vec<usize> = (0..500u64).map(|k| ring.shard_for(mix64(k))).collect();
        ring.add_shard(2);
        ring.remove_shard(2);
        let after: Vec<usize> = (0..500u64).map(|k| ring.shard_for(mix64(k))).collect();
        assert_eq!(before, after);
    }

    #[test]
    #[should_panic(expected = "empty ring")]
    fn empty_ring_cannot_route() {
        let ring = HashRing::new(0, 4, &[]);
        let _ = ring.shard_for(0);
    }

    /// Regression: a vnode point collision must re-probe, not silently
    /// hand the arc to the lower shard id. Forces the collision by
    /// occupying exactly the point the next shard's replica 2 would
    /// take; pre-fix, `insert_points` pushed the duplicate.
    #[test]
    fn vnode_point_collision_reprobes_deterministically() {
        let build = || {
            let mut ring = HashRing::new(5, 4, &[0]);
            let stolen = ring.vnode_point(1, 2, 0);
            ring.points.push((stolen, 0));
            ring.points.sort_unstable();
            (ring, stolen)
        };
        let (mut ring, stolen) = build();
        ring.add_shard(1);
        // Every point is unique: the colliding vnode re-probed away.
        let mut pts: Vec<u64> = ring.points.iter().map(|&(p, _)| p).collect();
        let before = pts.len();
        pts.sort_unstable();
        pts.dedup();
        assert_eq!(pts.len(), before, "duplicate vnode point survived");
        // The occupied point still belongs to shard 0, and shard 1 kept
        // all four of its vnodes (none was swallowed by the collision).
        assert_eq!(ring.shard_for(stolen), 0);
        assert_eq!(ring.points.iter().filter(|&&(_, s)| s == 1).count(), 4);
        // Shares still account for the full circle.
        assert!((ring.share_of(0) + ring.share_of(1) - 1.0).abs() < 1e-9);
        // And the re-probe is deterministic: rebuilding identically
        // yields the identical ring.
        let (mut again, _) = build();
        again.add_shard(1);
        assert_eq!(ring.points, again.points);
    }

    /// Regression: the delta of two empty rings is zero movement, not
    /// the pre-fix `1.0 / 1`.
    #[test]
    fn delta_of_two_empty_rings_is_zero() {
        let a = HashRing::new(0, 4, &[]);
        let b = HashRing::new(0, 4, &[]);
        let d = delta(&a, &b);
        assert_eq!(d.moved_fraction, 0.0);
        assert_eq!(d.moved_arcs, 0);
        // One-sided emptiness still means everything moved.
        let c = HashRing::new(0, 4, &[7]);
        assert_eq!(delta(&a, &c).moved_fraction, 1.0);
        assert_eq!(delta(&c, &b).moved_fraction, 1.0);
    }

    #[test]
    fn replica_set_walks_distinct_successors() {
        let ring = HashRing::new(13, 32, &[0, 1, 2, 3]);
        for k in 0..500u64 {
            let h = mix64(k);
            for r in 0..=6 {
                let set = ring.replica_set(h, r);
                assert_eq!(set.len(), r.min(4), "r={r}");
                if r > 0 {
                    assert_eq!(set[0], ring.shard_for(h));
                }
                let mut dedup = set.clone();
                dedup.sort_unstable();
                dedup.dedup();
                assert_eq!(dedup.len(), set.len(), "replica set repeated a shard");
            }
        }
    }

    #[test]
    fn replica_set_into_reuses_buffer() {
        let ring = HashRing::new(13, 32, &[0, 1, 2]);
        let mut buf = Vec::new();
        ring.replica_set_into(mix64(9), 2, &mut buf);
        let first = buf.clone();
        ring.replica_set_into(mix64(9), 2, &mut buf);
        assert_eq!(buf, first);
        ring.replica_set_into(mix64(9), 0, &mut buf);
        assert!(buf.is_empty());
    }
}
