//! FIFO resource timelines.
//!
//! A [`Resource`] models anything that serves one request at a time — a
//! flash die, a channel, a firmware CPU, a host core. Requests reserve the
//! resource in arrival order: a request arriving at `t` starts at
//! `max(t, busy_until)` and pushes `busy_until` forward. This is exactly an
//! M/G/1-style FIFO queue evaluated lazily, which is all the queueing the
//! device models in this workspace need.
//!
//! A [`ResourcePool`] models `n` identical servers (e.g. four index-manager
//! cores); requests are dispatched to the earliest-available server.

use crate::time::{SimDuration, SimTime};

/// The interval during which a request held a resource.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Window {
    /// When service began (>= arrival time).
    pub start: SimTime,
    /// When service finished and the resource became free again.
    pub end: SimTime,
}

/// A single-server FIFO resource timeline.
#[derive(Debug, Clone, Default)]
pub struct Resource {
    busy_until: SimTime,
    busy_total: SimDuration,
    served: u64,
}

impl Resource {
    /// Creates an idle resource.
    pub fn new() -> Self {
        Self::default()
    }

    /// Reserves the resource for `service` starting no earlier than `now`.
    ///
    /// Returns the service window. Zero-length services are accounted but
    /// do not advance the timeline.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Window {
        let start = now.max(self.busy_until);
        let end = start + service;
        self.busy_until = end;
        self.busy_total += service;
        self.served += 1;
        Window { start, end }
    }

    /// Reserves the resource but does not start before `not_before`
    /// (e.g. a die op that must wait for a bus transfer to finish).
    pub fn acquire_after(
        &mut self,
        now: SimTime,
        not_before: SimTime,
        service: SimDuration,
    ) -> Window {
        self.acquire(now.max(not_before), service)
    }

    /// The earliest instant a new request could begin service.
    pub fn available_at(&self) -> SimTime {
        self.busy_until
    }

    /// Total busy time accumulated so far.
    pub fn busy_total(&self) -> SimDuration {
        self.busy_total
    }

    /// Number of requests served.
    pub fn served(&self) -> u64 {
        self.served
    }

    /// Fraction of `[SimTime::ZERO, until]` this resource spent busy.
    pub fn utilization(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total.as_nanos() as f64 / until.as_nanos() as f64
    }
}

/// A pool of `n` identical single-server resources with earliest-available
/// dispatch.
#[derive(Debug, Clone)]
pub struct ResourcePool {
    servers: Vec<Resource>,
}

impl ResourcePool {
    /// Creates a pool of `n` idle servers.
    ///
    /// # Panics
    ///
    /// Panics if `n` is zero.
    pub fn new(n: usize) -> Self {
        assert!(n > 0, "a ResourcePool needs at least one server");
        ResourcePool {
            servers: vec![Resource::new(); n],
        }
    }

    /// Number of servers in the pool.
    pub fn len(&self) -> usize {
        self.servers.len()
    }

    /// Always false: pools have at least one server.
    pub fn is_empty(&self) -> bool {
        false
    }

    /// Dispatches to the earliest-available server.
    pub fn acquire(&mut self, now: SimTime, service: SimDuration) -> Window {
        let idx = self.earliest();
        self.servers[idx].acquire(now, service)
    }

    /// Total busy time across all servers.
    pub fn busy_total(&self) -> SimDuration {
        self.servers.iter().map(Resource::busy_total).sum()
    }

    /// Total requests served across all servers.
    pub fn served(&self) -> u64 {
        self.servers.iter().map(Resource::served).sum()
    }

    /// Mean utilization over `[0, until]` across servers.
    pub fn utilization(&self, until: SimTime) -> f64 {
        if until == SimTime::ZERO {
            return 0.0;
        }
        self.busy_total().as_nanos() as f64 / (until.as_nanos() as f64 * self.servers.len() as f64)
    }

    fn earliest(&self) -> usize {
        let mut best = 0;
        for (i, s) in self.servers.iter().enumerate().skip(1) {
            if s.available_at() < self.servers[best].available_at() {
                best = i;
            }
        }
        best
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn us(n: u64) -> SimDuration {
        SimDuration::from_micros(n)
    }

    #[test]
    fn fifo_serializes_contending_requests() {
        let mut r = Resource::new();
        let a = r.acquire(SimTime::ZERO, us(10));
        let b = r.acquire(SimTime::ZERO, us(10));
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, a.end);
        assert_eq!(b.end.since(SimTime::ZERO), us(20));
    }

    #[test]
    fn idle_gaps_are_not_busy_time() {
        let mut r = Resource::new();
        r.acquire(SimTime::ZERO, us(10));
        // Arrives long after the first finished: a 90 us idle gap.
        let w = r.acquire(SimTime::ZERO + us(100), us(10));
        assert_eq!(w.start, SimTime::ZERO + us(100));
        assert_eq!(r.busy_total(), us(20));
        assert!((r.utilization(SimTime::ZERO + us(200)) - 0.1).abs() < 1e-9);
    }

    #[test]
    fn acquire_after_honors_dependency() {
        let mut r = Resource::new();
        let w = r.acquire_after(SimTime::ZERO, SimTime::ZERO + us(50), us(10));
        assert_eq!(w.start, SimTime::ZERO + us(50));
    }

    #[test]
    fn pool_runs_in_parallel() {
        let mut p = ResourcePool::new(2);
        let a = p.acquire(SimTime::ZERO, us(10));
        let b = p.acquire(SimTime::ZERO, us(10));
        let c = p.acquire(SimTime::ZERO, us(10));
        // Two run immediately in parallel, the third queues.
        assert_eq!(a.start, SimTime::ZERO);
        assert_eq!(b.start, SimTime::ZERO);
        assert_eq!(c.start, SimTime::ZERO + us(10));
        assert_eq!(p.served(), 3);
    }

    #[test]
    #[should_panic(expected = "at least one server")]
    fn empty_pool_rejected() {
        let _ = ResourcePool::new(0);
    }
}
