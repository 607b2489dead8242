//! A bandwidth-limited, FIFO network link with propagation latency.
//!
//! The link is a work-conserving fluid queue: payloads enter a FIFO
//! backlog that drains at `bandwidth_per_tick` data units per tick.
//! A payload's transfer completes when everything ahead of it plus
//! itself has drained (rounded up to whole ticks), and it arrives
//! `latency` ticks later. Many small payloads enqueued in the same tick
//! therefore share the tick's bandwidth — 50 unit-size objects on a
//! 50-unit/tick link all arrive one tick later — while a congested
//! backlog delays everyone behind it.
//!
//! This models both the fixed network between the base station and the
//! remote servers (where the paper worries about "bandwidth contention"
//! as the base station downloads more) and — via [`crate::Downlink`] —
//! the wireless hop to the clients.

use basecache_sim::{SimDuration, SimTime};

/// A point-to-point link with finite bandwidth and fixed latency.
///
/// Transfers must be enqueued in non-decreasing time order (discrete-
/// event drivers naturally do this).
#[derive(Debug, Clone)]
pub struct Link {
    bandwidth_per_tick: u64,
    latency: SimDuration,
    /// Unsent units in the FIFO backlog as of `queue_as_of`.
    queue_units: u64,
    queue_as_of: SimTime,
    bytes_sent: u64,
    transfers: u64,
}

/// Timing of one accepted transfer.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TransferTiming {
    /// When the payload's first byte goes out (whole-tick granularity).
    pub starts: SimTime,
    /// When the payload has fully drained from the link.
    pub frees_link: SimTime,
    /// When the payload arrives at the far end (`frees_link + latency`).
    pub arrives: SimTime,
}

impl Link {
    /// Create a link shipping `bandwidth_per_tick` data units per tick
    /// with a fixed `latency`.
    ///
    /// # Panics
    ///
    /// Panics if `bandwidth_per_tick` is zero.
    pub fn new(bandwidth_per_tick: u64, latency: SimDuration) -> Self {
        assert!(bandwidth_per_tick > 0, "link bandwidth must be positive");
        Self {
            bandwidth_per_tick,
            latency,
            queue_units: 0,
            queue_as_of: SimTime::ZERO,
            bytes_sent: 0,
            transfers: 0,
        }
    }

    /// Drain the backlog up to `now`.
    fn drain(&mut self, now: SimTime) {
        assert!(
            now >= self.queue_as_of,
            "transfers must be enqueued in non-decreasing time order \
             ({now} precedes {})",
            self.queue_as_of
        );
        let elapsed = now.since(self.queue_as_of).ticks();
        let drained = elapsed.saturating_mul(self.bandwidth_per_tick);
        self.queue_units = self.queue_units.saturating_sub(drained);
        self.queue_as_of = now;
    }

    /// Enqueue a transfer of `size` data units at time `now`; returns
    /// when it starts draining, fully drains, and arrives. Zero-size
    /// transfers pass through at their queue position and cost only the
    /// latency.
    pub fn enqueue(&mut self, now: SimTime, size: u64) -> TransferTiming {
        self.drain(now);
        let starts = now + SimDuration::from_ticks(self.queue_units / self.bandwidth_per_tick);
        let frees_link = if size == 0 {
            starts
        } else {
            self.queue_units += size;
            now + SimDuration::from_ticks(self.queue_units.div_ceil(self.bandwidth_per_tick))
        };
        self.bytes_sent += size;
        self.transfers += 1;
        TransferTiming {
            starts,
            frees_link,
            arrives: frees_link + self.latency,
        }
    }

    /// Total data units shipped.
    pub fn bytes_sent(&self) -> u64 {
        self.bytes_sent
    }

    /// Number of transfers accepted.
    pub fn transfers(&self) -> u64 {
        self.transfers
    }

    /// Total transmission time in ticks: a work-conserving fluid server
    /// transmits for exactly `bytes / bandwidth` ticks (rounded up).
    pub fn busy_ticks(&self) -> u64 {
        self.bytes_sent.div_ceil(self.bandwidth_per_tick)
    }

    /// Fraction of `[0, now]` the link spent transmitting; `0.0` at time
    /// zero, clamped to `[0, 1]` (a backlog queued into the future never
    /// pushes it past 1).
    pub fn utilization(&self, now: SimTime) -> f64 {
        if now.ticks() == 0 {
            return 0.0;
        }
        (self.busy_ticks().min(now.ticks())) as f64 / now.ticks() as f64
    }
}

/// A cloneable handle to a [`Link`] shared by several base stations —
/// the fixed-network *backbone* of a multi-cell deployment.
///
/// The paper scopes to one cell ("we do not consider the workload on
/// servers from clients in other cells"); sharing one fluid link across
/// stations is how the multi-cell extension lifts that assumption:
/// every station's downloads contend for the same backlog.
#[derive(Debug, Clone)]
pub struct SharedLink {
    inner: std::sync::Arc<std::sync::Mutex<Link>>,
}

impl SharedLink {
    /// Wrap a link for sharing.
    pub fn new(link: Link) -> Self {
        Self {
            inner: std::sync::Arc::new(std::sync::Mutex::new(link)),
        }
    }

    /// Enqueue a transfer (see [`Link::enqueue`]). Transfers from all
    /// sharers must still be non-decreasing in time — lockstep
    /// time-stepped drivers satisfy this naturally.
    pub fn enqueue(&self, now: SimTime, size: u64) -> TransferTiming {
        self.inner
            .lock()
            .expect("link mutex poisoned")
            .enqueue(now, size)
    }

    /// Access the underlying link (metrics, configuration).
    pub fn lock(&self) -> std::sync::MutexGuard<'_, Link> {
        self.inner.lock().expect("link mutex poisoned")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn shared_link_serializes_across_handles() {
        let a = SharedLink::new(Link::new(1, SimDuration::ZERO));
        let b = a.clone();
        let first = a.enqueue(t(0), 3);
        let second = b.enqueue(t(0), 2);
        assert_eq!(first.frees_link, t(3));
        assert_eq!(
            second.frees_link,
            t(5),
            "second sharer queues behind the first"
        );
        assert_eq!(a.lock().bytes_sent(), 5);
    }

    #[test]
    fn transfers_share_bandwidth_and_serialize_fifo() {
        let mut link = Link::new(2, SimDuration::from_ticks(3));
        // 5 units at 2/tick = 3 ticks on the wire.
        let a = link.enqueue(t(0), 5);
        assert_eq!(a.starts, t(0));
        assert_eq!(a.frees_link, t(3));
        assert_eq!(a.arrives, t(6));
        // Second transfer queues behind the remaining backlog: at t=1
        // three of the five units remain, so it starts mid-tick-2 (floor
        // → t=2) and drains at t=1+ceil(5/2)=t=4.
        let b = link.enqueue(t(1), 2);
        assert_eq!(b.starts, t(2));
        assert_eq!(b.frees_link, t(4));
        assert_eq!(b.arrives, t(7));
        assert_eq!(link.transfers(), 2);
        assert_eq!(link.bytes_sent(), 7);
    }

    #[test]
    fn same_tick_transfers_share_the_tick() {
        // The whole point of the fluid model: 50 unit-size payloads on a
        // 50-unit/tick link all complete one tick later, not one per tick.
        let mut link = Link::new(50, SimDuration::ZERO);
        for _ in 0..50 {
            let timing = link.enqueue(t(0), 1);
            assert_eq!(timing.frees_link, t(1));
        }
        // The 51st spills into the next tick.
        assert_eq!(link.enqueue(t(0), 1).frees_link, t(2));
    }

    #[test]
    fn idle_gap_is_not_counted_busy() {
        let mut link = Link::new(1, SimDuration::ZERO);
        link.enqueue(t(0), 2); // busy [0,2)
        link.enqueue(t(10), 3); // busy [10,13)
        assert_eq!(link.busy_ticks(), 5);
        assert!((link.utilization(t(20)) - 0.25).abs() < 1e-12);
    }

    #[test]
    fn zero_size_transfer_costs_only_latency() {
        let mut link = Link::new(4, SimDuration::from_ticks(2));
        let tt = link.enqueue(t(5), 0);
        assert_eq!(tt.starts, t(5));
        assert_eq!(tt.frees_link, t(5));
        assert_eq!(tt.arrives, t(7));
    }

    #[test]
    fn unconstrained_link_is_instant() {
        let mut link = Link::new(u64::MAX, SimDuration::ZERO);
        let tt = link.enqueue(t(9), 1_000_000);
        assert_eq!(tt.arrives, t(10), "1 tick minimum serialization");
    }

    #[test]
    fn backlog_drains_over_time() {
        let mut link = Link::new(10, SimDuration::ZERO);
        assert_eq!(link.enqueue(t(0), 100).frees_link, t(10));
        // At t=7, 70 units have drained, leaving 30 ahead of 5 more.
        let tt = link.enqueue(t(7), 5);
        assert_eq!(tt.starts, t(10), "starts after the 30 remaining units");
        assert_eq!(tt.frees_link, t(7 + 4), "ceil(35/10) = 4 more ticks");
    }

    #[test]
    fn utilization_is_zero_at_time_zero_and_clamped() {
        let mut link = Link::new(1, SimDuration::ZERO);
        assert_eq!(link.utilization(t(0)), 0.0);
        link.enqueue(t(0), 100); // queued far into the future
        assert!(link.utilization(t(10)) <= 1.0);
    }

    #[test]
    #[should_panic(expected = "non-decreasing time order")]
    fn rejects_out_of_order_enqueue() {
        let mut link = Link::new(1, SimDuration::ZERO);
        link.enqueue(t(5), 1);
        link.enqueue(t(4), 1);
    }

    #[test]
    #[should_panic(expected = "bandwidth must be positive")]
    fn rejects_zero_bandwidth() {
        let _ = Link::new(0, SimDuration::ZERO);
    }
}
