//! The wireless downlink from the base station to the clients in its
//! cell.
//!
//! The paper's introduction singles this hop out: "the wireless downlink
//! ... typically has limited bandwidth. To deliver data to as many
//! clients as possible, it is important to maximize utilization of this
//! bandwidth. If there is too much delay in downloading data from remote
//! sources, some of the available downlink bandwidth may be idle." The
//! [`Downlink`] therefore tracks *idle ticks* — capacity that went unused
//! while the base station was waiting on the fixed network — which the
//! extended experiments report alongside recency.

use basecache_obs::{Attr, Event, Recorder, Sample};
use basecache_sim::{SimDuration, SimTime};

use crate::link::{Link, TransferTiming};
use crate::object::ObjectId;
use crate::topology::ClientId;

/// The wireless last hop: a [`Link`] plus delivery and idleness
/// accounting.
#[derive(Debug, Clone)]
pub struct Downlink {
    link: Link,
    deliveries: u64,
    delivered_units: u64,
    /// Completion time of the latest delivery, for idle accounting.
    last_activity: SimTime,
    /// Ticks during which the downlink had nothing to send.
    idle_ticks: u64,
}

/// Record of one object delivery over the downlink.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Delivery {
    /// The receiving client.
    pub client: ClientId,
    /// The delivered object.
    pub object: ObjectId,
    /// Wire timing of the delivery.
    pub timing: TransferTiming,
}

impl Downlink {
    /// A downlink with the given bandwidth (units/tick) and latency.
    pub fn new(bandwidth_per_tick: u64, latency: SimDuration) -> Self {
        Self {
            link: Link::new(bandwidth_per_tick, latency),
            deliveries: 0,
            delivered_units: 0,
            last_activity: SimTime::ZERO,
            idle_ticks: 0,
        }
    }

    /// Deliver `object` of `size` units to `client`, enqueued at `now`.
    pub fn deliver(
        &mut self,
        now: SimTime,
        client: ClientId,
        object: ObjectId,
        size: u64,
    ) -> Delivery {
        // Any gap between the end of the previous transmission and the
        // start of this one is idle downlink capacity.
        let idle_start = self.last_activity.max(SimTime::ZERO);
        let timing = self.link.enqueue(now, size);
        if timing.starts > idle_start {
            self.idle_ticks += timing.starts.since(idle_start).ticks();
        }
        self.last_activity = timing.frees_link;
        self.deliveries += 1;
        self.delivered_units += size;
        Delivery {
            client,
            object,
            timing,
        }
    }

    /// [`Self::deliver`] with per-entity attribution: the delivered
    /// units are charged to the receiving client and to the object on
    /// the recorder's attribution channels, so a top-K sink can answer
    /// "which clients (and objects) ate the downlink". Physically
    /// identical to [`Self::deliver`] — attribution only reads.
    pub fn deliver_recorded(
        &mut self,
        now: SimTime,
        client: ClientId,
        object: ObjectId,
        size: u64,
        recorder: &dyn Recorder,
    ) -> Delivery {
        let delivery = self.deliver(now, client, object, size);
        if recorder.enabled() {
            recorder.attribute(Attr::DownlinkUnitsByClient, client.0, size);
            recorder.attribute(Attr::DownlinkUnitsByObject, object.0, size);
        }
        delivery
    }

    /// Total data units delivered to clients.
    pub fn delivered_units(&self) -> u64 {
        self.delivered_units
    }

    /// Ticks of downlink capacity that sat idle between transmissions.
    pub fn idle_ticks(&self) -> u64 {
        self.idle_ticks
    }

    /// Fraction of `[0, now]` spent transmitting.
    pub fn utilization(&self, now: SimTime) -> f64 {
        self.link.utilization(now)
    }

    /// Report this downlink's cumulative activity to `recorder`: total
    /// deliveries and delivered units as counters, plus the utilization
    /// gauge over `[0, now]`. Call at report boundaries (end of a run or
    /// of a measurement window), not per delivery — the counters are
    /// cumulative, so per-round calls would double-count.
    pub fn observe(&self, now: SimTime, recorder: &dyn Recorder) {
        if !recorder.enabled() {
            return;
        }
        recorder.add(Event::Deliveries, self.deliveries);
        recorder.add(Event::DeliveredUnits, self.delivered_units);
        recorder.sample(Sample::DownlinkUtilization, self.utilization(now));
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn t(x: u64) -> SimTime {
        SimTime::from_ticks(x)
    }

    #[test]
    fn back_to_back_deliveries_have_no_idle() {
        let mut d = Downlink::new(1, SimDuration::ZERO);
        d.deliver(t(0), ClientId(0), ObjectId(0), 3); // busy [0,3)
        d.deliver(t(1), ClientId(1), ObjectId(1), 2); // queued, busy [3,5)
        assert_eq!(d.idle_ticks(), 0);
        assert_eq!(d.delivered_units(), 5);
    }

    #[test]
    fn waiting_on_remote_data_accumulates_idle() {
        let mut d = Downlink::new(1, SimDuration::ZERO);
        d.deliver(t(0), ClientId(0), ObjectId(0), 2); // busy [0,2)
                                                      // Nothing to send until t=7 (base station stalled on fixed net).
        d.deliver(t(7), ClientId(0), ObjectId(1), 1); // busy [7,8)
        assert_eq!(d.idle_ticks(), 5);
    }

    #[test]
    fn delivery_records_who_got_what() {
        let mut d = Downlink::new(2, SimDuration::from_ticks(1));
        let rec = d.deliver(t(4), ClientId(9), ObjectId(3), 4);
        assert_eq!(rec.client, ClientId(9));
        assert_eq!(rec.object, ObjectId(3));
        assert_eq!(rec.timing.starts, t(4));
        assert_eq!(rec.timing.frees_link, t(6));
        assert_eq!(rec.timing.arrives, t(7));
    }

    #[test]
    fn utilization_reflects_transmission_time() {
        let mut d = Downlink::new(1, SimDuration::ZERO);
        d.deliver(t(0), ClientId(0), ObjectId(0), 5);
        assert!((d.utilization(t(10)) - 0.5).abs() < 1e-12);
    }

    #[test]
    fn observe_reports_cumulative_activity() {
        let mut d = Downlink::new(1, SimDuration::ZERO);
        d.deliver(t(0), ClientId(0), ObjectId(0), 3);
        d.deliver(t(3), ClientId(1), ObjectId(1), 2);
        let rec = basecache_obs::StatsRecorder::new();
        d.observe(t(10), &rec);
        let snap = rec.snapshot();
        assert_eq!(snap.counter("deliveries"), Some(2));
        assert_eq!(snap.counter("delivered_units"), Some(5));
        let util = snap.sample("downlink_utilization").unwrap();
        assert!((util.mean - 0.5).abs() < 1e-12);
        // A disabled recorder costs nothing and records nothing.
        d.observe(t(10), &basecache_obs::NullRecorder);
    }
}
