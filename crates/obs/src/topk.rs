//! Allocation-free top-K attribution: the Space-Saving (Misra-Gries
//! family) heavy-hitter summary over dense entity ids.
//!
//! Answers "which objects ate the downlink budget" and "which clients
//! saw the worst staleness" with O(K) memory regardless of how many
//! distinct entities flow past. Every reported weight is an upper bound
//! on the true total, overestimated by at most the entry's `error`
//! field; any entity whose true weight exceeds `total_weight / K` is
//! guaranteed to be present in the summary.

use std::cell::RefCell;

use crate::ids::{Attr, Event, Sample, Stage};
use crate::recorder::Recorder;
use crate::snapshot::{AttrSnapshot, Snapshot};

/// One monitored entity in a [`TopK`] summary.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct TopEntry {
    /// Dense entity key (`ObjectId.0` / `ClientId.0`).
    pub key: u32,
    /// Estimated total weight (true weight ≤ this ≤ true + `error`).
    pub weight: u64,
    /// Maximum overestimate inherited when this key evicted the
    /// previous minimum; 0 means the weight is exact.
    pub error: u64,
}

/// A Space-Saving summary of the K heaviest keys in a weighted stream.
///
/// Storage is a fixed array sized at construction; [`TopK::update`] is a
/// linear probe over at most K slots — no hashing, no allocation. K is
/// small by design (a report shows a handful of heavy hitters), so the
/// scan beats a heap's pointer chasing at the sizes that matter.
#[derive(Debug, Clone)]
pub struct TopK {
    k: usize,
    entries: Vec<TopEntry>,
}

impl TopK {
    /// A summary tracking at most `k` keys (min 1). Allocates its slots
    /// here; updates never touch the heap.
    pub fn new(k: usize) -> Self {
        let k = k.max(1);
        Self {
            k,
            entries: Vec::with_capacity(k),
        }
    }

    /// Charge `weight` to `key`.
    pub fn update(&mut self, key: u32, weight: u64) {
        if let Some(e) = self.entries.iter_mut().find(|e| e.key == key) {
            e.weight = e.weight.saturating_add(weight);
            return;
        }
        if self.entries.len() < self.k {
            self.entries.push(TopEntry {
                key,
                weight,
                error: 0,
            });
            return;
        }
        // Evict the current minimum: the newcomer inherits its count as
        // both baseline and error bound (classic Space-Saving).
        let min = self
            .entries
            .iter_mut()
            .min_by_key(|e| e.weight)
            .expect("k >= 1");
        let floor = min.weight;
        *min = TopEntry {
            key,
            weight: floor.saturating_add(weight),
            error: floor,
        };
    }

    /// The monitored keys, heaviest first (ties broken by smaller key
    /// for determinism). Allocates; call at report time.
    pub fn top(&self) -> Vec<TopEntry> {
        let mut out = self.entries.clone();
        out.sort_by(|a, b| b.weight.cmp(&a.weight).then(a.key.cmp(&b.key)));
        out
    }

    /// Forget everything without deallocating the slots.
    pub fn reset(&mut self) {
        self.entries.clear();
    }
}

/// A recorder that folds [`Recorder::attribute`] calls into one [`TopK`]
/// summary per [`Attr`] channel and ignores everything else. Compose
/// with aggregate sinks via [`crate::Tee`].
#[derive(Debug)]
pub struct TopKRecorder {
    channels: RefCell<[TopK; Attr::COUNT]>,
}

impl TopKRecorder {
    /// Track the `k` heaviest entities on every channel.
    pub fn new(k: usize) -> Self {
        Self {
            channels: RefCell::new(std::array::from_fn(|_| TopK::new(k))),
        }
    }

    /// The heavy hitters on one channel, heaviest first.
    pub fn top(&self, attr: Attr) -> Vec<TopEntry> {
        self.channels.borrow()[attr.index()].top()
    }

    /// Forget everything (e.g. at the end of a warm-up phase).
    pub fn reset(&self) {
        for ch in self.channels.borrow_mut().iter_mut() {
            ch.reset();
        }
    }

    /// Render every channel's heavy hitters as CSV, **including the
    /// Space-Saving `error` bound** (the maximum overestimate in
    /// `weight`; 0 means exact) — previously only reachable in-process
    /// via [`TopKRecorder::top`].
    pub fn to_csv(&self) -> String {
        use std::fmt::Write as _;
        let channels = self.channels.borrow();
        let mut out = String::from("channel,label,weight,error\n");
        for attr in Attr::ALL {
            for e in channels[attr.index()].top() {
                let _ = writeln!(
                    out,
                    "{},{},{},{}",
                    attr.name(),
                    attr.label(e.key),
                    e.weight,
                    e.error
                );
            }
        }
        out
    }
}

impl Recorder for TopKRecorder {
    #[inline]
    fn enabled(&self) -> bool {
        true
    }

    #[inline]
    fn add(&self, _event: Event, _n: u64) {}

    #[inline]
    fn sample(&self, _sample: Sample, _value: f64) {}

    #[inline]
    fn span_ns(&self, _stage: Stage, _ns: u64) {}

    fn snapshot(&self) -> Snapshot {
        let channels = self.channels.borrow();
        let mut attrs = Vec::new();
        for attr in Attr::ALL {
            for e in channels[attr.index()].top() {
                attrs.push(AttrSnapshot {
                    channel: attr.name(),
                    label: attr.label(e.key),
                    weight: e.weight,
                    error: e.error,
                });
            }
        }
        Snapshot {
            attrs,
            ..Snapshot::default()
        }
    }

    #[inline]
    fn attribute(&self, attr: Attr, key: u32, weight: u64) {
        self.channels.borrow_mut()[attr.index()].update(key, weight);
    }

    fn as_any(&self) -> &dyn std::any::Any {
        self
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn exact_below_capacity() {
        let mut tk = TopK::new(4);
        tk.update(1, 10);
        tk.update(2, 5);
        tk.update(1, 3);
        let top = tk.top();
        assert_eq!(top.len(), 2);
        assert_eq!((top[0].key, top[0].weight, top[0].error), (1, 13, 0));
        assert_eq!((top[1].key, top[1].weight, top[1].error), (2, 5, 0));
    }

    #[test]
    fn eviction_inherits_the_minimum_as_error_bound() {
        let mut tk = TopK::new(2);
        tk.update(1, 10);
        tk.update(2, 3);
        tk.update(3, 1); // evicts key 2 (weight 3)
        let top = tk.top();
        assert_eq!(top.len(), 2);
        let e3 = top.iter().find(|e| e.key == 3).expect("key 3 monitored");
        assert_eq!(e3.weight, 4, "floor 3 + charged 1");
        assert_eq!(e3.error, 3);
    }

    #[test]
    fn a_true_heavy_hitter_survives_noise() {
        let mut tk = TopK::new(8);
        // Key 999 gets half the total weight; 100 noise keys share the rest.
        for round in 0..50 {
            tk.update(999, 100);
            for k in 0..100u32 {
                tk.update(k, 1 + (round + k as u64) % 2);
            }
        }
        let top = tk.top();
        assert_eq!(top[0].key, 999, "dominant key must be rank 1");
        // Space-Saving guarantee: estimate ≥ true weight.
        assert!(top[0].weight >= 5_000);
    }

    #[test]
    fn ties_order_by_key_for_determinism() {
        let mut tk = TopK::new(4);
        tk.update(9, 5);
        tk.update(2, 5);
        let top = tk.top();
        assert_eq!(top[0].key, 2);
        assert_eq!(top[1].key, 9);
    }

    #[test]
    fn recorder_routes_channels_independently() {
        let rec = TopKRecorder::new(4);
        rec.attribute(Attr::DownlinkUnitsByObject, 7, 40);
        rec.attribute(Attr::DownlinkUnitsByObject, 3, 10);
        rec.attribute(Attr::ServeStalenessByCell, 0, 99);
        let objs = rec.top(Attr::DownlinkUnitsByObject);
        assert_eq!(objs[0].key, 7);
        assert_eq!(objs[1].key, 3);
        assert!(rec.top(Attr::AoiByObject).is_empty());

        let snap = rec.snapshot();
        let downlink: Vec<_> = snap.attrs_on("downlink_units_by_object").collect();
        assert_eq!(downlink.len(), 2);
        assert_eq!(downlink[0].label, "obj#7");
        assert_eq!(downlink[0].weight, 40);
        let stale: Vec<_> = snap.attrs_on("serve_staleness_by_cell").collect();
        assert_eq!(stale[0].label, "cell#0");
    }

    #[test]
    fn csv_export_carries_the_error_bound() {
        let rec = TopKRecorder::new(2);
        rec.attribute(Attr::DownlinkUnitsByObject, 1, 10);
        rec.attribute(Attr::DownlinkUnitsByObject, 2, 3);
        rec.attribute(Attr::DownlinkUnitsByObject, 3, 1); // evicts key 2
        let csv = rec.to_csv();
        let lines: Vec<&str> = csv.lines().collect();
        assert_eq!(lines[0], "channel,label,weight,error");
        assert!(lines.contains(&"downlink_units_by_object,obj#1,10,0"));
        assert!(
            lines.contains(&"downlink_units_by_object,obj#3,4,3"),
            "evicting entry inherits the minimum as error bound: {csv}"
        );
    }

    #[test]
    fn reset_clears_every_channel() {
        let rec = TopKRecorder::new(2);
        rec.attribute(Attr::DownlinkUnitsByObject, 1, 1);
        rec.reset();
        assert!(rec.snapshot().is_empty());
    }
}
