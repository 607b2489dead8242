//! Version races on the regional coherence channel.
//!
//! The L2 tier's correctness hinges on one property of the
//! [`VersionBus`]: **a copy invalidated while its transfer was on the
//! wire can never be served as fresh**. A cell that launched a fetch of
//! version `v` publishes `v` on arrival; if a neighbor meanwhile landed
//! `v+1`, the stale publish must lose the race ([`PublishOutcome::Stale`])
//! and every later lookup must keep answering with the freshest version
//! ever published — monotonicity is the whole guarantee.
//!
//! One deterministic pinned interleaving, then the randomized script
//! harness (in-flight transfers with arbitrary delays against a server
//! applying updates mid-flight).

use basecache_net::{Catalog, ObjectId, PublishOutcome, Version, VersionBus};

/// The pinned race from the issue: cell 0's fetch of v1 is invalidated
/// mid-flight by cell 1 landing v2; the late v1 arrival must not
/// resurrect the stale version.
#[test]
fn stale_arrival_never_overrides_a_fresher_copy() {
    let catalog = Catalog::uniform_unit(4);
    let mut bus = VersionBus::new(&catalog);
    let obj = ObjectId(2);

    // Round 0: cell 0 launches a fetch of version 1 (in flight 3 rounds).
    let in_flight = Version(1);

    // Round 1: the server updates the object; cell 1 fetches version 2
    // on a faster path and publishes it.
    assert_eq!(bus.publish(obj, Version(2), 1), PublishOutcome::Installed);

    // Round 3: cell 0's transfer finally arrives carrying version 1 —
    // invalidated while on the wire. Publishing it loses the race.
    assert_eq!(
        bus.publish(obj, in_flight, 0),
        PublishOutcome::Stale {
            current: Version(2)
        }
    );

    // A cell about to serve from L2 asks for exactly the directory
    // version: the stale copy is not joinable, the fresh one is.
    assert!(!bus.holds(obj, in_flight), "stale copy must not serve");
    assert!(bus.holds(obj, Version(2)));
    assert_eq!(bus.lookup(obj), Some((Version(2), 1)));
    assert_eq!(bus.invalidations(), 0, "losing a race retires nothing");
}

mod random_scripts {
    use super::*;
    use basecache_sim::RngStreams;

    const OBJECTS: u32 = 8;
    const CELLS: u32 = 6;
    const STEPS: usize = 400;

    /// Random interleavings of launches, mid-flight server updates and
    /// delayed arrivals. After every step:
    ///
    /// 1. the directory never answers with a version older than the
    ///    freshest successfully published one (monotone lookups);
    /// 2. `holds` rejects every version below that watermark — the
    ///    "never serve a mid-flight-invalidated copy as fresh" property;
    /// 3. a publish older than the watermark reports `Stale` and leaves
    ///    the directory untouched.
    #[test]
    fn random_interleavings_keep_the_directory_monotone() {
        for seed in 0..32u64 {
            let catalog = Catalog::uniform_unit(OBJECTS as usize);
            let mut rng = RngStreams::new(seed).stream("net/version-races");
            let mut bus = VersionBus::new(&catalog);
            // Per-object server-side version (updates bump it).
            let mut server = vec![1u64; OBJECTS as usize];
            // In-flight transfers: (arrive_step, object, version, cell).
            let mut flights: Vec<(usize, u32, u64, u32)> = Vec::new();
            // Freshest version successfully published per object.
            let mut watermark = vec![0u64; OBJECTS as usize];

            for step in 0..STEPS {
                match rng.random_range(0..4u32) {
                    // A cell launches a fetch of the *current* version
                    // with a random wire delay.
                    0 => {
                        let o = rng.random_range(0..OBJECTS);
                        let cell = rng.random_range(0..CELLS);
                        let delay = rng.random_range(1..6u32) as usize;
                        flights.push((step + delay, o, server[o as usize], cell));
                    }
                    // The server updates an object mid-everything.
                    1 => {
                        let o = rng.random_range(0..OBJECTS) as usize;
                        server[o] += 1;
                    }
                    // A cell re-publishes an old version on purpose (a
                    // buggy or raced publisher).
                    2 => {
                        let o = rng.random_range(0..OBJECTS);
                        let cell = rng.random_range(0..CELLS);
                        let stale = rng.random_range(0..server[o as usize].max(1) as u32);
                        let before = bus.lookup(ObjectId(o));
                        let outcome = bus.publish(ObjectId(o), Version(u64::from(stale)), cell);
                        if u64::from(stale) < watermark[o as usize] {
                            assert!(
                                matches!(outcome, PublishOutcome::Stale { .. }),
                                "seed {seed} step {step}: stale publish must lose"
                            );
                            assert_eq!(
                                bus.lookup(ObjectId(o)),
                                before,
                                "seed {seed} step {step}: directory clobbered"
                            );
                        } else {
                            watermark[o as usize] = watermark[o as usize].max(u64::from(stale));
                        }
                    }
                    // Deliver every transfer due this step.
                    _ => {
                        let mut i = 0;
                        while i < flights.len() {
                            if flights[i].0 <= step {
                                let (_, o, v, cell) = flights.swap_remove(i);
                                let outcome = bus.publish(ObjectId(o), Version(v), cell);
                                if v < watermark[o as usize] {
                                    assert!(
                                        matches!(outcome, PublishOutcome::Stale { .. }),
                                        "seed {seed} step {step}: invalidated-in-flight \
                                         copy served fresh"
                                    );
                                } else {
                                    watermark[o as usize] = v;
                                }
                            } else {
                                i += 1;
                            }
                        }
                    }
                }
                // Global invariants after every step.
                for o in 0..OBJECTS {
                    let mark = watermark[o as usize];
                    match bus.lookup(ObjectId(o)) {
                        Some((v, _)) => {
                            assert_eq!(
                                v.0, mark,
                                "seed {seed} step {step}: lookup below watermark"
                            );
                            for stale in 0..mark {
                                assert!(
                                    !bus.holds(ObjectId(o), Version(stale)),
                                    "seed {seed} step {step}: stale version joinable"
                                );
                            }
                        }
                        None => assert_eq!(mark, 0, "seed {seed}: published entry vanished"),
                    }
                }
            }
        }
    }
}
