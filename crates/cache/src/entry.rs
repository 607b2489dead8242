use basecache_net::{ObjectId, Version};
use basecache_sim::SimTime;

/// One cached copy of a remote object.
///
/// The entry records *which* version the base station holds and when it
/// fetched it; how stale that makes the copy (the recency score) is
/// policy — computed by `basecache-core`'s recency model from the version
/// lag against the authoritative server.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct CacheEntry {
    /// The cached object.
    pub object: ObjectId,
    /// Size in data units (a cached copy occupies its full size).
    pub size: u64,
    /// The version of the copy the base station holds.
    pub version: Version,
    /// When the copy was downloaded from the remote server.
    pub fetched_at: SimTime,
}

impl CacheEntry {
    /// Construct an entry.
    pub fn new(object: ObjectId, size: u64, version: Version, fetched_at: SimTime) -> Self {
        Self {
            object,
            size,
            version,
            fetched_at,
        }
    }

    /// How many server updates this copy has missed, given the server's
    /// current version.
    pub fn lag(&self, server_version: Version) -> u64 {
        self.version.lag(server_version)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn lag_and_freshness() {
        let e = CacheEntry::new(ObjectId(1), 4, Version(2), SimTime::from_ticks(10));
        assert_eq!(e.lag(Version(5)), 3);
        assert_eq!(e.lag(Version(2)), 0);
    }
}
