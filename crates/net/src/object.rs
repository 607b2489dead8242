//! The shared object model: identifiers, versions and the catalog of
//! objects the remote servers export.

use std::fmt;

/// Identifier of a data object hosted by a remote server.
///
/// Objects are dense-indexed (`0..catalog.len()`), which lets every
/// per-object table in the simulator be a flat `Vec`.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct ObjectId(pub u32);

impl ObjectId {
    /// The id as a `usize` index into per-object tables.
    #[inline]
    pub fn index(self) -> usize {
        self.0 as usize
    }
}

impl fmt::Display for ObjectId {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "obj#{}", self.0)
    }
}

/// A monotonically increasing per-object version number. The server's
/// version advances on every update; a cached copy is *stale* when its
/// version is behind the server's.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub struct Version(pub u64);

impl Version {
    /// The version of a freshly created object.
    pub const INITIAL: Version = Version(0);

    /// The next version.
    #[inline]
    pub fn next(self) -> Version {
        Version(self.0 + 1)
    }

    /// How many updates separate `self` (older or equal) from `newer`.
    ///
    /// # Panics
    ///
    /// Panics if `newer` is older than `self`.
    #[inline]
    pub fn lag(self, newer: Version) -> u64 {
        newer
            .0
            .checked_sub(self.0)
            .expect("version lag computed against an older version")
    }
}

/// The immutable set of objects exported by the remote servers: one
/// size in data units per object, indexed by id (the paper's objects
/// range over `[1, 20]`).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Catalog {
    sizes: Vec<u64>,
}

impl Catalog {
    /// Build a catalog from per-object sizes; object `i` gets id `i`.
    pub fn from_sizes(sizes: &[u64]) -> Self {
        Self {
            sizes: sizes.to_vec(),
        }
    }

    /// A catalog of `n` unit-size objects (the paper's Section 3 setup).
    pub fn uniform_unit(n: usize) -> Self {
        Self::from_sizes(&vec![1; n])
    }

    /// Size of one object in data units.
    #[inline]
    pub fn size_of(&self, id: ObjectId) -> u64 {
        self.sizes[id.index()]
    }

    /// Number of objects.
    #[inline]
    pub fn len(&self) -> usize {
        self.sizes.len()
    }

    /// Whether the catalog is empty.
    #[inline]
    pub fn is_empty(&self) -> bool {
        self.sizes.is_empty()
    }

    /// Total size of all objects (the paper's Section 4 catalog totals
    /// 5000 units over 500 objects).
    pub fn total_size(&self) -> u64 {
        self.sizes.iter().sum()
    }

    /// Iterate over all object ids.
    pub fn ids(&self) -> impl Iterator<Item = ObjectId> + '_ {
        (0..self.sizes.len() as u32).map(ObjectId)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn catalog_from_sizes_assigns_dense_ids() {
        let c = Catalog::from_sizes(&[3, 1, 4]);
        assert_eq!(c.len(), 3);
        assert_eq!(c.size_of(ObjectId(1)), 1);
        assert_eq!(c.size_of(ObjectId(2)), 4);
        assert_eq!(c.total_size(), 8);
        let ids: Vec<_> = c.ids().collect();
        assert_eq!(ids, vec![ObjectId(0), ObjectId(1), ObjectId(2)]);
    }

    #[test]
    fn uniform_unit_catalog_matches_paper_setup() {
        let c = Catalog::uniform_unit(500);
        assert_eq!(c.len(), 500);
        assert_eq!(c.total_size(), 500);
        assert!(c.ids().all(|id| c.size_of(id) == 1));
    }

    #[test]
    fn version_advances_and_measures_lag() {
        let v = Version::INITIAL;
        let v3 = v.next().next().next();
        assert_eq!(v3, Version(3));
        assert_eq!(v.lag(v3), 3);
        assert_eq!(v3.lag(v3), 0);
    }

    #[test]
    #[should_panic(expected = "older version")]
    fn lag_panics_when_reversed() {
        let _ = Version(3).lag(Version(1));
    }

    #[test]
    fn display_forms() {
        assert_eq!(ObjectId(7).to_string(), "obj#7");
    }
}
