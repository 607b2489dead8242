//! Everything in this repository is seeded: identical invocations must
//! produce byte-identical artifacts, including under parallel sweeps.

use basecache_experiments::{table1, TARGETS};

#[test]
fn figure_csvs_are_byte_identical_across_runs() {
    // Every row, twice, CI-sized. Most fan their points over worker
    // threads; scheduling order must not leak into the output.
    for row in TARGETS {
        let first = (row.run)(true);
        let second = (row.run)(true);
        assert_eq!(
            first.text, second.text,
            "{} must be deterministic",
            row.name
        );
        assert_eq!(first.files(), second.files(), "{}", row.name);
    }
}

#[test]
fn table1_audit_is_reproducible() {
    assert_eq!(table1::run(4), table1::run(4));
    assert_ne!(table1::run(4), table1::run(5), "different seeds differ");
}
