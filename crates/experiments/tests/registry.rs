//! Every row of `TARGETS` runs (CI-sized) and yields well-formed output,
//! the rows `all` includes are exactly what `results/` holds, and
//! EXPERIMENTS.md names exactly the experiments the table has.

use std::collections::{BTreeMap, BTreeSet};
use std::path::Path;

use basecache_experiments::report::Output;
use basecache_experiments::TARGETS;

#[test]
fn every_target_runs_and_yields_well_formed_output() {
    let outputs: BTreeMap<&str, Output> = TARGETS
        .iter()
        .map(|row| (row.name, (row.run)(true)))
        .collect();
    assert_eq!(
        outputs.len(),
        TARGETS.len(),
        "a target name is listed twice"
    );

    let mut files = BTreeSet::new();
    let mut files_of_all = BTreeSet::new();
    for row in TARGETS {
        let output = &outputs[row.name];
        assert!(!output.text.is_empty(), "{} prints nothing", row.name);
        for (file, contents) in output.files() {
            assert!(files.insert(file), "{file} is written by two targets");
            assert!(!contents.is_empty(), "{file} is empty");
            if row.in_all {
                files_of_all.insert(file.to_string());
            }
        }
        for (file, figure) in &output.figures {
            assert!(!figure.series.is_empty(), "{file}: no series");
            for series in &figure.series {
                let label = &series.label;
                assert!(!series.points.is_empty(), "{file}: {label} is empty");
                for &(x, y) in &series.points {
                    assert!(x.is_finite() && y.is_finite(), "{file}: {label} ({x}, {y})");
                }
            }
            // The header is the x label followed by the series labels
            // (a label holding a comma is quoted, so compare unquoted).
            let csv = figure.to_csv();
            let header = csv.lines().next().expect("a header line").replace('"', "");
            let labels: Vec<&str> = figure.series.iter().map(|s| s.label.as_str()).collect();
            assert_eq!(
                header,
                format!("{},{}", figure.x_label, labels.join(",")),
                "{file}"
            );
        }
    }

    // `all` writes exactly the checked-in results.
    let results = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results");
    let checked_in: BTreeSet<String> = std::fs::read_dir(&results)
        .unwrap_or_else(|e| panic!("read {}: {e}", results.display()))
        .map(|entry| {
            entry
                .expect("directory entry")
                .file_name()
                .to_string_lossy()
                .into_owned()
        })
        .collect();
    assert_eq!(files_of_all, checked_in);

    // What the shell smoke runs used to grep for.
    let figure_of = |target: &str| &outputs[target].figures[0].1;
    assert!(figure_of("ext-flash-crowd")
        .x_label
        .starts_with("spike intensity"));
    assert!(figure_of("ext-cluster")
        .x_label
        .starts_with("number of cells"));
    let l2_labels: Vec<&str> = figure_of("ext-cluster-l2")
        .series
        .iter()
        .map(|s| s.label.as_str())
        .collect();
    assert!(
        l2_labels
            .iter()
            .any(|label| label.contains("origin bandwidth saved")),
        "{l2_labels:?}"
    );
}

#[test]
fn experiments_md_names_every_row_and_no_missing_one() {
    let path = Path::new(env!("CARGO_MANIFEST_DIR")).join("../../EXPERIMENTS.md");
    let doc =
        std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("read {}: {e}", path.display()));
    for row in TARGETS {
        assert!(
            doc.contains(&format!("`{}`", row.name)),
            "EXPERIMENTS.md never names `{}`",
            row.name
        );
    }

    let names: BTreeSet<&str> = TARGETS.iter().map(|row| row.name).collect();
    let extensions = doc
        .split("\n## Extensions")
        .nth(1)
        .expect("EXPERIMENTS.md has an Extensions section");
    let section = extensions.split("\n## ").next().unwrap_or_default();
    let cited: Vec<&str> = section
        .lines()
        .filter(|line| line.starts_with('|'))
        .flat_map(|line| line.split('`').skip(1).step_by(2))
        .filter(|token| token.starts_with("ext-"))
        .collect();
    assert!(
        !cited.is_empty(),
        "the Extensions table cites no experiment"
    );
    for name in cited {
        assert!(
            names.contains(name),
            "EXPERIMENTS.md's Extensions table cites `{name}`, which TARGETS lacks"
        );
    }
}
