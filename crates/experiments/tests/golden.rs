//! The golden results: `experiments all --csv <dir>` reproduces every
//! file under `results/` byte for byte — no file missing, none extra.
//!
//! The seeds are fixed, so the five policy arms, the estimators, the
//! in-flight ledger, the cluster and the latency pipeline are all pinned
//! by the checked-in CSVs. A change that means to move a number
//! regenerates them (`-- all --csv results`) and says so.

use std::collections::BTreeMap;
use std::path::Path;
use std::process::Command;

fn read_dir(dir: &Path) -> BTreeMap<String, Vec<u8>> {
    std::fs::read_dir(dir)
        .unwrap_or_else(|e| panic!("read {}: {e}", dir.display()))
        .map(|entry| {
            let path = entry.expect("directory entry").path();
            let name = path
                .file_name()
                .expect("entries have names")
                .to_string_lossy()
                .into_owned();
            let bytes = std::fs::read(&path).unwrap_or_else(|e| panic!("read {name}: {e}"));
            (name, bytes)
        })
        .collect()
}

#[test]
fn every_experiment_reproduces_results_byte_for_byte() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("golden");
    // A stale file from an earlier run would read as an extra one.
    let _ = std::fs::remove_dir_all(&out);
    let status = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["all", "--csv"])
        .arg(&out)
        .stdout(std::process::Stdio::null())
        .status()
        .expect("run the experiments binary");
    assert!(status.success(), "experiments all exited with {status}");

    let golden = read_dir(&Path::new(env!("CARGO_MANIFEST_DIR")).join("../../results"));
    let fresh = read_dir(&out);
    assert_eq!(
        fresh.keys().collect::<Vec<_>>(),
        golden.keys().collect::<Vec<_>>(),
        "the set of files written differs from results/"
    );
    for (name, bytes) in &golden {
        assert!(fresh[name] == *bytes, "{name} differs from results/{name}");
    }
}
