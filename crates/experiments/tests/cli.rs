//! The experiments CLI rejects what it does not know before it runs
//! anything.

use std::path::Path;
use std::process::Command;

#[test]
fn an_unknown_target_fails_before_any_experiment_runs() {
    let out = Path::new(env!("CARGO_TARGET_TMPDIR")).join("cli_unknown_target");
    let _ = std::fs::remove_dir_all(&out);
    let run = Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(["fig4", "bogus", "--quick", "--csv"])
        .arg(&out)
        .output()
        .expect("run the experiments binary");
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("unknown target `bogus`"), "{stderr}");
    assert!(stderr.contains("usage: experiments [all|fig2|"), "{stderr}");
    assert!(run.stdout.is_empty(), "fig4 ran before the check");
    assert!(!out.exists(), "fig4 wrote its CSV before the check");
}
