//! The experiments CLI rejects what it does not know before it runs
//! anything, and a run that could not write its files is a failed run.

use std::path::{Path, PathBuf};
use std::process::{Command, Output};

fn experiments(args: &[&str], dir: &Path) -> Output {
    Command::new(env!("CARGO_BIN_EXE_experiments"))
        .args(args)
        .current_dir(dir)
        .output()
        .expect("run the experiments binary")
}

/// A fresh, empty scratch directory for one test.
fn scratch(name: &str) -> PathBuf {
    let dir = Path::new(env!("CARGO_TARGET_TMPDIR")).join(name);
    let _ = std::fs::remove_dir_all(&dir);
    std::fs::create_dir_all(&dir).expect("create the scratch directory");
    dir
}

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
    assert!(
        stderr.contains("usage: experiments [all|table1|"),
        "{stderr}"
    );
    assert!(run.stdout.is_empty(), "fig4 ran before the check");
    assert!(!out.exists(), "fig4 wrote its CSV before the check");
}

#[test]
fn a_failed_write_is_a_failed_run() {
    let dir = scratch("cli_failed_write");
    std::fs::write(dir.join("afile"), "not a directory").expect("create the blocking file");
    // A one-figure target and a two-figure target both write through
    // the registry's one writer.
    for target in ["fig4", "fig3"] {
        let run = experiments(&[target, "--quick", "--csv", "afile/sub"], &dir);
        assert_eq!(run.status.code(), Some(1), "{target} exited successfully");
        let stderr = String::from_utf8_lossy(&run.stderr);
        assert!(
            stderr.contains(target) && stderr.contains("failed"),
            "{target}: {stderr}"
        );
    }
}

#[test]
fn csv_does_not_take_a_flag_for_its_directory() {
    let dir = scratch("cli_csv_eats_flag");
    let run = experiments(&["fig4", "--csv", "--quick"], &dir);
    assert_eq!(run.status.code(), Some(1));
    let stderr = String::from_utf8_lossy(&run.stderr);
    assert!(stderr.contains("--csv needs a directory"), "{stderr}");
    assert!(stderr.contains("usage: experiments ["), "{stderr}");
    assert!(run.stdout.is_empty(), "fig4 ran at paper size");
    assert!(!dir.join("--quick").exists(), "wrote into ./--quick");
}

#[test]
fn help_prints_usage_and_succeeds() {
    let dir = scratch("cli_help");
    for flag in ["--help", "-h"] {
        let run = experiments(&["fig4", flag], &dir);
        assert_eq!(run.status.code(), Some(0), "{flag}");
        let stdout = String::from_utf8_lossy(&run.stdout);
        assert!(stdout.starts_with("usage: experiments [all|"), "{stdout}");
        assert!(stdout.contains("[--quick] [--csv DIR]"), "{stdout}");
        assert_eq!(stdout.lines().count(), 1, "fig4 ran: {stdout}");
        assert!(run.stderr.is_empty());
    }
}
