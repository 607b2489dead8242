//! Experiment CLI: regenerate the paper's tables and figures.
//!
//! ```text
//! experiments [all|TARGET]... [--quick] [--csv DIR]
//! ```
//!
//! The targets are the rows of [`basecache_experiments::TARGETS`]; this
//! file names none of them. No target means `all`. Anything that cannot
//! be done is an error, reported on stderr with exit status 1: an
//! unknown target or flag or a `--csv` without a directory (usage is
//! printed and nothing runs), and a file that cannot be written.
//! `--help` prints the usage on stdout and exits 0.

use std::path::PathBuf;
use std::process::ExitCode;

use basecache_experiments::TARGETS;

struct Options {
    /// Target names as given (each checked against [`TARGETS`] or `all`).
    targets: Vec<String>,
    quick: bool,
    csv_dir: Option<PathBuf>,
}

/// `Ok(None)` is `--help`.
fn parse_args(mut args: impl Iterator<Item = String>) -> Result<Option<Options>, String> {
    let mut options = Options {
        targets: Vec::new(),
        quick: false,
        csv_dir: None,
    };
    while let Some(arg) = args.next() {
        match arg.as_str() {
            "--quick" => options.quick = true,
            // A flag where the directory belongs is a forgotten value,
            // not a directory called `--quick`.
            "--csv" => match args.next().filter(|dir| !dir.starts_with('-')) {
                Some(dir) => options.csv_dir = Some(PathBuf::from(dir)),
                None => return Err("--csv needs a directory argument".to_string()),
            },
            "--help" | "-h" => return Ok(None),
            t if t == "all" || TARGETS.iter().any(|row| row.name == t) => {
                options.targets.push(arg);
            }
            t if t.starts_with('-') => return Err(format!("unknown flag `{t}`")),
            t => return Err(format!("unknown target `{t}`")),
        }
    }
    Ok(Some(options))
}

fn usage() -> String {
    let names: Vec<&str> = TARGETS.iter().map(|row| row.name).collect();
    format!(
        "usage: experiments [all|{}]... [--quick] [--csv DIR]",
        names.join("|")
    )
}

fn main() -> ExitCode {
    let options = match parse_args(std::env::args().skip(1)) {
        Ok(Some(options)) => options,
        Ok(None) => {
            println!("{}", usage());
            return ExitCode::SUCCESS;
        }
        Err(msg) => {
            eprintln!("{msg}\n{}", usage());
            return ExitCode::FAILURE;
        }
    };
    let named = |name: &str| options.targets.iter().any(|t| t == name);
    let all = options.targets.is_empty() || named("all");

    for row in TARGETS {
        if !(all || named(row.name)) {
            continue;
        }
        let output = (row.run)(options.quick);
        println!("{}", output.text);
        if let Some(dir) = &options.csv_dir {
            match output.write_to(dir) {
                Ok(paths) => paths
                    .iter()
                    .for_each(|path| println!("  (written to {})", path.display())),
                Err(e) => {
                    eprintln!("{}: writing to {} failed: {e}", row.name, dir.display());
                    return ExitCode::FAILURE;
                }
            }
        }
    }
    ExitCode::SUCCESS
}
