//! `figures` — regenerate the paper's tables and figures.
//!
//! ```text
//! figures [--list] [EXHIBIT...]
//!
//! EXHIBIT: 2a 2b 2c 3a 3b 3c 4 5 tab1 tab4 rec6 | all (default)
//! ```
//!
//! Each exhibit prints its text table to stdout and writes a JSON file
//! into `results/`. Unknown exhibits abort before anything runs, with a
//! non-zero exit status. `--list` prints the valid exhibit names.

use nsai_bench::cli::{emit, Cli};
use nsai_bench::CharacterizationSet;
use nsai_bench::{fig2a, fig2b, fig2c, fig3a, fig3b, fig3c, fig4, fig5, rec6, tab1, tab4};
use std::fs;
use std::path::Path;

fn write_json<T: serde::Serialize>(name: &str, rows: &T) {
    let dir = Path::new("results");
    if fs::create_dir_all(dir).is_err() {
        eprintln!("warning: could not create results/; skipping JSON export");
        return;
    }
    let path = dir.join(format!("{name}.json"));
    match serde_json::to_string_pretty(rows) {
        Ok(json) => {
            if let Err(e) = fs::write(&path, json) {
                eprintln!("warning: could not write {}: {e}", path.display());
            }
        }
        Err(e) => eprintln!("warning: could not serialize {name}: {e}"),
    }
}

/// Every exhibit this binary can regenerate, in presentation order.
const EXHIBITS: [&str; 11] = [
    "2a", "2b", "2c", "3a", "3b", "3c", "4", "5", "tab1", "tab4", "rec6",
];

const USAGE: &str = "figures [--list] [EXHIBIT...]";

fn main() {
    let mut cli = Cli::from_env(USAGE);
    let mut args: Vec<String> = Vec::new();
    while let Some(arg) = cli.next_arg() {
        args.push(arg);
    }
    if args.iter().any(|a| a == "--help" || a == "-h") {
        emit(format_args!(
            "figures — regenerate the ISPASS 2024 tables and figures\n\n\
             usage: figures [--list] [EXHIBIT...]\n\n\
             EXHIBIT: {} | all (default)\n\n\
             Each exhibit prints its text table to stdout and writes\n\
             results/<exhibit>.json. --list prints the valid exhibit\n\
             names, one per line.\n",
            EXHIBITS.join(" ")
        ));
        return;
    }
    if args.iter().any(|a| a == "--list") {
        emit(EXHIBITS.join("\n") + "\n");
        return;
    }
    let unknown: Vec<&String> = args
        .iter()
        .filter(|a| *a != "all" && !EXHIBITS.contains(&a.as_str()))
        .collect();
    if !unknown.is_empty() {
        for exhibit in &unknown {
            eprintln!("error: unknown exhibit `{exhibit}`");
        }
        cli.bail(format!("valid exhibits: {} (or `all`)", EXHIBITS.join(" ")));
    }
    let wanted: Vec<String> = if args.is_empty() || args.iter().any(|a| a == "all") {
        EXHIBITS.iter().map(|s| s.to_string()).collect()
    } else {
        args
    };
    let needs_set = wanted
        .iter()
        .any(|w| matches!(w.as_str(), "2a" | "3a" | "3b" | "3c" | "4"));
    let set = if needs_set {
        eprintln!("running all seven workloads under the profiler...");
        Some(CharacterizationSet::collect())
    } else {
        None
    };

    // A reader that closes stdout (`figures all | head`) stops the
    // printing, not the JSON exports.
    let mut printing = true;
    for exhibit in &wanted {
        let text = match exhibit.as_str() {
            "2a" => {
                let rows = fig2a::generate(set.as_ref().expect("collected"));
                write_json("fig2a", &rows);
                fig2a::render(&rows)
            }
            "2b" => {
                let rows = fig2b::generate();
                write_json("fig2b", &rows);
                fig2b::render(&rows)
            }
            "2c" => {
                let rows = fig2c::generate();
                write_json("fig2c", &rows);
                fig2c::render(&rows)
            }
            "3a" => {
                let rows = fig3a::generate(set.as_ref().expect("collected"));
                write_json("fig3a", &rows);
                fig3a::render(&rows)
            }
            "3b" => {
                let rows = fig3b::generate(set.as_ref().expect("collected"));
                write_json("fig3b", &rows);
                fig3b::render(&rows)
            }
            "3c" => {
                let rows = fig3c::generate(set.as_ref().expect("collected"));
                write_json("fig3c", &rows);
                fig3c::render(&rows)
            }
            "4" => {
                let rows = fig4::generate(set.as_ref().expect("collected"));
                write_json("fig4", &rows);
                fig4::render(&rows)
            }
            "5" => {
                let rows = fig5::generate();
                write_json("fig5", &rows);
                fig5::render(&rows)
            }
            "tab1" => {
                let rows = tab1::generate();
                write_json("tab1", &rows);
                tab1::render(&rows)
            }
            "tab4" => {
                let rows = tab4::generate(8);
                write_json("tab4", &rows);
                tab4::render(&rows)
            }
            "rec6" => {
                let rows = rec6::generate();
                write_json("rec6", &rows);
                rec6::render(&rows)
            }
            // Arguments were validated up front; this arm is unreachable
            // but keeps the match exhaustive.
            other => unreachable!("exhibit `{other}` passed validation but has no handler"),
        };
        printing = printing && emit(text + "\n");
    }
}
