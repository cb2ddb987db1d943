//! The canonical at-scale benchmark of the BLAST library.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload <ingest-serve-blast|ingest-wep-b1000|batch-dbp> \
//!     --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Run from the repository root. One in-process runner drives the
//! library's public API; inputs are generated from `--seed`. The last line
//! of standard output is one JSON object: `correct`, `attempted`, `failed`
//! and `metrics` (the end-to-end metrics with `--trace 0`, the per-layer
//! metrics with `--trace 1`). Any failed correctness gate makes the exit
//! code 1. A results file and, when traced, the span journal are written
//! under `perfbench/results/`. See `perfbench/README.md` for the metric
//! definitions.

mod batch;
mod data;
mod ingest;
mod reader;
mod report;
mod trace;

use report::Report;
use std::path::Path;
use std::time::Instant;
use trace::Tracer;

/// The workloads, by name.
const WORKLOADS: &[&str] = &["ingest-serve-blast", "ingest-wep-b1000", "batch-dbp"];

/// Parsed command line.
struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut argv = std::env::args().skip(1);
    while let Some(flag) = argv.next() {
        let value = argv
            .next()
            .ok_or_else(|| format!("{flag} expects a value"))?;
        let bad = |what: &str| format!("{flag} expects {what}, got {value:?}");
        match flag.as_str() {
            "--workload" if WORKLOADS.contains(&value.as_str()) => workload = Some(value),
            "--workload" => return Err(bad(&WORKLOADS.join("|"))),
            "--seed" => seed = Some(value.parse().map_err(|_| bad("an integer"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|_| bad("a number of seconds"))?;
                if !(s > 0.0 && s <= 600.0) {
                    return Err(bad("a number of seconds in (0, 600]"));
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err(bad("0 or 1")),
                })
            }
            _ => return Err(format!("unknown option {flag}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn main() {
    let args = match parse_args() {
        Ok(a) => a,
        Err(e) => {
            eprintln!("perfbench: {e}");
            eprintln!(
                "usage: perfbench --workload <{}> --seed <n> --seconds <s> --trace <0|1>",
                WORKLOADS.join("|")
            );
            std::process::exit(2);
        }
    };

    let started = Instant::now();
    let mut tracer = Tracer::new(args.trace, started, 0);
    let mut report = Report::new();
    match args.workload.as_str() {
        "ingest-serve-blast" => ingest::run(
            &ingest::SERVE_BLAST,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
            &mut report,
        ),
        "ingest-wep-b1000" => ingest::run(
            &ingest::WEP_B1000,
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
            &mut report,
        ),
        "batch-dbp" => batch::run(
            args.seed,
            args.seconds,
            args.trace,
            &mut tracer,
            &mut report,
        ),
        other => unreachable!("workload {other} passed validation"),
    }
    report.set(
        "error_ratio",
        report::ratio(report.failed as f64, report.attempted as f64),
    );

    let nproc = std::thread::available_parallelism().map_or(0, |n| n.get());
    let provenance = format!(
        "{{\"workload\": \"{}\", \"seed\": {}, \"seconds\": {}, \"trace\": {}, \"git_sha\": \"{}\", \"source_digest\": \"{:016x}\", \"nproc\": {nproc}, \"wall_s\": {}}}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace),
        git_sha().unwrap_or_else(|| "unknown".to_string()),
        source_digest(),
        started.elapsed().as_secs_f64(),
    );
    let stem = format!(
        "{}-seed{}-trace{}",
        args.workload,
        args.seed,
        u8::from(args.trace)
    );
    let line = report.result_line(args.trace);
    if let Err(e) = write_results(&stem, &provenance, &report, &tracer) {
        report
            .notes
            .push(format!("could not write perfbench/results: {e}"));
    }
    for note in &report.notes {
        println!("# {note}");
    }
    println!("# provenance: {provenance}");
    println!("{line}");
    if !report.correct {
        std::process::exit(1);
    }
}

fn write_results(
    stem: &str,
    provenance: &str,
    report: &Report,
    tracer: &Tracer,
) -> std::io::Result<()> {
    let dir = Path::new("perfbench/results");
    std::fs::create_dir_all(dir)?;
    let body = format!(
        "{{\"provenance\": {provenance}, \"correct\": {}, \"attempted\": {}, \"failed\": {}, \"values\": {}}}\n",
        report.correct,
        report.attempted,
        report.failed,
        report.values_json()
    );
    std::fs::write(dir.join(format!("{stem}.json")), body)?;
    if tracer.enabled() {
        tracer.write_jsonl(&dir.join(format!("{stem}.spans.jsonl")))?;
    }
    Ok(())
}

/// The commit the sources came from, when run inside a git checkout.
fn git_sha() -> Option<String> {
    let head = std::fs::read_to_string(".git/HEAD").ok()?;
    let head = head.trim();
    match head.strip_prefix("ref: ") {
        Some(reference) => std::fs::read_to_string(Path::new(".git").join(reference))
            .ok()
            .map(|s| s.trim().to_string()),
        None => Some(head.to_string()),
    }
}

/// FNV-1a over the library and benchmark sources (path and content of
/// every `.rs`, `.toml` and `.lock` file), identifying the code measured
/// when no git metadata is present.
fn source_digest() -> u64 {
    let mut files = Vec::new();
    for root in [
        "Cargo.toml",
        "Cargo.lock",
        "src",
        "crates",
        "perfbench/src",
        "perfbench/Cargo.toml",
    ] {
        collect_sources(Path::new(root), &mut files);
    }
    files.sort();
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for path in files {
        let content = std::fs::read(&path).unwrap_or_default();
        for byte in path.to_string_lossy().bytes().chain(content) {
            h ^= u64::from(byte);
            h = h.wrapping_mul(0x0100_0000_01b3);
        }
    }
    h
}

fn collect_sources(path: &Path, out: &mut Vec<std::path::PathBuf>) {
    if path.is_dir() {
        let Ok(entries) = std::fs::read_dir(path) else {
            return;
        };
        for entry in entries.flatten() {
            collect_sources(&entry.path(), out);
        }
    } else if matches!(
        path.extension().and_then(|e| e.to_str()),
        Some("rs" | "toml" | "lock")
    ) {
        out.push(path.to_path_buf());
    }
}
