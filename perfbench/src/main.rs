//! The repository benchmark: one command per workload.
//!
//! ```text
//! cargo run --release --manifest-path perfbench/Cargo.toml -- \
//!     --workload compile-zoo|infer-zoo|serve-online --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it prints the workload's end-to-end metrics, measured
//! with tracing off; with `--trace 1` it records spans around every call
//! into a layer, writes them to `perfbench/out/` as Chrome trace-event
//! JSON and prints the per-layer metrics. Every workload reports the
//! same metrics, those `BENCHMARK.json` lists for the mode. The last line
//! of standard output is the JSON result; the exit code is non-zero when
//! a correctness check failed. Metrics that do not match the manifest end
//! the run with a non-zero exit code and no result line. See
//! `perfbench/README.md`.

mod compile_zoo;
mod infer_zoo;
mod measure;
mod models;
mod report;
mod serve_online;
mod trace;

use measure::Outcome;
use std::path::Path;
use vmcu_bench::json::Json;

/// The benchmark manifest at the repository root.
const MANIFEST: &str = include_str!("../../BENCHMARK.json");

/// Parsed command line.
pub struct Args {
    /// Workload name.
    pub workload: String,
    /// Seed every generated input derives from.
    pub seed: u64,
    /// Measurement time, seconds.
    pub seconds: f64,
    /// Whether this is the traced run.
    pub trace: bool,
}

/// The seed the committed infer-zoo cell list was derived with.
pub const DEFAULT_SEED: u64 = 2024;

fn usage(why: &str) -> ! {
    eprintln!(
        "perfbench: {why}\nusage: perfbench --workload compile-zoo|infer-zoo|serve-online \
         [--seed N] [--seconds S] [--trace 0|1]\n       perfbench --list-infer-cells [--seed N]"
    );
    std::process::exit(2);
}

fn main() {
    let mut args = Args {
        workload: String::new(),
        seed: DEFAULT_SEED,
        seconds: 10.0,
        trace: false,
    };
    let mut list_cells = false;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let mut value = || {
            it.next()
                .unwrap_or_else(|| usage(&format!("{flag} needs a value")))
        };
        match flag.as_str() {
            "--workload" => args.workload = value(),
            "--seed" => args.seed = value().parse().unwrap_or_else(|_| usage("--seed: integer")),
            "--seconds" => {
                args.seconds = value()
                    .parse()
                    .unwrap_or_else(|_| usage("--seconds: number"));
            }
            "--trace" => {
                args.trace = match value().as_str() {
                    "0" => false,
                    "1" => true,
                    _ => usage("--trace: 0 or 1"),
                }
            }
            "--list-infer-cells" => list_cells = true,
            other => usage(&format!("unknown flag `{other}`")),
        }
    }
    if list_cells {
        infer_zoo::print_cells(args.seed);
        return;
    }
    let run = match args.workload.as_str() {
        "compile-zoo" => compile_zoo::run,
        "infer-zoo" => infer_zoo::run,
        "serve-online" => serve_online::run,
        other => usage(&format!("unknown workload `{other}`")),
    };
    println!(
        "perfbench: workload {} seed {} seconds {} trace {}",
        args.workload,
        args.seed,
        args.seconds,
        u8::from(args.trace)
    );
    let outcome = run(&args);
    for m in &outcome.metrics {
        println!("  {:<36} {:>18} {}", m.name, m.value, m.unit);
    }
    for e in &outcome.errors {
        println!("FAILED: {e}");
    }
    if args.trace {
        let path = Path::new(env!("CARGO_MANIFEST_DIR"))
            .join("out")
            .join(format!("trace-{}-{}.json", args.workload, args.seed));
        match trace::write_chrome_trace(&path) {
            Ok(()) => println!(
                "trace: {} spans -> {}",
                trace::spans().len(),
                path.display()
            ),
            Err(e) => println!("FAILED: writing {}: {e}", path.display()),
        }
    }
    println!(
        "checks: {} attempted, {} failed",
        outcome.attempted, outcome.failed
    );
    if let Err(why) = matches_manifest(&outcome, args.trace) {
        println!("FAILED: {why}");
        std::process::exit(1);
    }
    println!("{}", outcome.result_line());
    if outcome.failed > 0 {
        std::process::exit(1);
    }
}

/// Checks that `outcome` reports exactly the metrics `BENCHMARK.json`
/// lists for the mode (`per_layer` when traced, else `end_to_end`), with
/// the same names and units in the same order.
fn matches_manifest(outcome: &Outcome, trace: bool) -> Result<(), String> {
    let doc = Json::parse(MANIFEST).map_err(|e| format!("BENCHMARK.json: {e}"))?;
    let section = if trace { "per_layer" } else { "end_to_end" };
    let listed = doc
        .get(section)
        .and_then(Json::as_array)
        .ok_or_else(|| format!("BENCHMARK.json has no `{section}` list"))?;
    let want: Vec<(Option<&str>, Option<&str>)> = listed
        .iter()
        .map(|m| {
            (
                m.get("name").and_then(Json::as_str),
                m.get("unit").and_then(Json::as_str),
            )
        })
        .collect();
    let got: Vec<(Option<&str>, Option<&str>)> = outcome
        .metrics
        .iter()
        .map(|m| (Some(m.name.as_str()), Some(m.unit)))
        .collect();
    if want == got {
        return Ok(());
    }
    let at = want.iter().zip(&got).take_while(|(w, g)| w == g).count();
    Err(format!(
        "metrics differ from BENCHMARK.json `{section}` at entry {at}: listed {:?}, reported {:?}",
        want.get(at),
        got.get(at)
    ))
}
