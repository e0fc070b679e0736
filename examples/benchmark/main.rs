//! The repo's benchmark: five workloads over partition → walk → train →
//! serve, eight end-to-end metrics, and a per-layer breakdown from a traced
//! run. README.md beside this file defines every name; `BENCHMARK.json` at
//! the repo root is the same contract for the driver.
//!
//! ```text
//! benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1>   one run, one JSON result line
//! benchmark run <name> [--trace] [--seed n] [--seconds s] [--smoke]    the same, friendlier
//! benchmark all [--seed n] [--repeats r] [--smoke] [--out file]        every workload, medians, results file
//! benchmark compare <a.json> <b.json>                                  two results files against the bounds
//! benchmark list                                                       workloads and metrics
//! ```

mod compare;
mod embedding;
mod flat_walk;
mod json;
mod loopback;
mod outcome;
mod serving;
mod spec;
mod stats;
mod trace;

use std::process::{Command, ExitCode, Stdio};

use json::Json;
use outcome::{applies, Outcome};
use spec::{Better, END_TO_END, PER_LAYER, WORKLOADS};

/// `run_seconds` of `BENCHMARK.json`.
const DEFAULT_SECONDS: f64 = 10.0;
const SMOKE_SECONDS: f64 = 0.2;
const DEFAULT_SEED: u64 = 7;
const DEFAULT_REPEATS: usize = 3;

/// One run's inputs. `seconds` is the serving workloads' measuring window;
/// the embedding jobs are fixed work (their counts must repeat exactly) sized
/// to take about `run_seconds` on the reference box.
#[derive(Clone)]
pub struct RunArgs {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub smoke: bool,
    /// The untraced value of the workload's primary metric, when the caller
    /// already has it; a traced run measures one itself otherwise.
    reference: Option<f64>,
}

fn usage() -> ExitCode {
    eprintln!(
        "usage: benchmark --workload <name> --seed <n> --seconds <s> --trace <0|1> [--smoke]\n       \
         benchmark run <name> [--trace] [--seed n] [--seconds s] [--smoke]\n       \
         benchmark all [--seed n] [--repeats r] [--seconds s] [--smoke] [--out file]\n       \
         benchmark compare <a.json> <b.json>\n       \
         benchmark list"
    );
    ExitCode::from(2)
}

struct Cli {
    command: String,
    positional: Vec<String>,
    workload: Option<String>,
    seed: u64,
    seconds: Option<f64>,
    trace: bool,
    smoke: bool,
    repeats: usize,
    out: Option<String>,
    reference: Option<f64>,
}

fn parse_cli(args: &[String]) -> Result<Cli, String> {
    let mut cli = Cli {
        command: "run".into(),
        positional: Vec::new(),
        workload: None,
        seed: DEFAULT_SEED,
        seconds: None,
        trace: false,
        smoke: false,
        repeats: DEFAULT_REPEATS,
        out: None,
        reference: None,
    };
    let mut rest = args.iter().peekable();
    if let Some(first) = rest.peek().filter(|a| !a.starts_with("--")) {
        cli.command = (*first).clone();
        rest.next();
    }
    while let Some(arg) = rest.next() {
        let mut value = |flag: &str| rest.next().cloned().ok_or(format!("{flag} needs a value"));
        fn number<T: std::str::FromStr>(flag: &str, text: String) -> Result<T, String> {
            text.parse()
                .map_err(|_| format!("{flag}: bad value `{text}`"))
        }
        match arg.as_str() {
            "--workload" => cli.workload = Some(value(arg)?),
            "--seed" => cli.seed = number(arg, value(arg)?)?,
            "--seconds" => cli.seconds = Some(number(arg, value(arg)?)?),
            "--repeats" => cli.repeats = number(arg, value(arg)?)?,
            "--reference" => cli.reference = Some(number(arg, value(arg)?)?),
            "--out" => cli.out = Some(value(arg)?),
            "--smoke" => cli.smoke = true,
            // `--trace 0|1` for the driver, a bare `--trace` for people.
            "--trace" => {
                cli.trace = match rest.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        rest.next();
                        false
                    }
                    Some("1") => {
                        rest.next();
                        true
                    }
                    _ => true,
                }
            }
            flag if flag.starts_with("--") => return Err(format!("unknown flag {flag}")),
            _ => cli.positional.push(arg.clone()),
        }
    }
    if cli.seconds.is_some_and(|s| !(s > 0.0 && s <= 60.0)) || cli.repeats == 0 {
        return Err("--seconds must be in (0, 60] and --repeats at least 1".into());
    }
    Ok(cli)
}

fn main() -> ExitCode {
    let args: Vec<String> = std::env::args().skip(1).collect();
    let cli = match parse_cli(&args) {
        Ok(cli) => cli,
        Err(err) => {
            eprintln!("{err}");
            return usage();
        }
    };
    match cli.command.as_str() {
        "list" => {
            list();
            return ExitCode::SUCCESS;
        }
        "compare" => {
            return match cli.positional.as_slice() {
                [a, b] => compare::compare(a, b),
                _ => usage(),
            }
        }
        "run" | "all" => {}
        _ => return usage(),
    }
    if cfg!(debug_assertions) {
        eprintln!("refusing to measure a debug build: run with `cargo run --release`");
        return ExitCode::from(2);
    }
    let seconds = cli.seconds.unwrap_or(if cli.smoke {
        SMOKE_SECONDS
    } else {
        DEFAULT_SECONDS
    });
    if cli.command == "all" {
        return all(&cli, seconds);
    }
    let Some(workload) = cli.workload.or_else(|| cli.positional.first().cloned()) else {
        return usage();
    };
    if !WORKLOADS.iter().any(|w| w.name == workload) {
        eprintln!("unknown workload `{workload}`; `benchmark list` names them");
        return ExitCode::from(2);
    }
    let args = RunArgs {
        workload,
        seed: cli.seed,
        seconds,
        trace: cli.trace,
        smoke: cli.smoke,
        reference: cli.reference,
    };
    let outcome = run_workload(&args);
    println!("# {}", environment(&args).render());
    println!("# {}: {}", args.workload, describe(&args));
    for (name, value, unit) in outcome.reported(args.trace) {
        println!("{name:<40} {value:>18.6} {unit}");
    }
    println!("{}", outcome.result_line(args.trace).render());
    if outcome.correct() {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}

fn list() {
    println!("workloads:");
    for w in &WORKLOADS {
        println!("  {:<18} {}", w.name, w.why);
    }
    println!("end-to-end metrics (untraced runs):");
    for m in &END_TO_END {
        println!(
            "  {:<22} {:<6} {} is better, may worsen by {} %",
            m.name,
            m.unit,
            m.better.name(),
            m.bound * 100.0
        );
    }
    println!("per-layer metrics (traced run):");
    for m in &PER_LAYER {
        println!(
            "  {:<40} {:<6} {} is better",
            m.name,
            m.unit,
            m.better.name()
        );
    }
}

fn describe(args: &RunArgs) -> String {
    match args.workload.as_str() {
        "lj_train_heavy" | "orkut_walk_heavy" => embedding::describe(args),
        "ba_loopback4" => loopback::describe(args),
        _ => serving::describe(args),
    }
}

/// The metric tracing is most likely to disturb on a workload: the job wall
/// where there is a job, and on the serving workloads — whose wall is the
/// window — the median latency below the knee and the throughput at it.
fn primary_metric(workload: &str) -> &'static spec::EndToEnd {
    let name = match workload {
        "serve_steady" => "serve_p50_ms",
        "serve_saturated" => "serve_qps",
        _ => "job_wall_s",
    };
    END_TO_END
        .iter()
        .find(|m| m.name == name)
        .expect("an end-to-end metric")
}

/// By how much `value` is worse than `base`, as a share of `base`.
pub fn worse_by(better: Better, base: f64, value: f64) -> f64 {
    match better {
        Better::Lower => value / base - 1.0,
        Better::Higher => 1.0 - value / base,
    }
}

fn run_workload(args: &RunArgs) -> Outcome {
    let mut outcome = Outcome::default();
    match args.workload.as_str() {
        "lj_train_heavy" | "orkut_walk_heavy" => embedding::run(args, &mut outcome),
        "ba_loopback4" => loopback::run(args, &mut outcome),
        _ => serving::run(args, &mut outcome),
    }
    if args.trace {
        // Tracing overhead: this traced run against an untraced one.
        let primary = primary_metric(&args.workload);
        let traced = outcome.get(primary.name).expect("every run measures it");
        let reference = args.reference.or_else(|| {
            let untraced = RunArgs {
                trace: false,
                reference: None,
                ..args.clone()
            };
            run_child(&untraced)
                .ok()
                .and_then(|child| child.metric(primary.name))
        });
        match reference {
            Some(reference) => outcome.set(
                "obs.trace_overhead_frac",
                worse_by(primary.better, reference, traced),
            ),
            None => outcome.check(false, || "the untraced reference run failed".into()),
        }
    }
    outcome
}

/// Where and how a number was measured; printed with every result and
/// stored in the results file.
fn environment(args: &RunArgs) -> Json {
    let first_line = |program: &str, argv: &[&str]| {
        Command::new(program)
            .args(argv)
            .stderr(Stdio::null())
            .output()
            .ok()
            .filter(|out| out.status.success())
            .and_then(|out| String::from_utf8(out.stdout).ok())
            .and_then(|text| text.lines().next().map(str::to_owned))
            .unwrap_or_else(|| "unknown".into())
    };
    let cores = std::thread::available_parallelism().map_or(0, |n| n.get());
    Json::obj([
        ("available_parallelism", Json::Num(cores as f64)),
        ("rustc", Json::str(first_line("rustc", &["--version"]))),
        ("profile", Json::str("release")),
        (
            "git_commit",
            Json::str(first_line("git", &["rev-parse", "HEAD"])),
        ),
        ("seed", Json::Num(args.seed as f64)),
        ("seconds", Json::Num(args.seconds)),
        ("smoke", Json::Bool(args.smoke)),
    ])
}

/// A finished child run, read back from its result line.
struct ChildRun {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, f64)>,
}

impl ChildRun {
    fn metric(&self, name: &str) -> Option<f64> {
        self.metrics
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, v)| *v)
    }
}

/// Runs one workload in a fresh process of this program, so peak memory and
/// warm-up are that run's own, and waits for it.
fn run_child(args: &RunArgs) -> Result<ChildRun, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let mut command = Command::new(exe);
    command
        .args(["--workload", &args.workload])
        .args(["--seed", &args.seed.to_string()])
        .args(["--seconds", &args.seconds.to_string()])
        .args(["--trace", if args.trace { "1" } else { "0" }]);
    if args.smoke {
        command.arg("--smoke");
    }
    if let Some(reference) = args.reference {
        command.args(["--reference", &reference.to_string()]);
    }
    let output = command
        .stderr(Stdio::inherit())
        .output()
        .map_err(|e| format!("cannot start a child run: {e}"))?;
    let stdout = String::from_utf8_lossy(&output.stdout);
    let line = stdout
        .lines()
        .rev()
        .find(|l| !l.trim().is_empty())
        .unwrap_or("");
    let result = Json::parse(line).map_err(|e| {
        format!(
            "{}: no result line ({e}); exit {}",
            args.workload, output.status
        )
    })?;
    let field = |key: &str| result.get(key).ok_or(format!("result line lacks `{key}`"));
    Ok(ChildRun {
        correct: field("correct")?.as_bool() == Some(true) && output.status.success(),
        attempted: field("attempted")?.as_f64().unwrap_or(0.0) as u64,
        failed: field("failed")?.as_f64().unwrap_or(0.0) as u64,
        metrics: field("metrics")?
            .fields()
            .iter()
            .filter_map(|(name, m)| Some((name.clone(), m.get("value")?.as_f64()?)))
            .collect(),
    })
}

/// One workload for `all`: `repeats` untraced child runs for the end-to-end
/// medians, one traced child run for the per-layer numbers. Prints as it
/// goes; returns the results-file entry, or `None` if no run finished, and
/// clears `ok` on any failed run or check.
fn measure_workload(
    w: &spec::Workload,
    untraced: &RunArgs,
    repeats: usize,
    ok: &mut bool,
) -> Option<Json> {
    let mut fail = |what: String| {
        eprintln!("{what}");
        *ok = false;
    };
    println!("\n== {} — {}\n   {}", w.name, w.why, describe(untraced));
    let mut runs = Vec::new();
    for _ in 0..repeats {
        match run_child(untraced) {
            Ok(run) => runs.push(run),
            Err(err) => fail(err),
        }
    }
    if runs.is_empty() {
        return None;
    }
    let correct = runs.iter().all(|r| r.correct);
    if !correct {
        fail(format!("{}: an untraced run failed a check", w.name));
    }

    let mut end_to_end = Vec::new();
    println!(
        "   {:<22} {:>16} {:<6} {:>16} {:>16} {:>3} {:>8} {:>7}",
        "end-to-end", "median", "unit", "min", "max", "n", "spread", "bound"
    );
    for m in &END_TO_END {
        if !applies(w.name, m.name) {
            println!("   {:<22} {:>16}", m.name, "n/a");
            continue;
        }
        let values: Vec<f64> = runs.iter().filter_map(|r| r.metric(m.name)).collect();
        let (lo, hi) = values
            .iter()
            .fold((f64::MAX, f64::MIN), |(lo, hi), &v| (lo.min(v), hi.max(v)));
        let (mid, spread) = (stats::median(&values), stats::spread(&values));
        println!(
            "   {:<22} {mid:>16.6} {:<6} {lo:>16.6} {hi:>16.6} {:>3} {:>7.2}% {:>6.1}%",
            m.name,
            m.unit,
            values.len(),
            spread * 100.0,
            m.bound * 100.0
        );
        // Counts the program makes repeat exactly at a fixed seed.
        if m.name == "cross_machine_bytes" && lo != hi {
            fail(format!(
                "CHECK FAILED: {}: cross_machine_bytes differs between repeats",
                w.name
            ));
        }
        end_to_end.push((
            m.name,
            Json::obj([
                ("median", Json::Num(mid)),
                ("min", Json::Num(lo)),
                ("max", Json::Num(hi)),
                ("spread", Json::Num(spread)),
                ("unit", Json::str(m.unit)),
                (
                    "values",
                    Json::Arr(values.iter().map(|&v| Json::Num(v)).collect()),
                ),
            ]),
        ));
    }
    let attempted: u64 = runs.iter().map(|r| r.attempted).sum();
    let failed: u64 = runs.iter().map(|r| r.failed).sum();
    println!("   operations: {attempted} attempted, {failed} failed");

    let primary = primary_metric(w.name);
    let reference: Vec<f64> = runs.iter().filter_map(|r| r.metric(primary.name)).collect();
    let traced_args = RunArgs {
        trace: true,
        reference: Some(stats::median(&reference)),
        ..untraced.clone()
    };
    let mut per_layer = Vec::new();
    match run_child(&traced_args) {
        Ok(traced) => {
            if !traced.correct {
                fail(format!("{}: the traced run failed a check", w.name));
            }
            let value_of = |name: &str| traced.metric(name).unwrap_or(0.0);
            let unreliable =
                value_of("obs.trace_overhead_frac") > 0.05 || value_of("obs.ring_overflow") > 0.0;
            println!(
                "   per-layer (traced run){}",
                if unreliable {
                    " — UNRELIABLE: tracing cost more than 5 % or a span ring overflowed"
                } else {
                    ""
                }
            );
            let mut zero = Vec::new();
            for m in &PER_LAYER {
                let value = value_of(m.name);
                if value == 0.0 {
                    zero.push(m.name);
                } else {
                    println!("   {:<40} {value:>18.6} {}", m.name, m.unit);
                }
                per_layer.push((
                    m.name,
                    Json::obj([("value", Json::Num(value)), ("unit", Json::str(m.unit))]),
                ));
            }
            println!("   0 (or no such layer here): {}", zero.join(" "));
            // The traced run samples the same corpus as the untraced ones.
            let traced_bytes = value_of("walks.bytes") + value_of("embed.sync_bytes");
            let untraced_bytes = runs[0].metric("cross_machine_bytes").unwrap_or(0.0);
            if applies(w.name, "cross_machine_bytes") && traced_bytes != untraced_bytes {
                fail(format!(
                    "CHECK FAILED: {}: the traced run moved {traced_bytes} bytes, the untraced {untraced_bytes}",
                    w.name
                ));
            }
        }
        Err(err) => fail(err),
    }
    Some(Json::obj([
        ("name", Json::str(w.name)),
        ("parameters", Json::str(describe(untraced))),
        ("correct", Json::Bool(correct)),
        ("attempted", Json::Num(attempted as f64)),
        ("failed", Json::Num(failed as f64)),
        ("end_to_end", Json::obj(end_to_end)),
        ("per_layer", Json::obj(per_layer)),
    ]))
}

/// Every workload, then the results file.
fn all(cli: &Cli, seconds: f64) -> ExitCode {
    let mut ok = true;
    let template = RunArgs {
        workload: String::new(),
        seed: cli.seed,
        seconds,
        trace: false,
        smoke: cli.smoke,
        reference: None,
    };
    println!("# {}", environment(&template).render());
    let workloads: Vec<Json> = WORKLOADS
        .iter()
        .filter_map(|w| {
            let untraced = RunArgs {
                workload: w.name.into(),
                ..template.clone()
            };
            measure_workload(w, &untraced, cli.repeats, &mut ok)
        })
        .collect();

    let results = Json::obj([
        ("environment", environment(&template)),
        ("repeats", Json::Num(cli.repeats as f64)),
        ("workloads", Json::Arr(workloads)),
    ]);
    let path = match &cli.out {
        Some(path) => Ok(std::path::PathBuf::from(path)),
        None => trace::output_dir().map(|dir| dir.join("results.json")),
    };
    match path.and_then(|path| std::fs::write(&path, results.render() + "\n").map(|()| path)) {
        Ok(path) => println!("\nresults: {}", path.display()),
        Err(err) => {
            eprintln!("results file not written: {err}");
            ok = false;
        }
    }
    if ok {
        ExitCode::SUCCESS
    } else {
        eprintln!("FAILED: a run or a correctness check failed (see above)");
        ExitCode::FAILURE
    }
}
