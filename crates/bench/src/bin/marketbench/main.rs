//! `marketbench` — the repository's reference benchmark.
//!
//! Four closed-loop workloads over a seeded, sized market, each
//! measured from outside through the layers' public functions:
//!
//! ```text
//! marketbench --workload <name> --seed <n> --seconds <s> --trace <0|1>
//!     one workload in this process; the last line of stdout is the
//!     result object the benchmark driver reads
//! marketbench [--seed <n>] [--seconds <s>] [--trace] [--smoke] [--out <dir>]
//!     every workload, each in a child process of its own, collected
//!     into <out>/marketbench.json (printed as well)
//! marketbench compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]
//!     exit 1 when the two passes differ by more than a metric's bound
//! marketbench manifest
//!     print BENCHMARK.json as the program's own tables define it
//! ```
//!
//! See `README.md` next to this file for the workloads, the metrics and
//! how to read a trace.

mod gen;
mod probes;
mod report;
mod scratch;
mod stats;
mod stepper;
mod trace;
mod workloads;

use std::path::{Path, PathBuf};
use std::process::{Command as Process, ExitCode, Stdio};

use dmp_service::wire::Json;

use report::WorkloadReport;
use trace::Tracer;
use workloads::{Env, Plan, Workload, REFERENCE_SECONDS};

/// Parsed command line of a run (not of `compare`).
struct Args {
    workload: Option<Workload>,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

fn default_out() -> PathBuf {
    // Inside the build-output directory: the one place a checkout
    // expects a benchmark to leave files behind.
    let target = std::env::var_os("CARGO_TARGET_DIR").unwrap_or_else(|| "target".into());
    Path::new(&target).join("marketbench")
}

fn parse_args(argv: &[String]) -> Result<Args, String> {
    let mut args = Args {
        workload: None,
        seed: 1,
        seconds: REFERENCE_SECONDS,
        trace: false,
        smoke: false,
        out: default_out(),
    };
    let mut it = argv.iter().peekable();
    while let Some(flag) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{name} needs a value"))
        };
        match flag.as_str() {
            "--workload" => {
                let name = value("--workload")?;
                args.workload = Some(
                    Workload::parse(&name).ok_or_else(|| format!("unknown workload '{name}'"))?,
                );
            }
            "--seed" => {
                args.seed = value("--seed")?
                    .parse()
                    .map_err(|_| "--seed takes a whole number".to_string())?;
            }
            "--seconds" => {
                args.seconds = value("--seconds")?
                    .parse()
                    .ok()
                    .filter(|s| (1..=600).contains(s))
                    .ok_or("--seconds takes a whole number from 1 to 600")?;
            }
            "--out" => args.out = PathBuf::from(value("--out")?),
            "--smoke" => args.smoke = true,
            "--trace" => {
                // `--trace 0|1` for the driver, a bare `--trace` by hand.
                args.trace = match it.peek().map(|s| s.as_str()) {
                    Some("0") => {
                        it.next();
                        false
                    }
                    Some("1") => {
                        it.next();
                        true
                    }
                    _ => true,
                };
            }
            other => return Err(format!("unknown argument '{other}'")),
        }
    }
    Ok(args)
}

/// Where one workload's full result document goes.
fn result_path(out: &Path, workload: Workload, traced: bool) -> PathBuf {
    let suffix = if traced { "_traced" } else { "" };
    out.join(format!("result_{}{suffix}.json", workload.name()))
}

fn load_json(path: &Path) -> Result<Json, String> {
    std::fs::read_to_string(path)
        .map_err(|e| e.to_string())
        .and_then(|text| Json::parse(&text).map_err(|e| e.to_string()))
        .map_err(|e| format!("{}: {e}", path.display()))
}

/// What one pass of one workload measured.
#[derive(Default)]
struct Pass {
    attempted: u64,
    failed: u64,
    metrics: Vec<(String, report::Value)>,
}

/// The untraced pass of one workload: `plan.reps` repetitions, then
/// set-up alone until `plan.setups` set-ups have been timed.
fn run_untraced(workload: Workload, plan: &Plan, env: &Env) -> Result<Pass, String> {
    let reps: Vec<workloads::Rep> = (0..plan.reps)
        .map(|_| workloads::repetition(workload, plan, env))
        .collect::<Result<_, _>>()?;
    let mut setups: Vec<f64> = reps.iter().map(|r| r.setup_s).collect();
    while setups.len() < plan.setups {
        let stage = workloads::setup(workload, plan, env)?;
        setups.push(stage.setup_s);
        stage.abandon();
    }
    Ok(Pass {
        attempted: reps.iter().map(|r| r.measured.ops).sum(),
        failed: reps.iter().map(|r| r.measured.failed).sum(),
        metrics: report::end_to_end(&reps, &setups),
    })
}

/// The traced pass: untraced repetitions for reference, one stepped
/// repetition recording spans, then the per-layer probes recording into
/// a trace of their own.
fn run_traced(workload: Workload, plan: &Plan, env: &Env, args: &Args) -> Result<Pass, String> {
    // Untraced repetitions for reference: as many as it takes to have a
    // tail percentile's worth of operations (one, except under --smoke).
    let mut references = vec![workloads::repetition(workload, plan, env)?];
    while references
        .iter()
        .map(|r| r.measured.op_ns.len())
        .sum::<usize>()
        < stats::MIN_TAIL_SAMPLES
    {
        references.push(workloads::repetition(workload, plan, env)?);
    }
    let mut stage = workloads::setup(workload, plan, env)?;
    let mut stepped = Tracer::new();
    let traced = workloads::measure_traced(workload, plan, &mut stage, &mut stepped)?;
    workloads::verify(workload, &stage, &traced)?;
    stage.abandon();
    let mut probed = Tracer::new();
    probes::run(&mut probed, plan, env, args.smoke)?;
    let rate = |m: &workloads::Measured| m.ops as f64 / m.wall_s;
    let reference_rate = references
        .iter()
        .map(|r| rate(&r.measured))
        .fold(f64::MIN, f64::max);
    let mut pooled: Vec<u64> = references
        .iter()
        .flat_map(|r| r.measured.op_ns.iter().copied())
        .collect();
    let tail = stats::latency(&mut pooled).ok_or("too few operations for a tail percentile")?;
    let extras: [report::Extra; 5] = [
        (
            "service.node.checkpoint_stall_ms",
            pooled.last().copied().unwrap_or(0) as f64 / 1e6,
            &[],
        ),
        ("process.peak_rss_mib", report::peak_rss_mib(), &[]),
        (
            "bench.unattributed_share",
            stepped.unattributed_share(),
            &[],
        ),
        (
            "bench.trace_overhead_share",
            1.0 - rate(&traced) / reference_rate,
            &[],
        ),
        (
            "bench.op_tail_us",
            tail.tail_us,
            &[
                ("percentile", tail.tail_percentile),
                ("samples", tail.samples as f64),
            ],
        ),
    ];
    let metrics = report::per_layer(&stepped, &probed, &extras)?;
    let path = args.out.join(format!("trace_{}.json", workload.name()));
    let mut doc = stepped.to_json();
    if let Json::Obj(pairs) = &mut doc {
        pairs.push(("probes".to_string(), probed.to_json()));
    }
    std::fs::write(&path, doc.dump()).map_err(|e| format!("writing {}: {e}", path.display()))?;
    let (attempted, failed) = references
        .iter()
        .map(|r| &r.measured)
        .chain([&traced])
        .fold((0, 0), |(ops, failed), m| (ops + m.ops, failed + m.failed));
    Ok(Pass {
        attempted,
        failed,
        metrics,
    })
}

/// Run one workload in this process and print the driver's line.
fn run_one(workload: Workload, args: &Args) -> ExitCode {
    if let Err(e) = std::fs::create_dir_all(&args.out) {
        eprintln!("marketbench: cannot create {}: {e}", args.out.display());
        return ExitCode::from(2);
    }
    let plan = Plan::new(workload, args.seconds, args.smoke);
    let env = Env {
        root: &args.out,
        seed: args.seed,
    };
    let outcome = if args.trace {
        run_traced(workload, &plan, &env, args)
    } else {
        run_untraced(workload, &plan, &env)
    };
    let (correct, pass) = match outcome {
        Ok(pass) => (true, pass),
        Err(why) => {
            eprintln!("marketbench: {}: {why}", workload.name());
            (false, Pass::default())
        }
    };
    let report = WorkloadReport {
        workload: workload.name().into(),
        seed: args.seed,
        traced: args.trace,
        correct,
        attempted: pass.attempted,
        failed: pass.failed,
        metrics: pass.metrics,
    };
    let path = result_path(&args.out, workload, args.trace);
    if let Err(e) = std::fs::write(&path, report.to_json().dump()) {
        eprintln!("marketbench: writing {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("{}", report.driver_line());
    if report.correct && report.failed == 0 {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

/// Run every workload, each in a child process of its own so that the
/// telemetry registry, the allocator and the thread pools start clean.
fn run_all(args: &Args) -> ExitCode {
    let exe = match std::env::current_exe() {
        Ok(exe) => exe,
        Err(e) => {
            eprintln!("marketbench: cannot find my own executable: {e}");
            return ExitCode::from(2);
        }
    };
    let mut reports = Vec::new();
    for workload in Workload::ALL {
        let mut child = Process::new(&exe);
        child
            .args(["--workload", workload.name()])
            .args(["--seed", &args.seed.to_string()])
            .args(["--seconds", &args.seconds.to_string()])
            .args(["--trace", if args.trace { "1" } else { "0" }])
            .arg("--out")
            .arg(&args.out)
            .stdout(Stdio::null());
        if args.smoke {
            child.arg("--smoke");
        }
        // `status` waits for the child; nothing is left running.
        let status = child.status();
        let report = load_json(&result_path(&args.out, workload, args.trace))
            .and_then(|json| WorkloadReport::from_json(&json));
        match (status, report) {
            (Ok(_), Ok(report)) => reports.push(report),
            (status, report) => {
                eprintln!(
                    "marketbench: {} produced no result (exit {status:?}, {:?})",
                    workload.name(),
                    report.err()
                );
                return ExitCode::from(2);
            }
        }
    }
    let doc = report::pass_to_json(args.seed, &reports).dump();
    let path = args.out.join("marketbench.json");
    if let Err(e) = std::fs::write(&path, &doc) {
        eprintln!("marketbench: writing {}: {e}", path.display());
        return ExitCode::from(2);
    }
    println!("{doc}");
    if reports.iter().all(|r| r.correct && r.failed == 0) {
        ExitCode::SUCCESS
    } else {
        ExitCode::from(1)
    }
}

fn compare(argv: &[String]) -> ExitCode {
    let mut files = Vec::new();
    let mut benchmark = PathBuf::from("BENCHMARK.json");
    let mut it = argv.iter();
    while let Some(arg) = it.next() {
        match (arg.as_str(), it.clone().next()) {
            ("--benchmark", Some(path)) => {
                benchmark = PathBuf::from(path);
                it.next();
            }
            _ => files.push(PathBuf::from(arg)),
        }
    }
    let [a, b] = files.as_slice() else {
        eprintln!("usage: marketbench compare <a.json> <b.json> [--benchmark <BENCHMARK.json>]");
        return ExitCode::from(2);
    };
    let outcome = load_json(a)
        .and_then(|a| Ok((a, load_json(b)?, load_json(&benchmark)?)))
        .and_then(|(a, b, bm)| report::compare(&a, &b, &bm));
    match outcome {
        Ok((table, pass)) => {
            print!("{table}");
            if pass {
                ExitCode::SUCCESS
            } else {
                ExitCode::from(1)
            }
        }
        Err(why) => {
            eprintln!("marketbench compare: {why}");
            ExitCode::from(2)
        }
    }
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    match argv.first().map(String::as_str) {
        Some("compare") => return compare(&argv[1..]),
        Some("manifest") => {
            print!("{}", report::manifest());
            return ExitCode::SUCCESS;
        }
        _ => {}
    }
    match parse_args(&argv) {
        Ok(args) => match args.workload {
            Some(workload) => run_one(workload, &args),
            None => run_all(&args),
        },
        Err(why) => {
            eprintln!("marketbench: {why}");
            ExitCode::from(2)
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn driver_and_hand_forms_of_the_command_line_parse() {
        let a = parse_args(&argv(
            "--workload rounds_dist --seed 9 --seconds 4 --trace 0",
        ))
        .unwrap();
        assert_eq!(a.workload, Some(Workload::RoundsDist));
        assert_eq!((a.seed, a.seconds, a.trace, a.smoke), (9, 4, false, false));
        let a = parse_args(&argv("--trace --smoke --out x")).unwrap();
        assert_eq!(a.workload, None);
        assert!(a.trace && a.smoke);
        assert_eq!(a.out, PathBuf::from("x"));
        assert!(parse_args(&argv("--trace 1 --seed 2")).unwrap().trace);
        assert!(parse_args(&argv("--workload nope")).is_err());
        assert!(parse_args(&argv("--seconds 0")).is_err());
        assert!(parse_args(&argv("--bogus")).is_err());
    }

    #[test]
    fn plans_scale_with_seconds_and_not_with_the_clock() {
        for w in Workload::ALL {
            let (at, twice) = (
                Plan::new(w, REFERENCE_SECONDS, false),
                Plan::new(w, 2 * REFERENCE_SECONDS, false),
            );
            assert_eq!(twice.work, 2 * at.work);
            assert_eq!(twice.reps, at.reps);
            assert_eq!(Plan::new(w, REFERENCE_SECONDS, false).work, at.work);
            let smoke = Plan::new(w, REFERENCE_SECONDS, true);
            assert_eq!(smoke.reps, 1);
            assert!(smoke.market.sellers < at.market.sellers);
        }
    }
}
