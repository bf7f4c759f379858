//! The repository benchmark. See `benchmark/README.md`.
//!
//! `--workload W --seed N --seconds S --trace 0|1` runs one workload in
//! this process and prints the result line. Without `--workload` every
//! workload runs, each in a child process of its own, and the
//! end-to-end table is printed. `--compare a.json b.json` judges two
//! such sets of runs against the bounds.

mod alloc;
mod drive;
mod host;
mod metrics;
mod probes;
mod report;
mod stats;
mod trace;
mod workloads;

use std::collections::BTreeMap;
use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode, Stdio};

use serde::Value;

use drive::{drive, Checks, Outcome, Reps, Size};
use metrics::{PER_LAYER, RUN_SECONDS, WORKLOADS};
use report::Record;
use stats::median;
use trace::Tracer;
use workloads::{bgp, chaos, churn, masc, plane, snap};

#[global_allocator]
static GLOBAL: alloc::Counting = alloc::Counting;

/// Where trace files and results go: `benchmark/out/` of the checkout
/// this binary was built in.
fn out_dir() -> PathBuf {
    Path::new(env!("CARGO_MANIFEST_DIR")).join("out")
}

/// Runs the named workload through the repetition loop.
fn drive_named(
    name: &str,
    seed: u64,
    size: Size,
    reps: Reps,
    tr: &mut Tracer,
    checks: &mut Checks,
) -> Outcome {
    macro_rules! go {
        ($workload:expr) => {
            drive(name, &mut $workload, reps, tr, checks)
        };
    }
    match name {
        "masc_hier" => go!(masc::Masc::hier(seed, size)),
        "masc_shard" => go!(masc::Masc::shard(seed, size)),
        "bgp_converge" => go!(bgp::BgpConverge::new(seed, size)),
        "group_churn" => go!(churn::GroupChurn::new(seed, size)),
        "chaos_ring" => go!(chaos::ChaosRing::new(seed, size)),
        "plane_sweep" => go!(plane::PlaneSweep::new(seed, size)),
        "snap_cycle" => go!(snap::SnapCycle::new(seed, size)),
        other => unreachable!("workload {other} was validated against WORKLOADS"),
    }
}

/// Arguments of a single-workload run.
struct RunArgs {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
    size: Size,
}

/// Runs one workload in this process.
fn run_one(args: &RunArgs) -> Record {
    let mut tr = Tracer::new();
    let mut checks = Checks::default();
    let reps = if args.trace {
        Reps::Traced(args.seconds)
    } else {
        Reps::Plain(args.seconds)
    };
    let own = drive_named(
        &args.workload,
        args.seed,
        args.size,
        reps,
        &mut tr,
        &mut checks,
    );
    let peak_rss_mb = host::peak_rss_mb();
    eprintln!(
        "{}: timed sections {:.3?} s plain, {:.3?} s traced",
        args.workload, own.plain_walls, own.traced_walls
    );

    let mut rec = Record {
        workload: args.workload.clone(),
        seed: args.seed,
        trace: args.trace,
        reps: [
            own.plain_walls.len() as u64,
            own.traced_walls.len() as u64,
            own.setup_walls.len() as u64,
        ],
        ..Record::default()
    };
    for (name, value) in &own.layer {
        if metrics::layer(name).is_some_and(|l| l.count) {
            rec.counts.insert(name.to_string(), *value);
        }
    }

    if args.trace {
        // The layer walk: one traced smoke-size repetition of every
        // other workload, so that each per-layer timing is measured in
        // every traced run. Counts stay those of the workload under
        // test and read 0 where it has none.
        let mut walked: BTreeMap<&'static str, f64> = BTreeMap::new();
        for (other, _) in WORKLOADS.iter().filter(|(w, _)| *w != args.workload) {
            let o = drive_named(
                other,
                args.seed,
                Size::Smoke,
                Reps::WalkOnce,
                &mut tr,
                &mut checks,
            );
            for (name, value) in o.layer {
                walked.entry(name).or_insert(value);
            }
        }
        for m in PER_LAYER {
            let value = match (own.layer.get(m.name), m.count) {
                (Some(v), _) => Some(*v),
                (None, true) => Some(0.0),
                (None, false) => walked.get(m.name).copied(),
            };
            checks.check(value.is_some_and(f64::is_finite), || {
                format!("per-layer metric {} was not measured: {value:?}", m.name)
            });
            rec.per_layer.insert(
                m.name.to_string(),
                value.filter(|v| v.is_finite()).unwrap_or(0.0),
            );
        }
        let path = out_dir().join(format!("trace_{}.json", args.workload));
        let written = std::fs::create_dir_all(out_dir()).and_then(|()| {
            let body = serde_json::to_string(&tr.to_json()).expect("a value tree serializes");
            std::fs::write(&path, body)
        });
        checks.check(written.is_ok(), || {
            format!("{}: {written:?}", path.display())
        });
        eprintln!(
            "{}: {} spans -> {}",
            args.workload,
            tr.spans().len(),
            path.display()
        );
    } else {
        let e = &mut rec.end_to_end;
        e.insert(
            "ops_per_sec".into(),
            own.ops as f64 / median(&own.plain_walls),
        );
        e.insert("peak_rss_mb".into(), peak_rss_mb);
        e.insert("setup_s".into(), median(&own.setup_walls));
        let finite = e.values().all(|v| v.is_finite() && *v > 0.0);
        checks.check(finite, || {
            format!("an end-to-end metric is not a positive number: {e:?}")
        });
    }
    rec.attempted = checks.attempted;
    rec.failures = checks.failures;
    rec
}

/// Human-readable account of a record, one metric per line.
fn describe(rec: &Record, out: &mut impl std::io::Write) {
    let w = &rec.workload;
    let unit = report::unit_of;
    let [plain, traced, setups] = rec.reps;
    for (name, v) in &rec.end_to_end {
        let n = if name == "setup_s" { setups } else { plain };
        let how = if name == "peak_rss_mb" {
            "VmHWM at exit".to_string()
        } else {
            format!("median of {n}")
        };
        let _ = writeln!(out, "{w:<13} {name:<32} {v:>18.6} {:<6} {how}", unit(name));
    }
    if !rec.trace {
        let ratio = rec.failed() as f64 / rec.attempted.max(1) as f64;
        let _ = writeln!(
            out,
            "{w:<13} {:<32} {ratio:>18.6} {:<6} {} of {} checks failed",
            "fail_ratio",
            "ratio",
            rec.failed(),
            rec.attempted
        );
    }
    let layer = if rec.trace {
        &rec.per_layer
    } else {
        &rec.counts
    };
    for (name, v) in layer {
        let _ = writeln!(out, "{w:<13} {name:<32} {v:>18.6} {:<6}", unit(name));
    }
    if rec.trace {
        let _ = writeln!(
            out,
            "{w:<13} ({plain} plain and {traced} traced repetitions)"
        );
    }
    for f in &rec.failures {
        let _ = writeln!(out, "{w:<13} CHECK FAILED: {f}");
    }
}

fn host_json() -> Value {
    let (rustc, commit) = host::build_facts();
    Value::Obj(vec![
        ("nproc".into(), Value::U64(host::nproc() as u64)),
        ("rustc".into(), Value::Str(rustc)),
        ("commit".into(), Value::Str(commit)),
        (
            "undersubscribed".into(),
            Value::Bool(host::nproc() < masc::SHARDS),
        ),
    ])
}

/// Arguments of a run over every workload.
struct AllArgs {
    seed: u64,
    runs: u64,
    seconds: f64,
    trace: bool,
    smoke: bool,
    out: PathBuf,
}

/// Runs every workload, sequentially, each run in a child process of
/// its own so that its peak RSS is its own.
fn run_all(args: &AllArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| e.to_string())?;
    let (rustc, commit) = host::build_facts();
    println!("host: nproc {} | {rustc} | commit {commit}", host::nproc());
    if host::nproc() < masc::SHARDS {
        println!(
            "host: undersubscribed — masc_shard runs {} shards on {} core",
            masc::SHARDS,
            host::nproc()
        );
    }
    std::fs::create_dir_all(out_dir()).map_err(|e| e.to_string())?;
    let mut records = Vec::new();
    let mut clean = true;
    for traced in [false, true] {
        if traced && !args.trace {
            continue;
        }
        for (workload, _) in WORKLOADS {
            for seed in (0..args.runs).map(|i| args.seed.wrapping_add(i)) {
                let detail = out_dir().join(format!("detail_{workload}.json"));
                let mut cmd = Command::new(&exe);
                cmd.args(["--workload", workload, "--seed", &seed.to_string()])
                    .args(["--seconds", &args.seconds.to_string()])
                    .args(["--trace", if traced { "1" } else { "0" }])
                    .arg("--detail")
                    .arg(&detail)
                    .stdout(Stdio::null())
                    .stderr(Stdio::null());
                if args.smoke {
                    cmd.arg("--smoke");
                }
                let status = cmd.status().map_err(|e| format!("{workload}: {e}"))?;
                let text = std::fs::read_to_string(&detail)
                    .map_err(|e| format!("{workload}: no detail file: {e}"))?;
                let _ = std::fs::remove_file(&detail);
                let value: Value =
                    serde_json::from_str(&text).map_err(|e| format!("{workload}: {e}"))?;
                let rec = Record::from_json(&value)
                    .ok_or_else(|| format!("{workload}: malformed detail"))?;
                describe(&rec, &mut std::io::stdout());
                clean &= status.success() && rec.failed() == 0;
                records.push(rec);
            }
        }
    }
    let body = serde_json::to_string_pretty(&report::results_json(host_json(), &records))
        .expect("a value tree serializes");
    std::fs::write(&args.out, body + "\n").map_err(|e| format!("{}: {e}", args.out.display()))?;
    println!("results -> {}", args.out.display());
    Ok(clean)
}

fn load_records(path: &str) -> Result<Vec<Record>, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    let value: Value = serde_json::from_str(&text).map_err(|e| format!("{path}: {e}"))?;
    report::records_of(&value).map_err(|e| format!("{path}: {e}"))
}

/// Parses the value of a numeric flag.
fn number<T: std::str::FromStr>(flag: &str, value: &str) -> Result<T, String>
where
    T::Err: std::fmt::Display,
{
    value.parse().map_err(|e| format!("{flag} {value}: {e}"))
}

const USAGE: &str = "usage:
  run.sh                                  every workload, plain; prints the end-to-end table
  run.sh --trace                          … then every workload again, traced: per-layer table and trace files
  run.sh --smoke                          every workload at about a tenth of the size
  run.sh --workload W --seed N --seconds S --trace 0|1     one workload; last line is the result object
  run.sh --compare a.json b.json          judge two sets of runs against the bounds
options: --seed N (default 1)  --runs K (seeds N..N+K-1)  --seconds S  --out FILE  --manifest";

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let mut workload = None;
    let (mut seed, mut runs, mut seconds) = (1u64, 1u64, None);
    let (mut trace, mut smoke) = (false, false);
    let mut detail: Option<PathBuf> = None;
    let mut out = out_dir().join("results.json");
    let mut it = argv.iter();
    let bad = |msg: String| {
        eprintln!("{msg}\n{USAGE}");
        ExitCode::from(2)
    };
    while let Some(arg) = it.next() {
        let mut value = |what: &str| it.next().cloned().ok_or(format!("{arg} needs {what}"));
        let parsed = match arg.as_str() {
            "--workload" => value("a workload name").map(|v| workload = Some(v)),
            "--seed" => value("a number")
                .and_then(|v| number(arg, &v))
                .map(|n| seed = n),
            "--runs" => value("a number")
                .and_then(|v| number(arg, &v))
                .map(|n| runs = n),
            "--seconds" => value("a number")
                .and_then(|v| number(arg, &v))
                .map(|n| seconds = Some(n)),
            "--detail" => value("a path").map(|v| detail = Some(v.into())),
            "--out" => value("a path").map(|v| out = v.into()),
            "--smoke" => {
                smoke = true;
                Ok(())
            }
            "--trace" => {
                // `--trace 0|1` from a caller that always passes a value;
                // bare `--trace` from a person.
                match it.clone().next().map(String::as_str) {
                    Some(v @ ("0" | "1")) => {
                        it.next();
                        trace = v == "1";
                    }
                    _ => trace = true,
                }
                Ok(())
            }
            "--compare" => {
                let (Some(a), Some(b)) = (it.next(), it.next()) else {
                    return bad("--compare needs two results files".into());
                };
                return match (load_records(a), load_records(b)) {
                    (Ok(a), Ok(b)) => {
                        let (text, ok) = report::compare(&a, &b);
                        print!("{text}");
                        ExitCode::from(u8::from(!ok))
                    }
                    (Err(e), _) | (_, Err(e)) => bad(e),
                };
            }
            "--manifest" => {
                println!(
                    "{}",
                    serde_json::to_string_pretty(&metrics::manifest()).expect("serializes")
                );
                return ExitCode::SUCCESS;
            }
            "--help" | "-h" => {
                println!("{USAGE}");
                return ExitCode::SUCCESS;
            }
            other => Err(format!("unknown argument {other}")),
        };
        if let Err(e) = parsed {
            return bad(e);
        }
    }
    // A smoke run makes the fewest repetitions unless told otherwise.
    let seconds: f64 = seconds.unwrap_or(if smoke { 0.1 } else { RUN_SECONDS as f64 });
    if !(seconds.is_finite() && seconds > 0.0) || runs == 0 {
        return bad("--seconds and --runs must be positive".into());
    }

    let Some(workload) = workload else {
        let all = AllArgs {
            seed,
            runs,
            seconds,
            trace,
            smoke,
            out,
        };
        return match run_all(&all) {
            Ok(true) => ExitCode::SUCCESS,
            Ok(false) => {
                eprintln!("a verification check failed");
                ExitCode::FAILURE
            }
            Err(e) => {
                eprintln!("{e}");
                ExitCode::FAILURE
            }
        };
    };
    if !WORKLOADS.iter().any(|(w, _)| *w == workload) {
        let known: Vec<&str> = WORKLOADS.iter().map(|w| w.0).collect();
        return bad(format!(
            "unknown workload {workload} (known: {})",
            known.join(", ")
        ));
    }
    let rec = run_one(&RunArgs {
        workload,
        seed,
        seconds,
        trace,
        size: if smoke { Size::Smoke } else { Size::Full },
    });
    describe(&rec, &mut std::io::stderr());
    if let Some(path) = detail {
        let body = serde_json::to_string(&rec.to_json()).expect("a value tree serializes");
        if let Err(e) = std::fs::write(&path, body) {
            eprintln!("{}: {e}", path.display());
            return ExitCode::FAILURE;
        }
    }
    println!("{}", rec.result_line());
    ExitCode::from(u8::from(rec.failed() > 0))
}
