//! `redo-bench`: the end-to-end foreground → crash → restart benchmark.
//!
//! ```text
//! redo-bench run [--workload NAME|all] [--seed N] [--seconds S]
//!                [--trace [0|1]] [--smoke] [--out FILE.json]
//! redo-bench compare A.json B.json [--bounds BENCHMARK.json]
//! redo-bench summarize RUN.json RUN.json... [--out BASELINE.json]
//! ```
//!
//! `run` with one workload executes lifecycles in this process for
//! `--seconds` of wall time (at least eight of them) and prints every
//! metric by name with unit and sample count, then — as the
//! last line of standard output — one JSON object with `correct`,
//! `attempted`, `failed` and `metrics` (end-to-end metrics untraced,
//! per-layer metrics with `--trace 1`). `run` with `all` runs each
//! workload in a child process of its own and merges their `--out`
//! files. Any failed operation makes the exit code non-zero. See
//! `README.md` in the package root.

mod lifecycle;
mod os;
mod probes;
mod report;

use std::path::{Path, PathBuf};
use std::process::{Command, ExitCode};
use std::time::{Duration, Instant};

use redo_perfbench::json::Json;
use redo_perfbench::trace::SpanRecorder;
use redo_perfbench::workloads::{self, Workload, GROUP, MIN_LIFECYCLES, RUN_SECONDS, TAIL_WRITES};

use report::Metric;

/// Counters that must repeat exactly when one client runs the same
/// inputs twice (the traced run does: lifecycle 0, spans off then on).
const EXACT_COUNTS: [&str; 4] = [
    "wal.appended_bytes",
    "wal.forces",
    "control.checkpoints_taken",
    "generalized.recover.replayed",
];

const FLUSH_POLICY: &str = "group commit every 32 writes per client; page flushes only via the \
                            controller / flusher tick that client 0 runs inline";

struct RunArgs {
    workload: String,
    seed: u64,
    seconds: u64,
    trace: bool,
    smoke: bool,
    out: Option<PathBuf>,
}

fn usage() -> String {
    "usage: redo-bench run [--workload NAME|all] [--seed N] [--seconds S] [--trace [0|1]] \
     [--smoke] [--out FILE.json]\n       redo-bench compare A.json B.json [--bounds BENCHMARK.json]\n       \
     redo-bench summarize RUN.json RUN.json... [--out BASELINE.json]"
        .to_string()
}

fn parse_run(args: &[String]) -> Result<RunArgs, String> {
    let mut run = RunArgs {
        workload: "all".into(),
        seed: 1,
        seconds: RUN_SECONDS,
        trace: false,
        smoke: false,
        out: None,
    };
    let mut it = args.iter().peekable();
    while let Some(arg) = it.next() {
        let mut value = |what: &str| {
            it.next()
                .cloned()
                .ok_or_else(|| format!("{arg} needs {what}\n{}", usage()))
        };
        match arg.as_str() {
            "--workload" => run.workload = value("a workload name")?,
            "--seed" => {
                run.seed = value("a number")?
                    .parse()
                    .map_err(|e| format!("--seed: {e}"))?;
            }
            "--seconds" => {
                run.seconds = value("a whole number of seconds")?
                    .parse()
                    .map_err(|e| format!("--seconds: {e}"))?;
                if !(1..=60).contains(&run.seconds) {
                    return Err("--seconds must be 1..=60".into());
                }
            }
            "--out" => run.out = Some(PathBuf::from(value("a file path")?)),
            "--smoke" => run.smoke = true,
            "--trace" => {
                // Bare `--trace` switches tracing on; `--trace 0|1` is the
                // harness's spelling.
                run.trace = match it.peek().map(|s| s.as_str()) {
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
            other => return Err(format!("unknown argument {other}\n{}", usage())),
        }
    }
    Ok(run)
}

/// Points the library's `TempDir` (which asks `std::env::temp_dir`) at a
/// directory beside the executable, so file-backed workloads write
/// inside the build tree and nowhere else. Returns it.
fn confine_temp_files() -> Result<PathBuf, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let dir = exe
        .parent()
        .unwrap_or(Path::new("."))
        .join("redo-bench-tmp");
    std::fs::create_dir_all(&dir).map_err(|e| format!("creating {}: {e}", dir.display()))?;
    std::env::set_var("TMPDIR", &dir);
    Ok(dir)
}

/// The filesystem type `path` lives on, from `/proc/mounts` (longest
/// mount-point prefix wins) — fsync on tmpfs is not a device's.
fn fs_type(path: &Path) -> String {
    let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
    let path = path.canonicalize().unwrap_or_else(|_| path.to_path_buf());
    mounts
        .lines()
        .filter_map(|line| {
            let mut f = line.split_whitespace();
            let (_, mount, fs) = (f.next()?, f.next()?, f.next()?);
            path.starts_with(mount).then_some((mount.len(), fs))
        })
        .max_by_key(|&(len, _)| len)
        .map_or("unknown".into(), |(_, fs)| fs.to_string())
}

fn host_json(tmp: &Path) -> Json {
    let git_rev = Command::new("git")
        .args(["rev-parse", "--short", "HEAD"])
        .output()
        .ok()
        .filter(|o| o.status.success())
        .map_or("unknown".into(), |o| {
            String::from_utf8_lossy(&o.stdout).trim().to_string()
        });
    let nproc = std::thread::available_parallelism().map_or(0, usize::from);
    Json::obj([
        ("git_rev", Json::str(git_rev)),
        ("nproc", Json::Num(nproc as f64)),
        ("tmp_fs", Json::str(fs_type(tmp))),
    ])
}

fn print_metrics(metrics: &[Metric]) {
    for m in metrics {
        println!(
            "  {:<40} {:>16.4} {:<6} (n={}){}{}",
            m.name,
            m.value,
            m.unit,
            m.samples,
            m.raw.map_or(String::new(), |raw| format!("  raw {raw:.4}")),
            if report::ungated(m.name) {
                "  not gated"
            } else {
                ""
            }
        );
    }
}

/// Runs one workload in this process. Returns whether it was correct.
fn run_one(w: &Workload, args: &RunArgs, tmp: &Path) -> Result<bool, String> {
    // `--seconds` is wall time: lifecycles run, each on its own
    // sub-seed, until that much has passed — looked at between
    // lifecycles only, and not before `MIN_LIFECYCLES` are done.
    let measure_for = Duration::from_secs(args.seconds);
    println!(
        "redo-bench {}: seed {} | {} | {} client(s), {} writes/client (+{} un-acked), \
         {} reads/write per lifecycle | closed loop{}",
        w.name,
        args.seed,
        if args.smoke {
            "1 lifecycle".to_string()
        } else {
            format!(
                "lifecycles for {} s (at least {MIN_LIFECYCLES})",
                args.seconds
            )
        },
        w.clients,
        w.writes_at(args.smoke),
        TAIL_WRITES,
        w.reads_per_write,
        if args.trace { " | traced" } else { "" },
    );
    println!("  why: {}", w.why);
    println!("  flush policy: {FLUSH_POLICY} (group = {GROUP})");

    let epoch = Instant::now();
    let mut off = SpanRecorder::new(false, epoch);
    let mut rec = SpanRecorder::new(args.trace, epoch);
    let mut lifes = Vec::new();
    // The traced run first repeats lifecycle 0 with spans off, so the
    // cost of tracing is measured on identical inputs.
    let untraced_twin = if args.trace {
        let seed = Workload::lifecycle_seed(args.seed, 0);
        let mut twin = lifecycle::run(w, seed, args.smoke, 0, &mut off)?;
        twin.image = None;
        Some(twin)
    } else {
        None
    };
    loop {
        let i = lifes.len();
        let seed = Workload::lifecycle_seed(args.seed, i);
        let mut life = lifecycle::run(w, seed, args.smoke, i as u64, &mut rec)?;
        let image = life.image.take().expect("lifecycle keeps its image");
        if args.trace && i == 0 {
            let stream = &w.streams(seed, args.smoke)[0];
            probes::run(w, stream, &image, &mut life, &mut rec)?;
        }
        lifes.push(life);
        if args.smoke || (lifes.len() >= MIN_LIFECYCLES && epoch.elapsed() >= measure_for) {
            break;
        }
    }

    let mut attempted: u64 = lifes.iter().map(|l| l.attempted).sum();
    let mut failed: u64 = lifes.iter().map(|l| l.failed).sum();
    if let Some(twin) = &untraced_twin {
        attempted += twin.attempted;
        failed += twin.failed;
        if w.clients == 1 {
            for name in EXACT_COUNTS {
                let (a, b) = (twin.counts.get(name), lifes[0].counts.get(name));
                if a != b {
                    eprintln!(
                        "redo-bench: {}: {name} did not repeat on identical inputs: {a:?} then {b:?}",
                        w.name
                    );
                    failed += 1;
                }
            }
        }
    }
    let (metrics, commit_tail) = match &untraced_twin {
        Some(twin) => (
            report::per_layer(&lifes, &rec, twin, attempted, failed),
            None,
        ),
        None => report::end_to_end(&lifes),
    };
    print_metrics(&metrics);
    if let Some((p, us)) = commit_tail {
        println!(
            "  commit latency tail: p{} = {us:.1} us (the highest percentile with >= 10 samples \
             beyond it)",
            format!("{:.3}", p * 100.0)
                .trim_end_matches('0')
                .trim_end_matches('.')
        );
    }
    println!(
        "  attempted {attempted} ops, failed {failed} (failed_ops_share {:.6})",
        failed as f64 / attempted.max(1) as f64
    );
    let divergent = report::ondemand_divergent_cells(&lifes);
    println!(
        "  {} {divergent:.4} per lifecycle: on-demand cells that differ from the oracle within \
         the waiver for known library defects (README); beyond it they are failed",
        report::DIVERGENT_KEY
    );
    let [setup, foreground, offline, ondemand, media] = report::box_speeds(&lifes);
    println!(
        "  box speed (1 = nominal{}): set-up {setup:.3} foreground {foreground:.3} offline \
         {offline:.3} on-demand {ondemand:.3} media {media:.3}",
        if args.trace {
            "; per-layer times are as clocked"
        } else {
            "; the clock metrics above are scaled to it, raw = as clocked"
        }
    );
    println!(
        "  wall: {:.1} s in all, {} lifecycles, {:.2} s of it foreground",
        epoch.elapsed().as_secs_f64(),
        lifes.len(),
        lifes.iter().map(|l| l.fg_wall_s).sum::<f64>()
    );

    if let Some(out) = &args.out {
        let section = if args.trace {
            "per_layer"
        } else {
            "end_to_end"
        };
        let doc = Json::obj([
            ("schema", Json::Num(1.0)),
            ("seed", Json::Num(args.seed as f64)),
            ("seconds", Json::Num(args.seconds as f64)),
            ("smoke", Json::Bool(args.smoke)),
            ("host", host_json(tmp)),
            ("flush_policy", Json::str(FLUSH_POLICY)),
            (
                "workloads",
                Json::obj([(
                    w.name,
                    Json::obj([
                        ("why", Json::str(w.why)),
                        ("attempted", Json::Num(attempted as f64)),
                        ("failed", Json::Num(failed as f64)),
                        ("lifecycles", Json::Num(lifes.len() as f64)),
                        (report::DIVERGENT_KEY, Json::Num(divergent)),
                        (section, report::metrics_json(&metrics)),
                    ]),
                )]),
            ),
        ]);
        std::fs::write(out, doc.to_pretty())
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
        if args.trace {
            let path = out.with_extension("trace.json");
            let file = std::fs::File::create(&path)
                .map_err(|e| format!("creating {}: {e}", path.display()))?;
            let mut buf = std::io::BufWriter::new(file);
            rec.write_json(&mut buf)
                .and_then(|()| std::io::Write::flush(&mut buf))
                .map_err(|e| format!("writing {}: {e}", path.display()))?;
            println!("  {} spans -> {}", rec.spans().len(), path.display());
        }
    }
    println!("{}", report::result_line(&metrics, attempted, failed));
    Ok(failed == 0)
}

/// Runs every workload, each in a child process of its own (fresh
/// allocator, fresh page cache of its own files), untraced and — with
/// `--trace` — traced as well, and merges the children's `--out` files.
fn run_all(args: &RunArgs) -> Result<bool, String> {
    let exe = std::env::current_exe().map_err(|e| format!("locating the executable: {e}"))?;
    let started = Instant::now();
    let mut merged: Option<Json> = None;
    let mut all_correct = true;
    for w in workloads::all() {
        for traced in [false, true] {
            if traced && !args.trace {
                continue;
            }
            let part = args.out.as_ref().map(|out| {
                out.with_extension(format!(
                    "{}.{}.json",
                    w.name,
                    if traced { "traced" } else { "e2e" }
                ))
            });
            let mut cmd = Command::new(&exe);
            cmd.args(["run", "--workload", w.name])
                .args(["--seed", &args.seed.to_string()])
                .args(["--seconds", &args.seconds.to_string()])
                .args(["--trace", if traced { "1" } else { "0" }]);
            if args.smoke {
                cmd.arg("--smoke");
            }
            if let Some(part) = &part {
                cmd.arg("--out").arg(part);
            }
            let status = cmd
                .status()
                .map_err(|e| format!("starting the {} child: {e}", w.name))?;
            all_correct &= status.success();
            let Some(part) = part else { continue };
            if !status.success() {
                continue;
            }
            let text = std::fs::read_to_string(&part)
                .map_err(|e| format!("reading {}: {e}", part.display()))?;
            let doc = Json::parse(&text).map_err(|e| format!("{}: {e}", part.display()))?;
            let _ = std::fs::remove_file(&part);
            if traced {
                // Keep the span file under the suite's name.
                let spans = part.with_extension("trace.json");
                let kept = args
                    .out
                    .as_ref()
                    .expect("part implies out")
                    .with_extension(format!("{}.trace.json", w.name));
                let _ = std::fs::rename(spans, kept);
            }
            merge(&mut merged, doc);
        }
    }
    if let (Some(out), Some(doc)) = (&args.out, merged) {
        std::fs::write(out, doc.to_pretty())
            .map_err(|e| format!("writing {}: {e}", out.display()))?;
    }
    println!(
        "redo-bench: suite {} in {:.1} s",
        if all_correct { "correct" } else { "FAILED" },
        started.elapsed().as_secs_f64()
    );
    Ok(all_correct)
}

/// Folds one child's `--out` document into the suite's: header from the
/// first, workload sections merged by name.
fn merge(into: &mut Option<Json>, doc: Json) {
    let Some(Json::Obj(acc)) = into else {
        *into = Some(doc);
        return;
    };
    let Some(Json::Obj(acc_workloads)) = acc
        .iter_mut()
        .find(|(k, _)| k == "workloads")
        .map(|(_, v)| v)
    else {
        return;
    };
    let Some(Json::Obj(new_workloads)) = doc.get("workloads").cloned() else {
        return;
    };
    for (name, section) in new_workloads {
        match acc_workloads.iter_mut().find(|(k, _)| *k == name) {
            Some((_, Json::Obj(existing))) => {
                if let Json::Obj(fields) = section {
                    for (k, v) in fields {
                        if !existing.iter().any(|(ek, _)| *ek == k) {
                            existing.push((k, v));
                        }
                    }
                }
            }
            _ => acc_workloads.push((name, section)),
        }
    }
}

fn read_json(path: &str) -> Result<Json, String> {
    let text = std::fs::read_to_string(path).map_err(|e| format!("reading {path}: {e}"))?;
    Json::parse(&text).map_err(|e| format!("{path}: {e}"))
}

fn real_main() -> Result<bool, String> {
    let args: Vec<String> = std::env::args().skip(1).collect();
    match args.first().map(String::as_str) {
        Some("run") => {
            let run = parse_run(&args[1..])?;
            let tmp = confine_temp_files()?;
            if run.workload == "all" {
                return run_all(&run);
            }
            let w = workloads::by_name(&run.workload).ok_or_else(|| {
                let names: Vec<&str> = workloads::all().iter().map(|w| w.name).collect();
                format!(
                    "unknown workload {}; one of: all {}",
                    run.workload,
                    names.join(" ")
                )
            })?;
            run_one(&w, &run, &tmp)
        }
        Some("compare") => {
            let mut files = Vec::new();
            let mut bounds = "BENCHMARK.json".to_string();
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                if arg == "--bounds" {
                    bounds = it.next().cloned().ok_or_else(usage)?;
                } else {
                    files.push(arg.as_str());
                }
            }
            let [a, b] = files[..] else {
                return Err(usage());
            };
            report::compare(&read_json(a)?, &read_json(b)?, &read_json(&bounds)?)
        }
        Some("summarize") => {
            let mut files = Vec::new();
            let mut out = None;
            let mut it = args[1..].iter();
            while let Some(arg) = it.next() {
                if arg == "--out" {
                    out = Some(it.next().cloned().ok_or_else(usage)?);
                } else {
                    files.push(read_json(arg)?);
                }
            }
            let doc = report::summarize(&files)?;
            if let Some(out) = out {
                std::fs::write(&out, doc.to_pretty()).map_err(|e| format!("writing {out}: {e}"))?;
            }
            Ok(true)
        }
        _ => Err(usage()),
    }
}

fn main() -> ExitCode {
    match real_main() {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => ExitCode::from(1),
        Err(e) => {
            eprintln!("redo-bench: {e}");
            ExitCode::from(2)
        }
    }
}
