//! `redo-check` — command-line recovery checker.
//!
//! ```text
//! redo-check theorems    [--ops N] [--vars V] [--seeds K] [--blind F]
//! redo-check schedules   [--method M] [--ops N] [--pages P] [--seeds K] [--limit L]
//! redo-check walks       [--ops N] [--vars V] [--seeds K] [--steps S]
//! redo-check beyond      [--ops N] [--vars V] [--seeds K]
//! redo-check crash-audit [--method M] [--schedules S] [--ops N] [--pages P]
//!                        [--seed X] [--capacity C] [--backend mem|file]
//!                        [--log-shards N]
//! ```
//!
//! * `theorems`  — brute-force Theorem 3 / converse / Corollary 4 on
//!   random small histories.
//! * `schedules` — exhaustively explore flush schedules of a §6 method
//!   (`logical|physical|physiological|generalized|fuzzy|skippy|lying`;
//!   `fuzzy` is the online fuzzy-checkpoint discipline on single-page
//!   operations; the last two are deliberately broken and should FAIL).
//! * `walks`     — fuzz write-graph evolutions against Corollary 5.
//! * `beyond`    — search for §7's beyond-the-theory witnesses.
//! * `crash-audit` — the generated audit matrix: every roster row
//!   (`--method all`, the default; or one of
//!   `logical|physical|physiological|generalized|online|ondemand|parallel|media|control|skippy|lying`,
//!   `parallel` being three rows and `pit` a legacy alias of `online`)
//!   × backend {mem, file} × log shards {1, 4} × pool {2, 4,
//!   unbounded}, one line per cell. `--method`, `--backend`,
//!   `--log-shards` (any power of two) and `--capacity` (`0` =
//!   unbounded) only *narrow* the matrix; with both backends enumerated
//!   a file cell runs a fifth of `--schedules`. Every schedule drives
//!   the method with chaos and checkpoints until an injected fault
//!   trips (a clean stop, a torn page write, a partial log flush),
//!   crashes, repairs, and checks the Recovery Invariant after every
//!   completed recovery: the serial probe, its seekless, partitioned
//!   and lazy equivalents, a crash in the middle of recovery,
//!   idempotence, and a restart from the checkpoint recovery itself
//!   published. Further *legs* ride on clones of the same image:
//!   `archive ∥ live` must replay to the durable history (and at the
//!   truncation boundary to the pre-truncation state) for every
//!   method; `media` and `ondemand` must rebuild a page destroyed out
//!   of band (on `--backend file` the page file is unlinked or
//!   `truncate(2)`-zeroed behind the database's back) sequentially,
//!   lazily, and across a second fault mid-rebuild; `control` runs a
//!   twin checkpointing the same schedule through full snapshots and
//!   demands state identity. A cell fails on a violation, on a
//!   required leg that verified nothing, and — `skippy` and `lying`
//!   are deliberately broken — on a broken method that *passes*.
//!
//! Exit code 0 = everything checked clean (or, for the broken methods,
//! the expected violation was found); 1 = a violation of the paper's
//! claims was detected; 2 = usage error.

use std::process::ExitCode;

use redo_checker::beyond::find_beyond_witnesses;
use redo_checker::crash_audit::{
    matrix, roster, shape_of, CrashAuditConfig, BACKENDS, LOG_SHARDS, POOLS,
};
use redo_checker::exhaustive::explore;
use redo_checker::theorems::check_history;
use redo_checker::wg_walk::walk;
use redo_methods::broken::{LyingCheckpoint, SkippyRedo};
use redo_methods::generalized::Generalized;
use redo_methods::logical::Logical;
use redo_methods::online::GeneralizedOnline;
use redo_methods::physical::Physical;
use redo_methods::physiological::Physiological;
use redo_methods::RecoveryMethod;
use redo_sim::backend::BackendKind;
use redo_workload::pages::PageWorkloadSpec;
use redo_workload::{Shape, WorkloadSpec};

struct Args {
    flags: Vec<(String, String)>,
}

impl Args {
    fn parse(args: &[String]) -> Result<Args, String> {
        let mut flags = Vec::new();
        let mut i = 0;
        while i < args.len() {
            let k = args[i]
                .strip_prefix("--")
                .ok_or_else(|| format!("expected --flag, got {}", args[i]))?;
            let v = args
                .get(i + 1)
                .ok_or_else(|| format!("--{k} needs a value"))?;
            flags.push((k.to_string(), v.clone()));
            i += 2;
        }
        Ok(Args { flags })
    }

    fn opt<T: std::str::FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        let value = self.flags.iter().find(|(k, _)| k == key);
        value
            .map(|(_, v)| v.parse().map_err(|_| format!("bad value for --{key}: {v}")))
            .transpose()
    }

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.opt(key)?.unwrap_or(default))
    }

    fn get_str(&self, key: &str, default: &str) -> String {
        self.flags
            .iter()
            .find(|(k, _)| k == key)
            .map_or_else(|| default.to_string(), |(_, v)| v.clone())
    }
}

fn cmd_theorems(args: &Args) -> Result<bool, String> {
    let ops: usize = args.get("ops", 5)?;
    let vars: u32 = args.get("vars", 3)?;
    let seeds: u64 = args.get("seeds", 10)?;
    let blind: f64 = args.get("blind", 0.4)?;
    if ops > 7 {
        return Err("theorems mode is exponential; --ops must be <= 7".into());
    }
    let mut clean = true;
    for seed in 0..seeds {
        let h = WorkloadSpec {
            n_ops: ops,
            n_vars: vars,
            max_reads: 2,
            max_writes: 2,
            blind_fraction: blind,
            skew: 0.0,
            shape: Shape::Random,
        }
        .generate(seed);
        match check_history(&h, 1_000_000, 1_000_000) {
            Ok(r) => println!(
                "seed {seed}: OK — {} prefixes, {} crash states, {} explainable, {} unexplainable",
                r.prefixes_checked, r.states_checked, r.explainable, r.unexplainable
            ),
            Err(c) => {
                println!("seed {seed}: COUNTEREXAMPLE — {c}");
                clean = false;
            }
        }
    }
    Ok(clean)
}

fn explore_method<M: RecoveryMethod>(
    method: &M,
    ops_n: usize,
    pages: u32,
    seeds: u64,
    limit: usize,
) -> Result<(u64, u64), String> {
    // Feed each method only the operation shapes its logging discipline
    // admits: the roster's.
    let shape = shape_of(method.name())?;
    let (mut ok, mut bad) = (0u64, 0u64);
    for seed in 0..seeds {
        let ops = shape
            .spec(PageWorkloadSpec {
                n_ops: ops_n,
                n_pages: pages,
                slots_per_page: 4,
                max_writes: 1,
                ..Default::default()
            })
            .generate(seed);
        match explore(method, &ops, 4, limit) {
            Ok((r, complete)) => {
                println!(
                    "seed {seed}: OK — {} nodes, {} crashes checked, {} distinct stable states{}",
                    r.nodes,
                    r.crashes_checked,
                    r.distinct_stable_states,
                    if complete { "" } else { " (truncated)" }
                );
                ok += 1;
            }
            Err(e) => {
                println!("seed {seed}: VIOLATION — {e}");
                bad += 1;
            }
        }
    }
    Ok((ok, bad))
}

fn cmd_schedules(args: &Args) -> Result<bool, String> {
    let ops: usize = args.get("ops", 4)?;
    let pages: u32 = args.get("pages", 2)?;
    let seeds: u64 = args.get("seeds", 3)?;
    let limit: usize = args.get("limit", 100_000)?;
    let method = args.get_str("method", "physiological");
    let expect_broken = matches!(method.as_str(), "skippy" | "lying");
    let (ok, bad) = match method.as_str() {
        "logical" => explore_method(&Logical, ops, pages, seeds, limit),
        "physical" => explore_method(&Physical, ops, pages, seeds, limit),
        "physiological" => explore_method(&Physiological, ops, pages, seeds, limit),
        "generalized" => explore_method(&Generalized, ops, pages, seeds, limit),
        "fuzzy" => explore_method(&GeneralizedOnline, ops, pages, seeds, limit),
        "skippy" => explore_method(&SkippyRedo, ops, pages, seeds, limit),
        "lying" => explore_method(&LyingCheckpoint, ops, pages, seeds, limit),
        other => return Err(format!("unknown method {other}")),
    }?;
    if expect_broken {
        println!("({method} is a deliberately broken method: violations are the expected outcome)");
        Ok(bad > 0)
    } else {
        Ok(bad == 0 && ok > 0)
    }
}

fn cmd_crash_audit(args: &Args) -> Result<bool, String> {
    // A narrowing flag pins its axis to one value; without it the whole
    // axis is enumerated.
    let backends = match args.opt::<String>("backend")?.as_deref() {
        None => BACKENDS.to_vec(),
        Some("mem") => vec![BackendKind::Mem],
        Some("file") => vec![BackendKind::File],
        Some(other) => return Err(format!("unknown backend {other} (expected mem|file)")),
    };
    let log_shards = match args.opt::<usize>("log-shards")? {
        None => LOG_SHARDS.to_vec(),
        Some(n) if n.is_power_of_two() => vec![n],
        Some(n) => return Err(format!("--log-shards must be a power of two, got {n}")),
    };
    let pools = match args.opt::<usize>("capacity")? {
        None => POOLS.to_vec(),
        Some(0) => vec![None],
        Some(n) => vec![Some(n)],
    };
    let base = CrashAuditConfig {
        schedules: args.get("schedules", 100)?,
        n_ops: args.get("ops", 40)?,
        n_pages: args.get("pages", 6)?,
        seed: args.get("seed", 0)?,
        ..Default::default()
    };
    // `pit` was a pseudo-method driving `online`; its check is now the
    // archive leg of every row.
    let method = match args.get_str("method", "all").as_str() {
        "pit" => "online".to_string(),
        other => other.to_string(),
    };
    let roster = roster();
    let cells = matrix(&roster, &method, &backends, &log_shards, &pools, &base);
    if cells.is_empty() {
        return Err(format!("unknown method {method}"));
    }
    let mut clean = true;
    for cell in cells {
        let outcome = cell.row.audit(&cell.cfg);
        match (cell.row.judge(&outcome), outcome) {
            (Ok(()), Ok(report)) => println!("{cell}: OK — {report}"),
            (Ok(()), Err(caught)) => println!("{cell}: OK — caught, as it must be: {caught}"),
            (Err(why), _) => {
                println!("{cell}: VIOLATION — {why}");
                clean = false;
            }
        }
    }
    Ok(clean)
}

fn cmd_walks(args: &Args) -> Result<bool, String> {
    let ops: usize = args.get("ops", 8)?;
    let vars: u32 = args.get("vars", 4)?;
    let seeds: u64 = args.get("seeds", 20)?;
    let steps: usize = args.get("steps", 150)?;
    let mut applied = 0usize;
    for seed in 0..seeds {
        let h = WorkloadSpec {
            n_ops: ops,
            n_vars: vars,
            blind_fraction: 0.5,
            ..WorkloadSpec::default()
        }
        .generate(seed);
        applied += walk(&h, seed, steps).applied; // panics on violation
    }
    println!("{applied} write-graph operations applied; Corollary 5 held throughout");
    Ok(true)
}

fn cmd_beyond(args: &Args) -> Result<bool, String> {
    let ops: usize = args.get("ops", 5)?;
    let vars: u32 = args.get("vars", 3)?;
    let seeds: u64 = args.get("seeds", 10)?;
    if ops > 7 {
        return Err("beyond mode is exponential; --ops must be <= 7".into());
    }
    let mut total = 0usize;
    for seed in 0..seeds {
        let h = WorkloadSpec {
            n_ops: ops,
            n_vars: vars,
            blind_fraction: 0.6,
            max_reads: 1,
            max_writes: 1,
            ..WorkloadSpec::default()
        }
        .generate(seed);
        let ws = find_beyond_witnesses(&h, 100_000);
        if let Some(w) = ws.first() {
            println!(
                "seed {seed}: {} witnesses; e.g. replaying {:?} succeeds although ops {:?} were inapplicable",
                ws.len(),
                w.replayed,
                w.inapplicable
            );
        } else {
            println!("seed {seed}: no beyond-the-theory witnesses");
        }
        total += ws.len();
    }
    println!("{total} witnesses total (the paper's §7 remark, constructively)");
    Ok(true)
}

fn main() -> ExitCode {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    let Some((cmd, rest)) = argv.split_first() else {
        eprintln!(
            "usage: redo-check <theorems|schedules|walks|beyond|crash-audit> [--flag value]..."
        );
        return ExitCode::from(2);
    };
    let args = match Args::parse(rest) {
        Ok(a) => a,
        Err(e) => {
            eprintln!("error: {e}");
            return ExitCode::from(2);
        }
    };
    let result = match cmd.as_str() {
        "theorems" => cmd_theorems(&args),
        "schedules" => cmd_schedules(&args),
        "walks" => cmd_walks(&args),
        "beyond" => cmd_beyond(&args),
        "crash-audit" => cmd_crash_audit(&args),
        other => Err(format!("unknown command {other}")),
    };
    match result {
        Ok(true) => ExitCode::SUCCESS,
        Ok(false) => {
            eprintln!("violations detected");
            ExitCode::FAILURE
        }
        Err(e) => {
            eprintln!("error: {e}");
            ExitCode::from(2)
        }
    }
}
