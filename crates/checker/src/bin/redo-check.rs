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
//! * `crash-audit` — drive each method (`--method all` by default;
//!   `logical|physical|physiological|generalized|online|parallel|ondemand|media|pit|control`)
//!   through seeded crash schedules with injected faults: torn page
//!   writes, partial log flushes, and a crash in the middle of every
//!   recovery, checking the Recovery Invariant after each completed
//!   recovery. The `online` method additionally exposes its fuzzy
//!   checkpoint publication (force, pointer swing, truncation) as
//!   faultable crash points. The `ondemand` method recovers through
//!   the instant-restart path — every probe recovery also reopens the
//!   crashed image lazily and serves all durable cells mid-recovery.
//!   The `media` method audits media recovery: after each crash one
//!   durable page is destroyed out-of-band (on `--backend file`, the
//!   page file is unlinked or `truncate(2)`-zeroed behind the
//!   database's back), and the rebuild from `archive ∥ live` must
//!   reach state identity with an undamaged probe — sequentially,
//!   through the on-demand path, and across a second fault injected
//!   mid-rebuild. The `pit` method audits the archive tier instead:
//!   it drives `online` (whose checkpoints move the truncated log
//!   prefix into the archive) and verifies that point-in-time replay
//!   over `archive ∥ live` reproduces the full durable history and
//!   the pre-truncation state at the truncation boundary.
//!   The `control` method audits incremental (delta-chain)
//!   checkpointing twice over: the generic degradation loop with
//!   crashes landing inside delta publication, plus a twin run that
//!   drives an identical workload/fault/chaos schedule through both
//!   delta-chain and full-snapshot checkpointing and demands recovered
//!   state identity whenever the twins kept the same durable prefix.
//!   `--capacity 0` means an unbounded buffer
//!   pool. `--backend file` runs every schedule against the fsync-backed
//!   file backend in a fresh temporary directory instead of the
//!   in-memory simulation. `--log-shards N` splits the WAL into N
//!   per-partition logs (a power of two): multi-page records become
//!   cross-shard atomic flush groups, and the injected faults land
//!   between a group's closure markers too.
//!
//! Exit code 0 = everything checked clean (or, for the broken methods,
//! the expected violation was found); 1 = a violation of the paper's
//! claims was detected; 2 = usage error.

use std::process::ExitCode;

use redo_checker::beyond::find_beyond_witnesses;
use redo_checker::crash_audit::{audit, audit_control, audit_media, audit_pit, CrashAuditConfig};
use redo_checker::exhaustive::explore;
use redo_checker::theorems::check_history;
use redo_checker::wg_walk::walk;
use redo_methods::broken::{LyingCheckpoint, SkippyRedo};
use redo_methods::control::Control;
use redo_methods::generalized::Generalized;
use redo_methods::logical::Logical;
use redo_methods::ondemand::OnDemand;
use redo_methods::online::GeneralizedOnline;
use redo_methods::parallel::{ParallelOnline, ParallelPhysical, ParallelPhysiological};
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

    fn get<T: std::str::FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        match self.flags.iter().find(|(k, _)| k == key) {
            None => Ok(default),
            Some((_, v)) => v.parse().map_err(|_| format!("bad value for --{key}: {v}")),
        }
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
) -> (u64, u64) {
    // Feed each method only the operation shapes its logging discipline
    // admits (cross-page reads are a generalized/logical feature).
    let cross = match method.name() {
        "generalized-lsn" | "logical" => 0.5,
        _ => 0.0,
    };
    let blind = if method.name() == "physical" {
        1.0
    } else {
        0.2
    };
    let (mut ok, mut bad) = (0u64, 0u64);
    for seed in 0..seeds {
        let ops = PageWorkloadSpec {
            n_ops: ops_n,
            n_pages: pages,
            slots_per_page: 4,
            cross_page_fraction: cross,
            blind_fraction: blind,
            max_writes: 1,
            ..Default::default()
        }
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
    (ok, bad)
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
    };
    if expect_broken {
        println!("({method} is a deliberately broken method: violations are the expected outcome)");
        Ok(bad > 0)
    } else {
        Ok(bad == 0 && ok > 0)
    }
}

fn audit_method<M: RecoveryMethod>(method: &M, cfg: &CrashAuditConfig) -> bool {
    match audit(method, cfg) {
        Ok(r) => {
            println!(
                "{}: OK — {} schedules, {} crashes ({} mid-recovery), {} faults fired \
                 ({} torn writes, {} torn flushes, {} clean stops), {} torn pages repaired, \
                 {} log bytes dropped, {} recoveries verified, {} seekless probes agreed, \
                 {} parallel probes agreed, {} ondemand probes agreed",
                method.name(),
                r.schedules,
                r.crashes,
                r.mid_recovery_crashes,
                r.faults_tripped,
                r.torn_writes,
                r.torn_flushes,
                r.clean_stops,
                r.torn_pages_repaired,
                r.log_bytes_dropped,
                r.recoveries_verified,
                r.seekless_probes,
                r.parallel_probes,
                r.ondemand_probes
            );
            true
        }
        Err(e) => {
            println!("VIOLATION — {e}");
            false
        }
    }
}

fn cmd_crash_audit(args: &Args) -> Result<bool, String> {
    let capacity: usize = args.get("capacity", 4)?;
    let backend = match args.get_str("backend", "mem").as_str() {
        "mem" => BackendKind::Mem,
        "file" => BackendKind::File,
        other => return Err(format!("unknown backend {other} (expected mem|file)")),
    };
    let log_shards: usize = args.get("log-shards", 1)?;
    if !log_shards.is_power_of_two() {
        return Err(format!(
            "--log-shards must be a power of two, got {log_shards}"
        ));
    }
    let cfg = CrashAuditConfig {
        schedules: args.get("schedules", 100)?,
        n_ops: args.get("ops", 40)?,
        n_pages: args.get("pages", 6)?,
        seed: args.get("seed", 0)?,
        pool_capacity: if capacity == 0 { None } else { Some(capacity) },
        backend,
        log_shards,
        ..Default::default()
    };
    let method = args.get_str("method", "all");
    let all = method == "all";
    let mut clean = true;
    let mut matched = false;
    if all || method == "logical" {
        clean &= audit_method(&Logical, &cfg);
        matched = true;
    }
    if all || method == "physical" {
        clean &= audit_method(&Physical, &cfg);
        matched = true;
    }
    if all || method == "physiological" {
        clean &= audit_method(&Physiological, &cfg);
        matched = true;
    }
    if all || method == "generalized" {
        clean &= audit_method(&Generalized, &cfg);
        matched = true;
    }
    if all || method == "online" {
        clean &= audit_method(&GeneralizedOnline, &cfg);
        matched = true;
    }
    if all || method == "ondemand" {
        clean &= audit_method(&OnDemand, &cfg);
        matched = true;
    }
    if all || method == "parallel" {
        clean &= audit_method(&ParallelPhysiological { threads: 3 }, &cfg);
        clean &= audit_method(&ParallelPhysical { threads: 3 }, &cfg);
        clean &= audit_method(&ParallelOnline { threads: 3 }, &cfg);
        matched = true;
    }
    if all || method == "media" {
        match audit_media(&cfg) {
            Ok(r) => println!(
                "media: OK — {} schedules, {} crashes, {} faults fired, \
                 {} pages destroyed ({} file deletions, {} file truncations), \
                 {} rebuilds verified, {} ondemand rebuilds verified, \
                 {} interrupted rebuilds verified",
                r.schedules,
                r.crashes,
                r.faults_tripped,
                r.pages_destroyed,
                r.file_deletions,
                r.file_truncations,
                r.rebuilds_verified,
                r.ondemand_rebuilds_verified,
                r.interrupted_rebuilds_verified
            ),
            Err(e) => {
                println!("VIOLATION — {e}");
                clean = false;
            }
        }
        matched = true;
    }
    if all || method == "control" {
        clean &= audit_method(&Control, &cfg);
        match audit_control(&cfg) {
            Ok(r) => println!(
                "control (twin run): OK — {} schedules, {} crashes, {} faults fired, \
                 {} recoveries verified, {} delta/full identity checks, \
                 {} crashes landed on a delta master",
                r.schedules,
                r.crashes,
                r.faults_tripped,
                r.recoveries_verified,
                r.identity_checks,
                r.delta_masters
            ),
            Err(e) => {
                println!("VIOLATION — {e}");
                clean = false;
            }
        }
        matched = true;
    }
    if all || method == "pit" {
        match audit_pit(&cfg) {
            Ok(r) => println!(
                "pit: OK — {} schedules, {} crashes, {} faults fired, \
                 {} full-history replays verified, {} truncation-point replays verified, \
                 {} bytes archived",
                r.schedules,
                r.crashes,
                r.faults_tripped,
                r.full_replays_verified,
                r.truncation_replays_verified,
                r.archived_bytes
            ),
            Err(e) => {
                println!("VIOLATION — {e}");
                clean = false;
            }
        }
        matched = true;
    }
    if !matched {
        return Err(format!("unknown method {method}"));
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
