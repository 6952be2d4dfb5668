//! Seeded fault-injection campaign runner.
//!
//! Sweeps seeds × fault plans × {symmetric, asymmetric} ordering ×
//! {open, closed} binding. Each cell runs two scenarios:
//!
//! * the overlapping-group GCS scenario
//!   ([`newtop_check::scenario::GcsScenario`]), checked against the five
//!   protocol invariants;
//! * a request-reply NSO run with the same fault plan applied, checked
//!   for exactly-once semantics (no duplicate completions, no double
//!   executions) and post-fault progress.
//!
//! Prints a pass/fail table with per-invariant assertion counts. On
//! failure it emits the exact seed, cell and plan for a byte-identical
//! rerun, plus the narrowed repro command line.
//!
//! `--mutate KIND` flips the polarity: the extracted logs are perturbed
//! the way a protocol bug would perturb them, and the campaign succeeds
//! only if the checker catches every mutated run (the "does the alarm
//! actually ring" test, recorded in EXPERIMENTS.md).

use std::process::ExitCode;
use std::time::Duration;

use newtop_check::recovery::RecoveryScenario;
use newtop_check::scenario::{GcsScenario, NODES};
use newtop_check::{Invariant, InvariantChecker, InvariantCounts, Mutation};
use newtop_gcs::group::OrderProtocol;
use newtop_net::faults::{FaultOp, FaultPlan};
use newtop_net::time::SimTime;
use newtop_workloads::scenario::{
    run_request_reply, BindingPolicy, Placement, RequestReplyScenario,
};

const USAGE: &str = "\
campaign — seeded fault-injection sweep with protocol invariant checking

USAGE: campaign [OPTIONS]

OPTIONS:
  --seeds N          seeds per cell (default 25)
  --start-seed S     first seed (default 1)
  --plan NAME        run only the named plan (presets, or rand-<k>)
  --random-plans K   add K seeded random plans to the preset set
  --ordering KIND    sym | asym (default: both)
  --binding KIND     open | closed (default: both)
  --gcs-only         skip the request-reply (NSO) scenario
  --nso-only         skip the GCS scenario
  --recovery         run the crash-recovery campaign instead: each cell
                     kills a member mid-stream, recovers it from its
                     durable log + snapshot via `recover(node@t)`, and
                     checks the five invariants plus the recovery
                     obligations (replay byte-identity, delta < full
                     history, post-recovery convergence)
  --mutate KIND      swap-order | dup-delivery | drop-delivery | drop-view:
                     perturb the logs and require the checker to object
  --quiet            print only the summary table and failures
  -h, --help         this text
";

struct Options {
    seeds: u64,
    start_seed: u64,
    plan_filter: Option<String>,
    random_plans: u64,
    orderings: Vec<OrderProtocol>,
    bindings: Vec<bool>,
    gcs: bool,
    nso: bool,
    mutate: Option<Mutation>,
    recovery: bool,
    quiet: bool,
}

fn parse_args() -> Result<Options, String> {
    let mut opts = Options {
        seeds: 25,
        start_seed: 1,
        plan_filter: None,
        random_plans: 0,
        orderings: vec![OrderProtocol::Symmetric, OrderProtocol::Asymmetric],
        bindings: vec![false, true],
        gcs: true,
        nso: true,
        mutate: None,
        recovery: false,
        quiet: false,
    };
    let mut args = std::env::args().skip(1);
    while let Some(arg) = args.next() {
        let mut value = |name: &str| {
            args.next()
                .ok_or_else(|| format!("{name} needs a value\n\n{USAGE}"))
        };
        match arg.as_str() {
            "--seeds" => opts.seeds = value("--seeds")?.parse().map_err(|e| format!("{e}"))?,
            "--start-seed" => {
                opts.start_seed = value("--start-seed")?.parse().map_err(|e| format!("{e}"))?;
            }
            "--plan" => opts.plan_filter = Some(value("--plan")?),
            "--random-plans" => {
                opts.random_plans = value("--random-plans")?
                    .parse()
                    .map_err(|e| format!("{e}"))?;
            }
            "--ordering" => {
                opts.orderings = match value("--ordering")?.as_str() {
                    "sym" => vec![OrderProtocol::Symmetric],
                    "asym" => vec![OrderProtocol::Asymmetric],
                    other => return Err(format!("unknown ordering {other}\n\n{USAGE}")),
                };
            }
            "--binding" => {
                opts.bindings = match value("--binding")?.as_str() {
                    "open" => vec![true],
                    "closed" => vec![false],
                    other => return Err(format!("unknown binding {other}\n\n{USAGE}")),
                };
            }
            "--gcs-only" => opts.nso = false,
            "--nso-only" => opts.gcs = false,
            "--recovery" => opts.recovery = true,
            "--mutate" => {
                let kind = value("--mutate")?;
                opts.mutate = Some(
                    Mutation::parse(&kind)
                        .ok_or_else(|| format!("unknown mutation {kind}\n\n{USAGE}"))?,
                );
            }
            "--quiet" => opts.quiet = true,
            "-h" | "--help" => {
                print!("{USAGE}");
                std::process::exit(0);
            }
            other => return Err(format!("unknown option {other}\n\n{USAGE}")),
        }
    }
    Ok(opts)
}

fn ordering_label(o: OrderProtocol) -> &'static str {
    match o {
        OrderProtocol::Symmetric => "sym",
        OrderProtocol::Asymmetric => "asym",
    }
}

fn binding_label(open: bool) -> &'static str {
    if open {
        "open"
    } else {
        "closed"
    }
}

/// One row of the summary table: a (plan, ordering, binding) cell
/// aggregated over all its seeds.
struct CellStats {
    plan: String,
    ordering: OrderProtocol,
    open: bool,
    runs: u64,
    counts: InvariantCounts,
    nso_runs: u64,
    nso_failures: u64,
    failures: Vec<String>,
}

impl CellStats {
    fn passed(&self) -> bool {
        self.failures.is_empty()
    }
}

fn has_partition(plan: &FaultPlan) -> bool {
    plan.ops
        .iter()
        .any(|op| matches!(op, FaultOp::Partition { .. }))
}

/// Runs the request-reply scenario under the plan and returns failure
/// descriptions (empty = clean).
fn run_nso_cell(seed: u64, ordering: OrderProtocol, open: bool, plan: &FaultPlan) -> Vec<String> {
    let duration = plan.quiesce_at() + Duration::from_secs(2);
    let scenario = RequestReplyScenario {
        binding: if open {
            BindingPolicy::OpenAnyServer
        } else {
            BindingPolicy::Closed
        },
        ordering,
        duration,
        faults: Some(plan.clone()),
        ..RequestReplyScenario::paper_default(Placement::AllLan, 2, seed)
    };
    let r = run_request_reply(&scenario);
    let mut failures = Vec::new();
    if r.duplicated > 0 {
        failures.push(format!(
            "nso: {} duplicate client completions (exactly-once broken)",
            r.duplicated
        ));
    }
    if r.gave_up > 0 {
        failures.push(format!(
            "nso: {} clients gave up after every replica failed",
            r.gave_up
        ));
    }
    if r.double_executions > 0 {
        failures.push(format!(
            "nso: {} double executions (reply cache failed to dedup)",
            r.double_executions
        ));
    }
    // Progress after the last fault cleared. Partitions can legitimately
    // strand an in-flight call on the minority side, so the liveness
    // assertion applies only to partition-free plans.
    if !has_partition(plan) {
        let horizon = SimTime::ZERO + plan.quiesce_at() + Duration::from_millis(500);
        if r.last_completion_at < horizon {
            failures.push(format!(
                "nso: no completion after faults quiesced (last at {}, horizon {})",
                r.last_completion_at, horizon
            ));
        }
    }
    failures
}

fn main() -> ExitCode {
    let opts = match parse_args() {
        Ok(o) => o,
        Err(e) => {
            eprintln!("{e}");
            return ExitCode::from(2);
        }
    };

    let mut plans = FaultPlan::presets(NODES);
    for k in 0..opts.random_plans {
        plans.push(FaultPlan::random(opts.start_seed + k, NODES));
    }
    if let Some(filter) = &opts.plan_filter {
        plans.retain(|p| &p.name == filter);
        if plans.is_empty() {
            eprintln!("no plan named {filter}");
            return ExitCode::from(2);
        }
    }

    if opts.recovery {
        return run_recovery_campaign(&opts);
    }

    if let Some(mutation) = opts.mutate {
        return run_mutation_campaign(&opts, &plans, mutation);
    }

    let mut cells: Vec<CellStats> = Vec::new();
    for plan in &plans {
        for &ordering in &opts.orderings {
            for &open in &opts.bindings {
                let mut cell = CellStats {
                    plan: plan.name.clone(),
                    ordering,
                    open,
                    runs: 0,
                    counts: InvariantCounts::default(),
                    nso_runs: 0,
                    nso_failures: 0,
                    failures: Vec::new(),
                };
                for seed in opts.start_seed..opts.start_seed + opts.seeds {
                    let repro = format!(
                        "seed={seed} ordering={} binding={} {plan}",
                        ordering_label(ordering),
                        binding_label(open),
                    );
                    if opts.gcs {
                        let run = GcsScenario::new(seed, ordering, open, plan.clone()).run();
                        let report = run.check();
                        cell.runs += 1;
                        cell.counts.merge(&report.counts);
                        for v in &report.violations {
                            cell.failures.push(format!("{repro}: {v}"));
                        }
                    }
                    if opts.nso {
                        cell.nso_runs += 1;
                        let nso_failures = run_nso_cell(seed, ordering, open, plan);
                        if !nso_failures.is_empty() {
                            cell.nso_failures += 1;
                        }
                        for f in nso_failures {
                            cell.failures.push(format!("{repro}: {f}"));
                        }
                    }
                }
                if !opts.quiet {
                    let status = if cell.passed() { "ok" } else { "FAIL" };
                    eprintln!(
                        "  {:<16} {:<4} {:<6} {status}",
                        cell.plan,
                        ordering_label(ordering),
                        binding_label(open),
                    );
                }
                cells.push(cell);
            }
        }
    }

    print_table(&cells, &opts);

    let failed: Vec<&CellStats> = cells.iter().filter(|c| !c.passed()).collect();
    if failed.is_empty() {
        println!(
            "\nPASS: {} cells x {} seeds, all invariants held",
            cells.len(),
            opts.seeds
        );
        ExitCode::SUCCESS
    } else {
        println!("\nFAILURES:");
        for cell in &failed {
            for f in &cell.failures {
                println!("  FAIL {f}");
            }
            // A narrowed command that replays exactly the failing cell.
            println!(
                "  repro: campaign --seeds {} --start-seed <seed above> --plan {} \
                 --ordering {} --binding {}{}",
                1,
                cell.plan,
                ordering_label(cell.ordering),
                binding_label(cell.open),
                if opts.random_plans > 0 {
                    format!(
                        " --random-plans {} (with --start-seed {})",
                        opts.random_plans, opts.start_seed
                    )
                } else {
                    String::new()
                },
            );
        }
        println!(
            "\nFAIL: {}/{} cells violated invariants",
            failed.len(),
            cells.len()
        );
        ExitCode::FAILURE
    }
}

fn print_table(cells: &[CellStats], opts: &Options) {
    println!(
        "\n{:<16} {:<4} {:<6} {:>5}  {}  {:>9}  result",
        "plan",
        "ord",
        "bind",
        "seeds",
        Invariant::ALL
            .iter()
            .map(|i| format!("{:>11}", i.label()))
            .collect::<Vec<_>>()
            .join(" "),
        "nso",
    );
    for cell in cells {
        let per_invariant = (0..5)
            .map(|i| {
                format!(
                    "{:>11}",
                    format!(
                        "{}/{}",
                        cell.counts.checks[i] - cell.counts.violations[i],
                        cell.counts.checks[i]
                    )
                )
            })
            .collect::<Vec<_>>()
            .join(" ");
        println!(
            "{:<16} {:<4} {:<6} {:>5}  {}  {:>9}  {}",
            cell.plan,
            ordering_label(cell.ordering),
            binding_label(cell.open),
            opts.seeds,
            per_invariant,
            format!("{}/{}", cell.nso_runs - cell.nso_failures, cell.nso_runs),
            if cell.passed() { "ok" } else { "FAIL" },
        );
    }
}

/// Recovery campaign: every cell kills a member of both overlapping
/// groups mid-stream and later recovers it (`recover(node@t)`); the
/// five standing invariants must hold on the post-recovery logs and the
/// recovery obligations must hold on the durable evidence.
fn run_recovery_campaign(opts: &Options) -> ExitCode {
    let mut counts = InvariantCounts::default();
    let mut runs = 0u64;
    let mut failures: Vec<String> = Vec::new();
    for &ordering in &opts.orderings {
        for seed in opts.start_seed..opts.start_seed + opts.seeds {
            let scenario = RecoveryScenario::new(seed, ordering);
            let repro = scenario.repro();
            let run = scenario.run();
            runs += 1;
            let report = run.check();
            counts.merge(&report.counts);
            for v in &report.violations {
                failures.push(format!("{repro}: {v}"));
            }
            for v in run.recovery_violations() {
                failures.push(format!("{repro}: recovery: {v}"));
            }
        }
    }
    println!(
        "\nrecovery campaign: {} runs ({} orderings x {} seeds)",
        runs,
        opts.orderings.len(),
        opts.seeds
    );
    for (i, inv) in Invariant::ALL.iter().enumerate() {
        println!(
            "  {:<14} {}/{} checks clean",
            inv.label(),
            counts.checks[i] - counts.violations[i],
            counts.checks[i]
        );
    }
    if failures.is_empty() {
        println!("\nPASS: every member recovered from its durable log + snapshot cleanly");
        ExitCode::SUCCESS
    } else {
        println!("\nFAILURES:");
        for f in &failures {
            println!("  FAIL {f}");
        }
        println!(
            "\nFAIL: {} violations across {} recovery runs",
            failures.len(),
            runs
        );
        ExitCode::FAILURE
    }
}

/// Mutation campaign: every run's logs are perturbed the way a protocol
/// bug would perturb them; the checker must object every time.
fn run_mutation_campaign(opts: &Options, plans: &[FaultPlan], mutation: Mutation) -> ExitCode {
    let mut caught = 0u64;
    let mut applied = 0u64;
    let mut missed: Vec<String> = Vec::new();
    for plan in plans {
        for &ordering in &opts.orderings {
            for seed in opts.start_seed..opts.start_seed + opts.seeds {
                let run = GcsScenario::new(seed, ordering, false, plan.clone()).run();
                let mut logs = run.logs;
                if !mutation.apply(&mut logs) {
                    continue; // run too quiet to host this mutation
                }
                applied += 1;
                let report = InvariantChecker::new(logs, run.sent).check();
                if report.passed() {
                    missed.push(format!(
                        "seed={seed} ordering={} {plan}: mutation {} went undetected",
                        ordering_label(ordering),
                        mutation.name(),
                        plan = plan,
                    ));
                } else {
                    caught += 1;
                }
            }
        }
    }
    println!(
        "mutation {}: {caught}/{applied} mutated runs caught by the checker",
        mutation.name()
    );
    if applied == 0 {
        println!("FAIL: mutation never applicable (runs produced no material)");
        return ExitCode::FAILURE;
    }
    if missed.is_empty() {
        println!("PASS: every injected bug was detected");
        ExitCode::SUCCESS
    } else {
        for m in &missed {
            println!("  MISSED {m}");
        }
        println!("FAIL: {} mutated runs slipped through", missed.len());
        ExitCode::FAILURE
    }
}
