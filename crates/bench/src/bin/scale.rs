//! Geo-distributed capacity sweep over the million-client scale model.
//!
//! For every cell of {sym, asym} × {closed, open, restricted} ×
//! {first, all} × region-matrix, binary-searches the largest modeled
//! client population the configuration sustains at the p99 bound
//! (doubling ladder, then bisection — see `newtop_bench::scale`) and
//! prints the capacity table.
//!
//! Flags: `--smoke` (one small cell + sanity assertions, used by
//! `scripts/check.sh`), `--json` (the `BENCH_PR8.json` document, used
//! by `scripts/bench_snapshot.sh`), `--markdown` (the `EXPERIMENTS.md`
//! capacity table), `--seed N`, `--p99-bound-ms N`, `--duration-ms N`.

use newtop_bench::bench_seed;
use newtop_bench::scale::{render_json, render_markdown, run_sweep, sustainable, SweepConfig};
use std::time::Duration;

struct Args {
    smoke: bool,
    json: bool,
    markdown: bool,
    seed: u64,
    p99_bound_ms: u64,
    duration_ms: Option<u64>,
}

fn parse_args() -> Args {
    let mut args = Args {
        smoke: false,
        json: false,
        markdown: false,
        seed: bench_seed(),
        p99_bound_ms: 400,
        duration_ms: None,
    };
    let mut it = std::env::args().skip(1);
    while let Some(a) = it.next() {
        let mut value = |name: &str| {
            it.next()
                .unwrap_or_else(|| panic!("{name} needs a value"))
                .parse::<u64>()
                .unwrap_or_else(|_| panic!("{name} needs an integer value"))
        };
        match a.as_str() {
            "--smoke" => args.smoke = true,
            "--json" => args.json = true,
            "--markdown" => args.markdown = true,
            "--seed" => args.seed = value("--seed"),
            "--p99-bound-ms" => args.p99_bound_ms = value("--p99-bound-ms"),
            "--duration-ms" => args.duration_ms = Some(value("--duration-ms")),
            "--help" | "-h" => {
                println!(
                    "scale [--smoke] [--json] [--markdown] [--seed N] [--p99-bound-ms N] \
                     [--duration-ms N]\n\
                     Geo-distributed scale-model capacity sweep; see the crate docs."
                );
                std::process::exit(0);
            }
            other => panic!("unknown flag {other} (try --help)"),
        }
    }
    args
}

fn main() {
    let args = parse_args();
    let mut cfg = if args.smoke {
        SweepConfig::smoke(args.seed)
    } else {
        SweepConfig::full(args.seed)
    };
    cfg.p99_bound = Duration::from_millis(args.p99_bound_ms);
    if let Some(ms) = args.duration_ms {
        cfg.duration = Duration::from_millis(ms);
    }

    let outcomes = run_sweep(&cfg);

    if args.json {
        print!("{}", render_json(&cfg, &outcomes));
    } else if args.markdown {
        print!("{}", render_markdown(&cfg, &outcomes));
    } else {
        println!(
            "scale-model capacity sweep (seed {}, p99 bound {} ms)",
            cfg.seed, args.p99_bound_ms
        );
        println!(
            "  {:<13} {:<5} {:<11} {:<6} {:>11} {:>10} {:>10} {:>9}",
            "region", "ord", "binding", "reply", "max clients", "offered/s", "goodput/s", "p99 ms"
        );
        for o in &outcomes {
            let r = &o.measured;
            println!(
                "  {:<13} {:<5} {:<11} {:<6} {:>11} {:>10.0} {:>10.0} {:>9.1}",
                o.spec.region.label(),
                o.spec.ordering_label(),
                o.spec.binding_label(),
                o.spec.mode_label(),
                o.capacity,
                r.offered_per_sec,
                r.goodput_per_sec,
                r.p99.as_secs_f64() * 1e3
            );
        }
        let best = outcomes.iter().max_by_key(|o| o.capacity);
        if let Some(b) = best {
            println!(
                "  best: {} clients ({} {} {} {})",
                b.capacity,
                b.spec.region.label(),
                b.spec.ordering_label(),
                b.spec.binding_label(),
                b.spec.mode_label()
            );
        }
    }

    if args.smoke {
        // CI gates: the search made progress, the small cell is
        // sustainable at its floor, and a re-run of the sweep from the
        // same seed reproduces the JSON byte for byte.
        assert!(!outcomes.is_empty(), "smoke sweep produced no cells");
        assert!(
            outcomes.iter().all(|o| o.probes > 0),
            "a cell ran zero probes"
        );
        assert!(
            outcomes.iter().any(|o| o.capacity >= cfg.start_clients),
            "no smoke cell sustained even the starting population"
        );
        for o in &outcomes {
            if o.capacity > 0 {
                assert!(
                    sustainable(&o.measured, cfg.p99_bound),
                    "recorded capacity measurement is not sustainable"
                );
            }
        }
        let replay = run_sweep(&cfg);
        assert_eq!(
            render_json(&cfg, &outcomes),
            render_json(&cfg, &replay),
            "same seed must reproduce the sweep byte for byte"
        );
        eprintln!("scale --smoke: all sanity gates passed");
    }
}
