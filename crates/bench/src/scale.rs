//! The geo-distributed capacity sweep: the `capacity_sweep` section of
//! the `bench_snapshot` document.
//!
//! Each cell of the sweep matrix fixes a service configuration —
//! ordering protocol × binding policy × reply-collection mode × region
//! matrix — and asks one question: **how many modeled clients can this
//! configuration sustain** before the p99 response time crosses the
//! bound or the service stops keeping up with its arrivals? The probe
//! is [`newtop_workloads::scale::run_scale`]: an open-loop Poisson
//! population at a given size, billed honestly (serial-CPU servers,
//! free-CPU aggregate actors).
//!
//! The search doubles the population from [`SweepConfig::start_clients`]
//! until a probe fails (or [`SweepConfig::max_clients`] is reached),
//! then bisects between the last sustainable and first unsustainable
//! sizes. Every probe derives from the single campaign seed, so the
//! whole sweep — capacities, digests, the rendered JSON — is a pure
//! function of `(seed, config)` and can be replayed byte-for-byte.

use std::time::Duration;

use newtop_gcs::group::OrderProtocol;
use newtop_invocation::api::ReplyMode;
use newtop_workloads::scenario::BindingPolicy;
use newtop_workloads::{run_scale, RegionMatrix, ScaleResult, ScaleScenario};

use crate::{json_array, json_object};

/// Parameters shared by every cell of one sweep.
#[derive(Clone, Debug)]
pub struct SweepConfig {
    /// Campaign seed; per-cell seeds are mixed from it.
    pub seed: u64,
    /// The sustainability bound on p99 response time.
    pub p99_bound: Duration,
    /// Mean modeled-client think time.
    pub think_time: Duration,
    /// Virtual duration of each probe.
    pub duration: Duration,
    /// First population size probed.
    pub start_clients: u64,
    /// Ceiling on the doubling ladder.
    pub max_clients: u64,
    /// Region matrices swept (each multiplies the cell count).
    pub regions: Vec<RegionMatrix>,
}

impl SweepConfig {
    /// The full sweep: 2 orderings × 4 bindings (closed, open,
    /// restricted, directory-resolved) × 2 reply modes over the paper
    /// WAN and the synthetic five-region matrix, probing 12.5 k to
    /// 1.6 M modeled clients.
    #[must_use]
    pub fn full(seed: u64) -> Self {
        SweepConfig {
            seed,
            p99_bound: Duration::from_millis(400),
            think_time: Duration::from_secs(120),
            duration: Duration::from_millis(2_400),
            start_clients: 12_500,
            max_clients: 1_600_000,
            regions: vec![RegionMatrix::PaperWan, RegionMatrix::Global5],
        }
    }

    /// The CI smoke sweep: one region, a short ladder, short probes —
    /// seconds of wall clock, same code paths.
    #[must_use]
    pub fn smoke(seed: u64) -> Self {
        SweepConfig {
            seed,
            p99_bound: Duration::from_millis(400),
            think_time: Duration::from_secs(120),
            duration: Duration::from_millis(1_000),
            start_clients: 4_000,
            max_clients: 16_000,
            regions: vec![RegionMatrix::PaperWan],
        }
    }
}

/// One cell of the sweep matrix.
#[derive(Clone, Debug)]
pub struct CellSpec {
    /// Geography.
    pub region: RegionMatrix,
    /// Total-order protocol.
    pub ordering: OrderProtocol,
    /// Binding policy of the modeled population.
    pub binding: BindingPolicy,
    /// Reply-collection mode.
    pub mode: ReplyMode,
}

impl CellSpec {
    /// Short ordering label for tables and JSON.
    #[must_use]
    pub fn ordering_label(&self) -> &'static str {
        match self.ordering {
            OrderProtocol::Symmetric => "sym",
            OrderProtocol::Asymmetric => "asym",
        }
    }

    /// Short binding label.
    #[must_use]
    pub fn binding_label(&self) -> &'static str {
        match self.binding {
            BindingPolicy::Closed => "closed",
            BindingPolicy::OpenAnyServer => "open",
            BindingPolicy::OpenRestricted => "restricted",
            BindingPolicy::Directory => "directory",
        }
    }

    /// Short reply-mode label.
    #[must_use]
    pub fn mode_label(&self) -> &'static str {
        match self.mode {
            ReplyMode::OneWay => "oneway",
            ReplyMode::First => "first",
            ReplyMode::Majority => "majority",
            ReplyMode::All => "all",
        }
    }
}

/// The cells of one sweep, in a fixed, reproducible order.
#[must_use]
pub fn cells(cfg: &SweepConfig) -> Vec<CellSpec> {
    let mut out = Vec::new();
    for &region in &cfg.regions {
        for ordering in [OrderProtocol::Symmetric, OrderProtocol::Asymmetric] {
            for binding in [
                BindingPolicy::Closed,
                BindingPolicy::OpenAnyServer,
                BindingPolicy::OpenRestricted,
                BindingPolicy::Directory,
            ] {
                for mode in [ReplyMode::First, ReplyMode::All] {
                    out.push(CellSpec {
                        region,
                        ordering,
                        binding,
                        mode,
                    });
                }
            }
        }
    }
    out
}

/// The outcome of the capacity search in one cell.
#[derive(Clone, Debug)]
pub struct CellOutcome {
    /// The cell.
    pub spec: CellSpec,
    /// Largest probed population that was sustainable (0 = even the
    /// first probe failed).
    pub capacity: u64,
    /// Number of probes the search spent.
    pub probes: u32,
    /// The measurement at `capacity` — or, when `capacity` is 0, at the
    /// failing first probe (so the table shows *why* the cell failed).
    pub measured: ScaleResult,
}

/// Whether one probe counts as sustainable: p99 within the bound, the
/// service keeping up with ≥ 90 % of its in-window arrivals, and at most
/// 1 % of arrivals shed at admission.
#[must_use]
pub fn sustainable(r: &ScaleResult, bound: Duration) -> bool {
    r.completed > 0
        && r.p99 <= bound
        && r.completed as f64 >= 0.9 * r.arrivals_in_window as f64
        && r.shed_in_window * 100 <= r.arrivals_in_window
}

fn cell_seed(cfg: &SweepConfig, index: usize) -> u64 {
    cfg.seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(index as u64 + 1))
}

fn probe(cfg: &SweepConfig, spec: &CellSpec, seed: u64, clients: u64) -> ScaleResult {
    let scenario = ScaleScenario {
        modeled_clients: clients,
        think_time: cfg.think_time,
        binding: spec.binding,
        mode: spec.mode,
        ordering: spec.ordering,
        region: spec.region,
        duration: cfg.duration,
        ..ScaleScenario::default_cell(seed)
    };
    run_scale(&scenario)
}

/// Binary-searches the capacity of one cell: double from
/// `start_clients` until a probe fails, then bisect.
#[must_use]
pub fn search_cell(cfg: &SweepConfig, index: usize, spec: &CellSpec) -> CellOutcome {
    let seed = cell_seed(cfg, index);
    let mut probes = 0u32;
    let mut best: Option<(u64, ScaleResult)> = None;
    let mut first_failure: Option<ScaleResult> = None;
    let mut lo = 0u64;
    let mut hi: Option<u64> = None;
    let mut n = cfg.start_clients;
    loop {
        let r = probe(cfg, spec, seed, n);
        probes += 1;
        if sustainable(&r, cfg.p99_bound) {
            lo = n;
            best = Some((n, r));
            if n >= cfg.max_clients {
                break;
            }
            n = (n * 2).min(cfg.max_clients);
        } else {
            first_failure = Some(r);
            hi = Some(n);
            break;
        }
    }
    if let Some(mut hi_n) = hi {
        // Bisect only when something was sustainable at all; three
        // halvings of a doubling gap give ±1/16 resolution.
        if lo > 0 {
            for _ in 0..3 {
                let mid = lo + (hi_n - lo) / 2;
                if mid == lo || mid == hi_n {
                    break;
                }
                let r = probe(cfg, spec, seed, mid);
                probes += 1;
                if sustainable(&r, cfg.p99_bound) {
                    lo = mid;
                    best = Some((mid, r));
                } else {
                    hi_n = mid;
                }
            }
        }
    }
    match best {
        Some((capacity, measured)) => CellOutcome {
            spec: spec.clone(),
            capacity,
            probes,
            measured,
        },
        None => CellOutcome {
            spec: spec.clone(),
            capacity: 0,
            probes,
            measured: first_failure.expect("at least one probe ran"),
        },
    }
}

/// Runs the whole sweep, cell by cell.
#[must_use]
pub fn run_sweep(cfg: &SweepConfig) -> Vec<CellOutcome> {
    cells(cfg)
        .iter()
        .enumerate()
        .map(|(i, spec)| search_cell(cfg, i, spec))
        .collect()
}

fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Renders the sweep as the `capacity_sweep` section of the
/// `bench_snapshot` document. Built as a string (not printed) so the
/// determinism tests can compare two sweeps byte for byte.
#[must_use]
pub fn render_json(cfg: &SweepConfig, outcomes: &[CellOutcome]) -> String {
    let labels = |spec: &CellSpec| {
        [
            ("region", spec.region.label()),
            ("ordering", spec.ordering_label()),
            ("binding", spec.binding_label()),
            ("reply", spec.mode_label()),
        ]
        .map(|(key, label)| (key, format!("\"{label}\"")))
    };
    let mut fields = vec![
        ("p99_bound_ms", format!("{:.1}", ms(cfg.p99_bound))),
        (
            "think_time_s",
            format!("{:.1}", cfg.think_time.as_secs_f64()),
        ),
        ("probe_duration_ms", cfg.duration.as_millis().to_string()),
        ("start_clients", cfg.start_clients.to_string()),
        ("max_clients", cfg.max_clients.to_string()),
    ];
    if let Some(b) = outcomes.iter().max_by_key(|o| o.capacity) {
        let mut best = labels(&b.spec).to_vec();
        best.push(("max_sustainable_clients", b.capacity.to_string()));
        fields.push(("best", json_object(best)));
    }
    let cells = outcomes.iter().map(|o| {
        let r = &o.measured;
        let mut cell = labels(&o.spec).to_vec();
        cell.extend([
            ("max_sustainable_clients", o.capacity.to_string()),
            ("probes", o.probes.to_string()),
            ("offered_per_sec", format!("{:.1}", r.offered_per_sec)),
            ("goodput_per_sec", format!("{:.1}", r.goodput_per_sec)),
            ("p50_ms", format!("{:.3}", ms(r.p50))),
            ("p95_ms", format!("{:.3}", ms(r.p95))),
            ("p99_ms", format!("{:.3}", ms(r.p99))),
            ("arrivals_in_window", r.arrivals_in_window.to_string()),
            ("completed", r.completed.to_string()),
            ("shed_in_window", r.shed_in_window.to_string()),
            ("expired", r.expired.to_string()),
            ("suspicions", r.suspicions.to_string()),
            ("arrival_digest", format!("\"{:#018x}\"", r.arrival_digest)),
        ]);
        json_object(cell)
    });
    fields.push(("cells", json_array(cells)));
    json_object(fields)
}
