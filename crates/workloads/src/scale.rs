//! Million-client scale modeling (PR 8).
//!
//! The paper's evaluation stops at a handful of real clients; the
//! roadmap's north star is the behaviour of a group at the scale of an
//! interactive service with 10⁴–10⁶ users. Spawning a simulator node per
//! client would melt at that scale, and would also be dishonest: the
//! clients are not the bottleneck, the servers are. Instead an
//! [`AggregateClientApp`] models a whole population of clients as one
//! actor driving an **open-loop Poisson arrival process**: if each of
//! `N` modeled clients issues a request every `think_time` on average,
//! the superposition of their arrival processes is (by the Palm–Khintchine
//! theorem) Poisson with rate `N / think_time`, which one actor can
//! reproduce exactly with a seeded exponential gap sampler.
//!
//! Two modelling rules keep the numbers honest:
//!
//! * **Aggregate actors run on a free CPU profile.** The actor stands in
//!   for thousands of independent machines, so its own marshalling cost
//!   must not serialise their traffic. The *servers* keep the default
//!   serial-CPU billing — a request manager that has to decode, order and
//!   answer every arrival saturates exactly as a real one would, and that
//!   saturation (not client-side effects) is what caps capacity.
//! * **Arrivals never wait for completions.** A closed-loop client slows
//!   down when the service does, hiding the knee; an open-loop process
//!   keeps offering load, so queues grow and the p99 shows it — the
//!   standard way to find the sustainable-throughput boundary.
//!
//! Arrivals are deterministic from the seed alone (timers, not replies,
//! drive the sampler), so the same seed produces a byte-identical arrival
//! schedule regardless of server configuration; the
//! [`AggregateClientApp::arrival_digest`] hashes every arrival instant so
//! regression tests can assert exactly that.

use std::collections::HashMap;
use std::time::Duration;

use bytes::Bytes;
use rand::rngs::StdRng;
use rand::{Rng, SeedableRng};

use newtop::nso::{BindOptions, GroupHandle, Nso, NsoOutput, ResolveStyle};
use newtop::simnode::{NsoApp, NsoNode};
use newtop::tags;
use newtop_dir::app::DirectoryApp;
use newtop_dir::directory::shared_directory;
use newtop_gcs::group::{GroupConfig, GroupId, Liveness, OrderProtocol};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::latency::{BandwidthMatrix, LatencyMatrix};
use newtop_net::sim::{Outbox, ServiceProfile, Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::stats::Histogram;
use newtop_net::time::SimTime;

use crate::apps::ServerApp;
use crate::scenario::{harvest_counts, BindingPolicy};

/// Timer tag for the aggregate actor's bind.
const BIND_TAG: u64 = tags::APP_BASE + 3;
/// Timer tag for the next modeled-client arrival.
const ARRIVAL_TAG: u64 = tags::APP_BASE + 4;

/// One actor standing in for a population of modeled clients (see the
/// [module docs](self)).
pub struct AggregateClientApp {
    /// The server group to bind to.
    pub server_group: GroupId,
    /// The service's replicas.
    pub servers: Vec<NodeId>,
    /// Binding policy (closed / open / restricted-manager).
    pub binding: BindingPolicy,
    /// Which server this actor uses as its request manager when open.
    pub manager_index: usize,
    /// Directory members to resolve through under
    /// [`BindingPolicy::Directory`] (unused otherwise).
    pub directory: Vec<NodeId>,
    /// Reply-collection primitive.
    pub mode: ReplyMode,
    /// Ordering protocol for the client/server group.
    pub ordering: OrderProtocol,
    /// Modeled-client arrival rate for this actor, in arrivals/second.
    pub rate: f64,
    /// Stagger before binding.
    pub start_delay: Duration,
    /// Cap on calls in flight; arrivals beyond it are shed (counted, not
    /// queued — a modeled client that cannot be admitted is a failure,
    /// and an unbounded queue would stop the run from quiescing).
    pub max_in_flight: usize,
    /// How long an admitted call may stay unanswered before it is
    /// written off as expired (frees its in-flight slot).
    pub expire_after: Duration,
    /// `(completion time, response time)` per completed call.
    pub completions: Vec<(SimTime, Duration)>,
    /// Total arrivals generated (admitted + shed), whole run.
    pub arrivals: u64,
    /// Arrival instants, FNV-1a-hashed in order — byte-identical arrival
    /// schedules have equal digests.
    pub arrival_digest: u64,
    /// Every arrival instant is also bucketed here so callers can count
    /// arrivals inside a measurement window without a full log.
    pub arrival_times: Vec<SimTime>,
    /// Arrivals shed at admission (binding not ready, in-flight cap hit,
    /// or the stack refused the invocation).
    pub shed: u64,
    /// Shed arrivals, by arrival instant (for windowed accounting).
    pub shed_times: Vec<SimTime>,
    /// Admitted calls written off after [`Self::expire_after`].
    pub expired: u64,
    rng: StdRng,
    handle: Option<GroupHandle>,
    issued_at: HashMap<u64, SimTime>,
}

impl AggregateClientApp {
    /// Creates an aggregate actor. `rate` is this actor's share of the
    /// modeled population's arrival rate; `seed` must differ per actor
    /// (mix the actor index in) so their Poisson streams are independent.
    #[must_use]
    #[allow(clippy::too_many_arguments)] // scenario knobs, all orthogonal
    pub fn new(
        server_group: GroupId,
        servers: Vec<NodeId>,
        binding: BindingPolicy,
        manager_index: usize,
        mode: ReplyMode,
        ordering: OrderProtocol,
        rate: f64,
        seed: u64,
        start_delay: Duration,
    ) -> Self {
        assert!(rate > 0.0, "an idle population needs no actor");
        AggregateClientApp {
            server_group,
            servers,
            binding,
            manager_index,
            directory: Vec::new(),
            mode,
            ordering,
            rate,
            start_delay,
            max_in_flight: 4096,
            expire_after: Duration::from_secs(2),
            completions: Vec::new(),
            arrivals: 0,
            arrival_digest: 0xcbf2_9ce4_8422_2325, // FNV-1a offset basis
            arrival_times: Vec::new(),
            shed: 0,
            shed_times: Vec::new(),
            expired: 0,
            rng: StdRng::seed_from_u64(seed),
            handle: None,
            issued_at: HashMap::new(),
        }
    }

    /// One exponential inter-arrival gap at this actor's rate.
    fn next_gap(&mut self) -> Duration {
        let u = self.rng.gen_range(0.0f64..1.0);
        // 1-u is in (0, 1], so ln is finite and the gap non-negative.
        let secs = -(1.0 - u).ln() / self.rate;
        Duration::from_secs_f64(secs)
    }

    fn digest_arrival(&mut self, now: SimTime) {
        let nanos = (now - SimTime::ZERO).as_nanos() as u64;
        for byte in nanos.to_le_bytes() {
            self.arrival_digest ^= u64::from(byte);
            self.arrival_digest = self.arrival_digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }

    fn bind(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        let opts = match self.binding {
            BindingPolicy::Closed => BindOptions::closed(self.servers.clone()),
            BindingPolicy::OpenAnyServer => {
                BindOptions::open(self.servers[self.manager_index % self.servers.len()])
            }
            BindingPolicy::OpenRestricted => BindOptions::open(self.servers[0]),
            BindingPolicy::Directory => {
                BindOptions::resolve(self.server_group.as_str(), self.directory.clone())
                    .with_resolve_style(ResolveStyle::Open {
                        rank: self.manager_index,
                    })
            }
        }
        .with_ordering(self.ordering);
        nso.bind(self.server_group.clone(), opts, now, out)
            .expect("aggregate bind");
    }

    /// Writes off admitted calls older than [`Self::expire_after`]. Only
    /// run when the in-flight set is full, so the scan amortises.
    fn expire_stale(&mut self, now: SimTime) {
        let horizon = self.expire_after;
        let before = self.issued_at.len();
        self.issued_at.retain(|_, &mut at| now - at < horizon);
        self.expired += (before - self.issued_at.len()) as u64;
    }

    fn on_arrival(&mut self, nso: &mut Nso, now: SimTime, out: &mut Outbox) {
        self.arrivals += 1;
        self.digest_arrival(now);
        self.arrival_times.push(now);
        if self.issued_at.len() >= self.max_in_flight {
            self.expire_stale(now);
        }
        let admitted = match (&self.handle, self.issued_at.len() < self.max_in_flight) {
            (Some(binding), true) => binding
                .clone()
                .invoke(nso, "rand", Bytes::new(), self.mode, now, out)
                .map(|call| self.issued_at.insert(call.number, now))
                .is_ok(),
            _ => false,
        };
        if !admitted {
            self.shed += 1;
            self.shed_times.push(now);
        }
        let gap = self.next_gap();
        out.set_timer(gap, ARRIVAL_TAG);
    }
}

impl NsoApp for AggregateClientApp {
    fn on_start(&mut self, _nso: &mut Nso, _now: SimTime, out: &mut Outbox) {
        out.set_timer(self.start_delay, BIND_TAG);
        // The arrival process starts on its own clock, independent of
        // binding progress: arrivals while unbound are shed, exactly as
        // real clients would time out against a still-recovering service.
        let first = self.next_gap();
        out.set_timer(self.start_delay + first, ARRIVAL_TAG);
    }

    fn on_timer(&mut self, nso: &mut Nso, tag: u64, now: SimTime, out: &mut Outbox) {
        match tag {
            ARRIVAL_TAG => self.on_arrival(nso, now, out),
            _ => self.bind(nso, now, out),
        }
    }

    fn on_output(&mut self, nso: &mut Nso, output: NsoOutput, now: SimTime, out: &mut Outbox) {
        match output {
            NsoOutput::BindingReady { group } => {
                if let Some(handle) = nso.handle_for(&group) {
                    self.handle = Some(handle.clone());
                }
            }
            NsoOutput::BindFailed { .. } => {
                self.manager_index += 1;
                self.bind(nso, now, out);
            }
            NsoOutput::BindingBroken { .. } => {
                self.handle = None;
                self.manager_index += 1;
                self.bind(nso, now, out);
            }
            NsoOutput::InvocationComplete { call, .. } => {
                if let Some(at) = self.issued_at.remove(&call.number) {
                    self.completions.push((now, now - at));
                }
            }
            _ => {}
        }
    }
}

/// Which geography a scale cell runs on.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum RegionMatrix {
    /// The paper's Newcastle/London/Pisa Internet setup; servers and
    /// client populations spread across the three sites.
    PaperWan,
    /// The synthetic five-region planetary matrix
    /// ([`LatencyMatrix::global5`]): servers in us-east/us-west/eu-west,
    /// client populations in all five regions.
    Global5,
    /// The synthetic three-region continental matrix
    /// ([`LatencyMatrix::continental3`]).
    Continental3,
}

impl RegionMatrix {
    /// A short label for tables and JSON.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            RegionMatrix::PaperWan => "paper-wan",
            RegionMatrix::Global5 => "global5",
            RegionMatrix::Continental3 => "continental3",
        }
    }

    /// The latency matrix for this geography.
    #[must_use]
    pub fn latency(self) -> LatencyMatrix {
        match self {
            RegionMatrix::PaperWan => LatencyMatrix::internet(),
            RegionMatrix::Global5 => LatencyMatrix::global5(),
            RegionMatrix::Continental3 => LatencyMatrix::continental3(),
        }
    }

    /// How many aggregate actors (client populations) this geography
    /// hosts — one per region.
    #[must_use]
    pub fn default_actors(self) -> usize {
        match self {
            RegionMatrix::PaperWan | RegionMatrix::Continental3 => 3,
            RegionMatrix::Global5 => 5,
        }
    }

    /// Where the `i`-th server replica lives.
    #[must_use]
    pub fn server_site(self, i: usize) -> Site {
        match self {
            RegionMatrix::PaperWan => [Site::Newcastle, Site::London, Site::Pisa][i % 3],
            // Servers stay on the "fast" side of the planet; clients
            // reach in from everywhere.
            RegionMatrix::Global5 => {
                let s = LatencyMatrix::GLOBAL5_SITES;
                [s[0], s[1], s[2]][i % 3]
            }
            RegionMatrix::Continental3 => {
                let s = LatencyMatrix::CONTINENTAL3_SITES;
                s[i % 3]
            }
        }
    }

    /// Where the `i`-th client population lives.
    #[must_use]
    pub fn actor_site(self, i: usize) -> Site {
        match self {
            RegionMatrix::PaperWan => [Site::Newcastle, Site::London, Site::Pisa][i % 3],
            RegionMatrix::Global5 => LatencyMatrix::GLOBAL5_SITES[i % 5],
            RegionMatrix::Continental3 => LatencyMatrix::CONTINENTAL3_SITES[i % 3],
        }
    }
}

/// A scale-model cell: one service configuration under one modeled
/// client population.
#[derive(Clone, Debug)]
pub struct ScaleScenario {
    /// Number of service replicas.
    pub servers: usize,
    /// Number of aggregate actors (0 = one per region of the matrix).
    pub actors: usize,
    /// Size of the modeled client population.
    pub modeled_clients: u64,
    /// Mean per-client think time between requests. 120 s models an
    /// interactive user touching the service a few times a minute.
    pub think_time: Duration,
    /// Binding policy of the population.
    pub binding: BindingPolicy,
    /// Reply-collection primitive.
    pub mode: ReplyMode,
    /// Ordering protocol.
    pub ordering: OrderProtocol,
    /// Geography.
    pub region: RegionMatrix,
    /// Reordering window applied to the whole run (ZERO = off).
    pub reorder_window: Duration,
    /// Uniform cross-site bandwidth cap in bytes/second (None = uncapped).
    pub link_bandwidth: Option<u64>,
    /// Virtual duration of the run.
    pub duration: Duration,
    /// RNG seed — everything (arrivals, latency jitter) derives from it.
    pub seed: u64,
}

impl ScaleScenario {
    /// The default cell: the restricted-manager configuration of the
    /// paper's Fig. 5(ii) under the paper's WAN, 10⁵ modeled clients.
    #[must_use]
    pub fn default_cell(seed: u64) -> Self {
        ScaleScenario {
            servers: 3,
            actors: 0,
            modeled_clients: 100_000,
            think_time: Duration::from_secs(120),
            binding: BindingPolicy::OpenRestricted,
            mode: ReplyMode::First,
            ordering: OrderProtocol::Asymmetric,
            region: RegionMatrix::PaperWan,
            reorder_window: Duration::from_micros(200),
            link_bandwidth: Some(2_500_000),
            duration: Duration::from_millis(2_400),
            seed,
        }
    }

    fn actor_count(&self) -> usize {
        if self.actors == 0 {
            self.region.default_actors()
        } else {
            self.actors
        }
    }
}

/// What one scale-model run measured.
#[derive(Clone, Debug, Default)]
pub struct ScaleResult {
    /// The modeled population size.
    pub modeled_clients: u64,
    /// Offered load, requests/second (`modeled_clients / think_time`).
    pub offered_per_sec: f64,
    /// Arrivals generated over the whole run.
    pub arrivals: u64,
    /// Arrivals inside the measurement window.
    pub arrivals_in_window: u64,
    /// Arrivals shed at admission inside the window.
    pub shed_in_window: u64,
    /// Admitted calls written off as expired (whole run).
    pub expired: u64,
    /// Completions inside the window.
    pub completed: u64,
    /// Completions/second inside the window.
    pub goodput_per_sec: f64,
    /// Response-time percentiles over in-window completions.
    pub p50: Duration,
    /// 95th percentile.
    pub p95: Duration,
    /// 99th percentile.
    pub p99: Duration,
    /// Mean response time.
    pub mean: Duration,
    /// Failure-detector suspicions over the whole run (false-suspicion
    /// storms under load show up here).
    pub suspicions: u64,
    /// Combined arrival-schedule digest over all actors, in actor order.
    pub arrival_digest: u64,
}

/// Runs one scale-model cell.
///
/// # Panics
///
/// Panics if the scenario has no servers or a zero population.
#[must_use]
pub fn run_scale(s: &ScaleScenario) -> ScaleResult {
    assert!(s.servers > 0, "a service needs replicas");
    assert!(s.modeled_clients > 0, "model at least one client");
    let cfg = SimConfig {
        seed: s.seed,
        latency: s.region.latency(),
        reorder_window: s.reorder_window,
        bandwidth: s
            .link_bandwidth
            .map_or_else(BandwidthMatrix::unlimited, BandwidthMatrix::uniform_remote),
        ..SimConfig::default()
    };
    let mut sim = Sim::new(cfg);
    let group = GroupId::new("scale-service");
    let server_ids: Vec<NodeId> = (0..s.servers)
        .map(|i| NodeId::from_index(i as u32))
        .collect();
    let gs_config = GroupConfig {
        ordering: s.ordering,
        liveness: Liveness::EventDriven,
        ..GroupConfig::default()
    };
    let optimisation = match s.binding {
        BindingPolicy::OpenRestricted => OpenOptimisation::Restricted,
        _ => OpenOptimisation::None,
    };
    let actors = s.actor_count();
    let dir_ids: Vec<NodeId> = match s.binding {
        BindingPolicy::Directory => (0..crate::scenario::DIRECTORY_MEMBERS)
            .map(|j| NodeId::from_index((s.servers + actors + j) as u32))
            .collect(),
        _ => Vec::new(),
    };
    for (i, &id) in server_ids.iter().enumerate() {
        let app = ServerApp {
            group: group.clone(),
            members: server_ids.clone(),
            replication: Replication::Active,
            optimisation,
            config: gs_config.clone(),
            seed: s.seed,
            directory: dir_ids.clone(),
        };
        let added = sim.add_node(
            s.region.server_site(i),
            Box::new(NsoNode::new(id, Box::new(app))),
        );
        assert_eq!(added, id);
    }
    let mut actor_ids = Vec::new();
    for i in 0..actors {
        let id = NodeId::from_index((s.servers + i) as u32);
        // Split the population across the actors; early actors take the
        // remainder so every modeled client is represented.
        let share = s.modeled_clients / actors as u64
            + u64::from((s.modeled_clients % actors as u64) > i as u64);
        if share == 0 {
            continue;
        }
        let rate = share as f64 / s.think_time.as_secs_f64();
        let mut app = AggregateClientApp::new(
            group.clone(),
            server_ids.clone(),
            s.binding,
            i,
            s.mode,
            s.ordering,
            rate,
            // splitmix-style per-actor stream separation.
            s.seed ^ (0x9e37_79b9_7f4a_7c15_u64.wrapping_mul(i as u64 + 1)),
            Duration::from_millis(1 + i as u64),
        );
        app.directory = dir_ids.clone();
        // Free CPU: this actor stands in for `share` distributed client
        // machines, so its own dispatch must not serialise their traffic.
        let added = sim.add_node_with_service(
            s.region.actor_site(i),
            ServiceProfile::free(),
            Box::new(NsoNode::new(id, Box::new(app))),
        );
        assert_eq!(added, id);
        actor_ids.push(id);
    }
    for (j, &id) in dir_ids.iter().enumerate() {
        let app = DirectoryApp::new(dir_ids.clone(), shared_directory());
        let added = sim.add_node(
            s.region.server_site(j),
            Box::new(NsoNode::new(id, Box::new(app))),
        );
        assert_eq!(added, id);
    }
    sim.run_until(SimTime::ZERO + s.duration);

    let d = s.duration.as_nanos() as u64;
    let (lo, hi) = (SimTime::from_nanos(d / 4), SimTime::from_nanos(d * 19 / 20));
    let mut result = ScaleResult {
        modeled_clients: s.modeled_clients,
        offered_per_sec: s.modeled_clients as f64 / s.think_time.as_secs_f64(),
        ..ScaleResult::default()
    };
    let mut hist = Histogram::new();
    let mut digest = 0xcbf2_9ce4_8422_2325_u64;
    for &id in &actor_ids {
        let node = sim.node_ref::<NsoNode>(id).expect("actor node");
        let app = node.app_ref::<AggregateClientApp>().expect("actor app");
        result.arrivals += app.arrivals;
        result.expired += app.expired;
        result.arrivals_in_window += app
            .arrival_times
            .iter()
            .filter(|&&at| at >= lo && at < hi)
            .count() as u64;
        result.shed_in_window += app
            .shed_times
            .iter()
            .filter(|&&at| at >= lo && at < hi)
            .count() as u64;
        for &(at, latency) in &app.completions {
            if at >= lo && at < hi {
                hist.record(latency);
                result.completed += 1;
            }
        }
        for byte in app.arrival_digest.to_le_bytes() {
            digest ^= u64::from(byte);
            digest = digest.wrapping_mul(0x0000_0100_0000_01b3);
        }
    }
    result.arrival_digest = digest;
    let span = (hi - lo).as_secs_f64();
    result.goodput_per_sec = result.completed as f64 / span;
    if result.completed > 0 {
        result.p50 = hist.quantile(0.50);
        result.p95 = hist.quantile(0.95);
        result.p99 = hist.quantile(0.99);
        result.mean = hist.mean();
    }
    let mut roster = server_ids;
    roster.extend(actor_ids);
    result.suspicions = harvest_counts(&sim, &roster).suspicions;
    result
}

#[cfg(test)]
mod tests {
    use super::*;

    fn small_cell(seed: u64) -> ScaleScenario {
        ScaleScenario {
            modeled_clients: 20_000,
            duration: Duration::from_millis(1_200),
            ..ScaleScenario::default_cell(seed)
        }
    }

    #[test]
    fn aggregate_population_completes_requests() {
        let r = run_scale(&small_cell(77));
        // 20k clients at 120s think time ≈ 167 req/s; the window is
        // ~0.84s, so well over 50 should complete.
        assert!(r.completed > 50, "completed {}", r.completed);
        assert!(r.arrivals_in_window > 50);
        assert!(r.p99 >= r.p50);
        assert!(r.goodput_per_sec > 50.0);
        // A healthy cell sheds at most the pre-bind trickle.
        assert!(r.shed_in_window == 0, "shed {} in window", r.shed_in_window);
    }

    #[test]
    fn arrival_schedule_is_seed_deterministic() {
        let a = run_scale(&small_cell(42));
        let b = run_scale(&small_cell(42));
        assert_eq!(a.arrival_digest, b.arrival_digest);
        assert_eq!(a.arrivals, b.arrivals);
        assert_eq!(a.completed, b.completed);
        assert_eq!(a.p99, b.p99);
        let c = run_scale(&small_cell(43));
        assert_ne!(a.arrival_digest, c.arrival_digest);
    }

    #[test]
    fn open_loop_shows_overload_instead_of_hiding_it() {
        // 40× the population drives the offered load far past a single
        // restricted manager's capacity: latency inflates or arrivals
        // shed/expire — either way the cell is visibly unsustainable.
        let calm = run_scale(&small_cell(11));
        let mut hot = small_cell(11);
        hot.modeled_clients = 800_000;
        let overloaded = run_scale(&hot);
        let struggling = overloaded.p99 > calm.p99 * 4
            || overloaded.shed_in_window > 0
            || overloaded.expired > 0
            || (overloaded.goodput_per_sec)
                < 0.9
                    * (overloaded.arrivals_in_window as f64
                        / (hot.duration.as_secs_f64() * (19.0 / 20.0 - 0.25)));
        assert!(
            struggling,
            "800k clients should overwhelm one manager: p99 {:?} vs calm {:?}, shed {}, expired {}",
            overloaded.p99, calm.p99, overloaded.shed_in_window, overloaded.expired
        );
    }
}
