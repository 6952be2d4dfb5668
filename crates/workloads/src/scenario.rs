//! Scenario construction and metric extraction.
//!
//! The paper's experiments share one skeleton: place servers and clients
//! on a LAN or across Newcastle/London/Pisa, run closed-loop traffic for
//! a while, and report the mean client response time plus aggregate
//! server throughput inside a measurement window (discarding warm-up and
//! tail). [`run_request_reply`], [`run_plain`] and [`run_peer`] implement
//! that skeleton over the deterministic simulator.

use std::time::Duration;

use newtop::nso::{BindOptions, NsoOptions};
use newtop::simnode::NsoNode;
use newtop_gcs::group::{FanoutMode, GroupConfig, GroupId, Liveness, OrderProtocol};
use newtop_invocation::api::{OpenOptimisation, Replication, ReplyMode};
use newtop_net::faults::FaultPlan;
use newtop_net::sim::{Sim, SimConfig};
use newtop_net::site::{NodeId, Site};
use newtop_net::time::SimTime;
use newtop_net::trace::TraceEvent;

use newtop::nso::ResolveStyle;
use newtop::simnode::NsoApp;
use newtop_dir::app::DirectoryApp;
use newtop_dir::directory::shared_directory;

use crate::apps::{ClientApp, HubApp, PeerApp, ServerApp};
use crate::plain::{PlainClient, PlainServer};

/// The three client/server placements of §5.1.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum Placement {
    /// Clients and servers all on the same LAN.
    AllLan,
    /// Servers on the Newcastle LAN; clients split between London and
    /// Pisa.
    ServersLanClientsWan,
    /// Servers and clients geographically separated across Newcastle,
    /// London and Pisa.
    AllWan,
}

impl Placement {
    /// Where the `i`-th server lives.
    #[must_use]
    pub fn server_site(self, i: usize) -> Site {
        match self {
            Placement::AllLan => Site::Lan,
            Placement::ServersLanClientsWan => Site::Lan,
            Placement::AllWan => [Site::Newcastle, Site::London, Site::Pisa][i % 3],
        }
    }

    /// Where the `i`-th client lives.
    #[must_use]
    pub fn client_site(self, i: usize) -> Site {
        match self {
            Placement::AllLan => Site::Lan,
            Placement::ServersLanClientsWan => [Site::London, Site::Pisa][i % 2],
            Placement::AllWan => [Site::Newcastle, Site::London, Site::Pisa][i % 3],
        }
    }

    /// The simulator configuration for this placement.
    #[must_use]
    pub fn sim_config(self, seed: u64) -> SimConfig {
        match self {
            Placement::AllLan => SimConfig::lan(seed),
            _ => SimConfig::internet(seed),
        }
    }

    /// How long to run so enough requests land in the window.
    #[must_use]
    pub fn default_duration(self) -> Duration {
        match self {
            Placement::AllLan => Duration::from_secs(2),
            _ => Duration::from_secs(8),
        }
    }

    /// A short label for tables.
    #[must_use]
    pub fn label(self) -> &'static str {
        match self {
            Placement::AllLan => "clients & servers on LAN",
            Placement::ServersLanClientsWan => "servers on LAN, clients distant",
            Placement::AllWan => "geographically separated",
        }
    }
}

/// A request-reply experiment.
#[derive(Clone, Debug)]
pub struct RequestReplyScenario {
    /// Number of service replicas (the paper used 3; 1 = non-replicated).
    pub servers: usize,
    /// Number of concurrent closed-loop clients.
    pub clients: usize,
    /// Placement of the parties.
    pub placement: Placement,
    /// Binding style policy.
    pub binding: BindingPolicy,
    /// Reply-collection primitive.
    pub mode: ReplyMode,
    /// Replication discipline of the service.
    pub replication: Replication,
    /// Open-group optimisation.
    pub optimisation: OpenOptimisation,
    /// Ordering protocol (used for both the server group and the
    /// client/server groups).
    pub ordering: OrderProtocol,
    /// Virtual duration of the run.
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
    /// Optional fault schedule, applied to the roster (servers first,
    /// then clients — so `FaultTarget::Sequencer` resolves to the
    /// lowest-ranked live server) when the run starts.
    pub faults: Option<FaultPlan>,
}

/// How clients attach to the service.
#[derive(Copy, Clone, Debug, PartialEq, Eq)]
pub enum BindingPolicy {
    /// Every client forms a closed client/server group.
    Closed,
    /// Client `i` binds openly to server `i mod n` (Fig. 5(i)).
    OpenAnyServer,
    /// Every client binds openly to the designated manager — the
    /// restricted-group optimisation (Fig. 5(ii)).
    OpenRestricted,
    /// Clients resolve the service *name* through the replicated
    /// directory (PR 9) and form a closed binding to the resolved
    /// record's member set; servers publish themselves on every view
    /// change. The run gains [`DIRECTORY_MEMBERS`] directory nodes.
    Directory,
}

/// How many directory members a [`BindingPolicy::Directory`] run hosts.
pub const DIRECTORY_MEMBERS: usize = 3;

impl RequestReplyScenario {
    /// The paper's default: 3 active replicas, wait-for-all, asymmetric
    /// ordering, open bindings.
    #[must_use]
    pub fn paper_default(placement: Placement, clients: usize, seed: u64) -> Self {
        RequestReplyScenario {
            servers: 3,
            clients,
            placement,
            binding: BindingPolicy::OpenAnyServer,
            mode: ReplyMode::All,
            replication: Replication::Active,
            optimisation: OpenOptimisation::None,
            ordering: OrderProtocol::Asymmetric,
            duration: placement.default_duration(),
            seed,
            faults: None,
        }
    }
}

/// Results of a request-reply run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct RequestReplyResult {
    /// Mean client response time inside the window.
    pub mean_response: Duration,
    /// Aggregate completions per second inside the window (the paper's
    /// server throughput).
    pub throughput: f64,
    /// Completions counted in the window.
    pub completed: u64,
    /// Rebinds observed (failure experiments).
    pub rebinds: u32,
    /// Calls the clients' retry timers sent again (summed
    /// [`newtop::SmartProxy::retries`]); zero when no request or reply
    /// was lost.
    pub retries: u32,
    /// Replies that surfaced twice to a client application — must stay
    /// zero for exactly-once semantics (fault campaigns assert on it).
    pub duplicated: u32,
    /// Clients whose proxy gave up after every replica failed — must
    /// stay zero (fault campaigns assert on it).
    pub gave_up: u32,
    /// Executions a server performed more than once for the same
    /// `(client, call)` pair, counted from the per-server trace rings —
    /// must stay zero (retries are answered from the reply cache).
    pub double_executions: u64,
    /// Virtual time of the last completion anywhere (whole run, not just
    /// the measurement window); fault campaigns use it to confirm the
    /// system made progress after the last fault cleared.
    pub last_completion_at: SimTime,
    /// Protocol counters summed over every node in the run.
    pub counts: ProtocolCounts,
}

/// Protocol counters harvested from every node's [`newtop::Nso::metrics`]
/// snapshot after a run and summed across the whole system. These are
/// whole-run totals (no warm-up window), so ratios against windowed
/// completion counts are approximate but comparable between
/// configurations.
#[derive(Copy, Clone, Debug, Default, PartialEq, Eq)]
pub struct ProtocolCounts {
    /// Group-communication messages sent (`gcs.msgs_sent`).
    pub msgs_sent: u64,
    /// Sequencer ordering records multicast (`gcs.order_records`) — the
    /// asymmetric protocol's redirection traffic; zero under the
    /// symmetric protocol.
    pub order_records: u64,
    /// Totally ordered deliveries (`gcs.delivered`).
    pub delivered: u64,
    /// Time-silence null messages sent (`ev.time_silence_null`).
    pub nulls: u64,
    /// Failure-detector suspicions raised (`ev.suspected`).
    pub suspicions: u64,
    /// Server-side request executions (`ev.executed`).
    pub executed: u64,
    /// Retries answered from the reply cache without re-execution
    /// (`ev.retry_deduped`).
    pub deduped: u64,
}

impl ProtocolCounts {
    /// Group-communication messages per completed request (zero when
    /// nothing completed).
    #[must_use]
    pub fn msgs_per_request(&self, completed: u64) -> f64 {
        if completed == 0 {
            0.0
        } else {
            self.msgs_sent as f64 / completed as f64
        }
    }

    /// Sequencer ordering records per totally ordered delivery — ≈1 for
    /// the asymmetric protocol (every delivery is redirected through the
    /// sequencer), 0 for the symmetric one.
    #[must_use]
    pub fn records_per_delivery(&self) -> f64 {
        if self.delivered == 0 {
            0.0
        } else {
            self.order_records as f64 / self.delivered as f64
        }
    }
}

/// Sums the listed nodes' metric snapshots into one count set. Nodes that
/// crashed mid-run still contribute the counts they accumulated.
pub(crate) fn harvest_counts(sim: &Sim, nodes: &[NodeId]) -> ProtocolCounts {
    let mut c = ProtocolCounts::default();
    for &id in nodes {
        let Some(node) = sim.node_ref::<NsoNode>(id) else {
            continue;
        };
        let snap = node.nso().metrics();
        c.msgs_sent += snap.counter("gcs.msgs_sent");
        c.order_records += snap.counter("gcs.order_records");
        c.delivered += snap.counter("gcs.delivered");
        c.nulls += snap.counter("ev.time_silence_null");
        c.suspicions += snap.counter("ev.suspected");
        c.executed += snap.counter("ev.executed");
        c.deduped += snap.counter("ev.retry_deduped");
    }
    c
}

fn window(duration: Duration) -> (SimTime, SimTime) {
    let d = duration.as_nanos() as u64;
    (SimTime::from_nanos(d / 4), SimTime::from_nanos(d * 19 / 20))
}

fn summarize(completions: &[(SimTime, Duration)], duration: Duration) -> RequestReplyResult {
    let (lo, hi) = window(duration);
    let in_window: Vec<Duration> = completions
        .iter()
        .filter(|(at, _)| *at >= lo && *at < hi)
        .map(|&(_, d)| d)
        .collect();
    let completed = in_window.len() as u64;
    let mean = if in_window.is_empty() {
        Duration::ZERO
    } else {
        Duration::from_nanos(
            (in_window.iter().map(Duration::as_nanos).sum::<u128>() / in_window.len() as u128)
                as u64,
        )
    };
    let span = (hi - lo).as_secs_f64();
    RequestReplyResult {
        mean_response: mean,
        throughput: completed as f64 / span,
        completed,
        rebinds: 0,
        retries: 0,
        duplicated: 0,
        gave_up: 0,
        double_executions: 0,
        last_completion_at: completions
            .iter()
            .map(|&(at, _)| at)
            .max()
            .unwrap_or(SimTime::ZERO),
        counts: ProtocolCounts::default(),
    }
}

/// Counts executions a server performed more than once for the same
/// `(client, call number)` pair, from its bounded trace ring. The ring
/// holds 512 records — far more than a campaign run's executions — but
/// even under eviction this can only under-count (miss a duplicate),
/// never report a false positive.
fn count_double_executions(sim: &Sim, servers: &[NodeId]) -> u64 {
    let mut doubles = 0u64;
    for &id in servers {
        let Some(node) = sim.node_ref::<NsoNode>(id) else {
            continue;
        };
        let mut seen: std::collections::HashMap<(NodeId, u64), u64> =
            std::collections::HashMap::new();
        for record in node.nso().trace() {
            if let TraceEvent::Executed { client, number } = record.event {
                *seen.entry((client, number)).or_insert(0) += 1;
            }
        }
        doubles += seen.values().map(|&c| c.saturating_sub(1)).sum::<u64>();
    }
    doubles
}

/// Runs a request-reply scenario through the NewTop service.
#[must_use]
pub fn run_request_reply(s: &RequestReplyScenario) -> RequestReplyResult {
    run_request_reply_latencies(s).0
}

/// Like [`run_request_reply`] but also returns every in-window
/// completion latency, in completion order — the `closed_sim` section
/// of the `bench_snapshot` binary reports percentiles from these.
#[must_use]
pub fn run_request_reply_latencies(
    s: &RequestReplyScenario,
) -> (RequestReplyResult, Vec<Duration>) {
    let mut sim = Sim::new(s.placement.sim_config(s.seed));
    let group = GroupId::new("service");
    let server_ids: Vec<NodeId> = (0..s.servers)
        .map(|i| NodeId::from_index(i as u32))
        .collect();
    // Directory members (when the policy calls for them) take the node
    // indices after servers and clients, keeping fault plans — which
    // target the servers-then-clients roster by index — undisturbed.
    let dir_ids: Vec<NodeId> = match s.binding {
        BindingPolicy::Directory => (0..DIRECTORY_MEMBERS)
            .map(|j| NodeId::from_index((s.servers + s.clients + j) as u32))
            .collect(),
        _ => Vec::new(),
    };
    let gs_config = GroupConfig {
        ordering: s.ordering,
        liveness: Liveness::EventDriven,
        ..GroupConfig::default()
    };
    for (i, &id) in server_ids.iter().enumerate() {
        let app = ServerApp {
            group: group.clone(),
            members: server_ids.clone(),
            replication: s.replication,
            optimisation: s.optimisation,
            config: gs_config.clone(),
            seed: s.seed,
            directory: dir_ids.clone(),
        };
        let added = sim.add_node(
            s.placement.server_site(i),
            Box::new(NsoNode::new(id, Box::new(app))),
        );
        assert_eq!(added, id);
    }
    let mut client_ids = Vec::new();
    for i in 0..s.clients {
        let id = NodeId::from_index((s.servers + i) as u32);
        let opts = match s.binding {
            BindingPolicy::Closed => BindOptions::closed(server_ids.clone()),
            BindingPolicy::OpenAnyServer => BindOptions::open(server_ids[i % s.servers]),
            BindingPolicy::OpenRestricted => BindOptions::open(server_ids[0]),
            BindingPolicy::Directory => BindOptions::resolve(group.as_str(), dir_ids.clone())
                .with_resolve_style(ResolveStyle::Closed),
        }
        .with_ordering(s.ordering);
        // Stagger the binds so control traffic doesn't burst at t=0
        // (directory clients a little later, giving the first
        // registration time to replicate instead of burning a
        // resolve-retry round).
        let bind_delay = match s.binding {
            BindingPolicy::Directory => Duration::from_millis(10 + i as u64),
            _ => Duration::from_millis(1 + i as u64),
        };
        let app = ClientApp::new(group.clone(), server_ids.clone(), opts, s.mode, bind_delay);
        let added = sim.add_node(
            s.placement.client_site(i),
            Box::new(NsoNode::new(id, Box::new(app))),
        );
        assert_eq!(added, id);
        client_ids.push(id);
    }
    for (j, &id) in dir_ids.iter().enumerate() {
        let app: Box<dyn NsoApp> = Box::new(DirectoryApp::new(dir_ids.clone(), shared_directory()));
        let added = sim.add_node(s.placement.server_site(j), Box::new(NsoNode::new(id, app)));
        assert_eq!(added, id);
    }
    if let Some(plan) = &s.faults {
        let mut roster = server_ids.clone();
        roster.extend(client_ids.iter().copied());
        plan.apply(&mut sim, &roster);
    }
    sim.run_until(SimTime::ZERO + s.duration);
    let mut all = Vec::new();
    let mut rebinds = 0;
    let mut retries = 0;
    let mut duplicated = 0;
    let mut gave_up = 0;
    for &id in &client_ids {
        let node = sim.node_ref::<NsoNode>(id).expect("client node");
        let app = node.app_ref::<ClientApp>().expect("client app");
        all.extend(app.completions.iter().copied());
        rebinds += app.rebinds;
        retries += app.retries();
        duplicated += app.duplicate_completions;
        gave_up += app.gave_up;
    }
    let mut result = summarize(&all, s.duration);
    result.rebinds = rebinds;
    result.retries = retries;
    result.duplicated = duplicated;
    result.gave_up = gave_up;
    result.double_executions = count_double_executions(&sim, &server_ids);
    let mut nodes = server_ids;
    nodes.extend(client_ids);
    result.counts = harvest_counts(&sim, &nodes);
    let (lo, hi) = window(s.duration);
    let latencies = all
        .iter()
        .filter(|(at, _)| *at >= lo && *at < hi)
        .map(|&(_, d)| d)
        .collect();
    (result, latencies)
}

/// Runs the plain-CORBA baseline: `clients` closed-loop clients against
/// one unreplicated ORB server.
#[must_use]
pub fn run_plain(
    server_site: Site,
    client_sites: &[Site],
    duration: Duration,
    seed: u64,
) -> RequestReplyResult {
    let cfg = if server_site == Site::Lan && client_sites.iter().all(|&s| s == Site::Lan) {
        SimConfig::lan(seed)
    } else {
        SimConfig::internet(seed)
    };
    let mut sim = Sim::new(cfg);
    let server_id = NodeId::from_index(0);
    sim.add_node(server_site, Box::new(PlainServer::new(server_id, seed)));
    let mut client_ids = Vec::new();
    for (i, &site) in client_sites.iter().enumerate() {
        let id = NodeId::from_index(1 + i as u32);
        let added = sim.add_node(
            site,
            Box::new(PlainClient::new(
                id,
                PlainServer::object_ref(server_id),
                Duration::from_millis(1 + i as u64),
            )),
        );
        assert_eq!(added, id);
        client_ids.push(id);
    }
    sim.run_until(SimTime::ZERO + duration);
    let mut all = Vec::new();
    for id in client_ids {
        let client = sim.node_ref::<PlainClient>(id).expect("client");
        all.extend(client.completions.iter().copied());
    }
    summarize(&all, duration)
}

/// A peer-participation experiment (§5.2).
#[derive(Clone, Debug)]
pub struct PeerScenario {
    /// Group size.
    pub members: usize,
    /// True for the Newcastle/London/Pisa placement; false for the LAN.
    pub wan: bool,
    /// Ordering protocol under test.
    pub ordering: OrderProtocol,
    /// Multicast payload size (the paper used 100 characters).
    pub payload_len: usize,
    /// Interval between each member's send attempts.
    pub pace: Duration,
    /// Time-silence period of the group (the ablation benches sweep it).
    pub time_silence: Duration,
    /// Virtual duration.
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
}

/// Results of a peer run.
#[derive(Copy, Clone, Debug, Default, PartialEq)]
pub struct PeerResult {
    /// Mean time for a multicast to become deliverable at *every* member
    /// (the paper's latency metric).
    pub mean_latency: Duration,
    /// The paper's group throughput: the sum over members of
    /// `1 / mean single-multicast time` (messages per second).
    pub group_throughput: f64,
    /// Multicasts measured.
    pub measured: u64,
    /// Protocol counters summed over every member.
    pub counts: ProtocolCounts,
}

/// Runs a peer-participation scenario.
#[must_use]
pub fn run_peer(s: &PeerScenario) -> PeerResult {
    let cfg = if s.wan {
        SimConfig::internet(s.seed)
    } else {
        SimConfig::lan(s.seed)
    };
    let mut sim = Sim::new(cfg);
    let group = GroupId::new("peers");
    let members: Vec<NodeId> = (0..s.members)
        .map(|i| NodeId::from_index(i as u32))
        .collect();
    let config = GroupConfig {
        ordering: s.ordering,
        liveness: Liveness::Lively,
        // Peer members multicast with the asynchronous method invocation
        // operation (§5.2): fan-outs do not chain round trips.
        fanout: FanoutMode::Asynchronous,
        time_silence: s.time_silence,
        ..GroupConfig::default()
    };
    let sites = [Site::Newcastle, Site::London, Site::Pisa];
    for (i, &id) in members.iter().enumerate() {
        let site = if s.wan { sites[i % 3] } else { Site::Lan };
        let app = PeerApp::new(
            group.clone(),
            members.clone(),
            config.clone(),
            s.payload_len,
            s.pace,
            32,
            Duration::from_millis(1 + i as u64),
        );
        let added = sim.add_node(site, Box::new(NsoNode::new(id, Box::new(app))));
        assert_eq!(added, id);
    }
    sim.run_until(SimTime::ZERO + s.duration);

    // For each multicast: latency = (last delivery anywhere) - (send).
    // Restrict to the measurement window and to messages delivered by
    // every member.
    let (lo, hi) = window(s.duration);
    let mut sent: std::collections::HashMap<(NodeId, u64), SimTime> =
        std::collections::HashMap::new();
    let mut last_delivery: std::collections::HashMap<(NodeId, u64), (SimTime, usize)> =
        std::collections::HashMap::new();
    for &id in &members {
        let node = sim.node_ref::<NsoNode>(id).expect("peer node");
        let app = node.app_ref::<PeerApp>().expect("peer app");
        for (&idx, &at) in &app.sent_at {
            sent.insert((id, idx), at);
        }
        for &(sender, idx, at) in &app.deliveries {
            let e = last_delivery
                .entry((sender, idx))
                .or_insert((SimTime::ZERO, 0));
            e.0 = e.0.max(at);
            e.1 += 1;
        }
    }
    // Per-member mean latency, then the paper's summed throughput.
    let mut per_member_latencies: std::collections::HashMap<NodeId, Vec<Duration>> =
        std::collections::HashMap::new();
    for ((sender, idx), (last, count)) in &last_delivery {
        if *count < s.members {
            continue; // not yet everywhere
        }
        let Some(&at) = sent.get(&(*sender, *idx)) else {
            continue;
        };
        if at < lo || at >= hi {
            continue;
        }
        per_member_latencies
            .entry(*sender)
            .or_default()
            .push(last.saturating_since(at));
    }
    let mut total_rate = 0.0;
    let mut all: Vec<Duration> = Vec::new();
    for lats in per_member_latencies.values() {
        if lats.is_empty() {
            continue;
        }
        let mean = lats.iter().map(Duration::as_secs_f64).sum::<f64>() / lats.len() as f64;
        if mean > 0.0 {
            total_rate += 1.0 / mean;
        }
        all.extend(lats.iter().copied());
    }
    let mean_latency = if all.is_empty() {
        Duration::ZERO
    } else {
        Duration::from_nanos(
            (all.iter().map(Duration::as_nanos).sum::<u128>() / all.len() as u128) as u64,
        )
    };
    PeerResult {
        mean_latency,
        group_throughput: total_rate,
        measured: all.len() as u64,
        counts: harvest_counts(&sim, &members),
    }
}

/// A multi-group experiment: `groups` independent replicated services
/// with disjoint server sets, and `hubs` client nodes each bound to all
/// of them, running a closed loop per binding. Every hub serves several
/// unrelated groups, so batching can pack the per-destination protocol
/// traffic of different groups into shared frames.
#[derive(Clone, Debug)]
pub struct MultiGroupScenario {
    /// Number of independent services.
    pub groups: usize,
    /// Replicas per service (disjoint between services).
    pub servers_per_group: usize,
    /// Number of hub clients, each bound to every service.
    pub hubs: usize,
    /// Whether send-path batching is on.
    pub batching: bool,
    /// Ordering protocol for all groups.
    pub ordering: OrderProtocol,
    /// Reply-collection primitive.
    pub mode: ReplyMode,
    /// Virtual duration of the run.
    pub duration: Duration,
    /// RNG seed.
    pub seed: u64,
}

impl MultiGroupScenario {
    /// The BENCH_PR6 configuration: 8 services x 3 replicas, 12 hubs,
    /// batching on.
    #[must_use]
    pub fn bench_default(seed: u64) -> Self {
        MultiGroupScenario {
            groups: 8,
            servers_per_group: 3,
            hubs: 12,
            batching: true,
            ordering: OrderProtocol::Asymmetric,
            mode: ReplyMode::All,
            duration: Duration::from_secs(2),
            seed,
        }
    }
}

/// Results of a multi-group run.
#[derive(Clone, Debug, Default)]
pub struct MultiGroupResult {
    /// Aggregate completions per second inside the window, over all
    /// hubs and services.
    pub throughput: f64,
    /// Completions counted in the window.
    pub completed: u64,
    /// Mean response time inside the window.
    pub mean_response: Duration,
    /// Completions that surfaced twice anywhere — must stay zero.
    pub duplicated: u32,
    /// Hub proxies that gave up after every replica failed — must stay
    /// zero.
    pub gave_up: u32,
    /// Batch frames sent across all nodes (`gcs.batch_frames`).
    pub batch_frames: u64,
    /// Protocol messages carried inside batch frames (`gcs.batch_msgs`).
    pub batch_msgs: u64,
}

/// Runs a [`MultiGroupScenario`] and returns the aggregate result plus
/// every in-window completion latency.
///
/// # Panics
///
/// Panics if the scenario has zero groups, servers, or hubs.
#[must_use]
pub fn run_multi_group(s: &MultiGroupScenario) -> (MultiGroupResult, Vec<Duration>) {
    assert!(s.groups > 0 && s.servers_per_group > 0 && s.hubs > 0);
    let mut sim = Sim::new(SimConfig::lan(s.seed));
    let opts = NsoOptions::new().with_batching(s.batching);
    let gs_config = GroupConfig {
        ordering: s.ordering,
        liveness: Liveness::EventDriven,
        // Back-to-back fan-outs so a batching-enabled node can pack
        // same-destination messages into one frame.
        fanout: FanoutMode::Asynchronous,
        ..GroupConfig::default()
    };
    let mut services: Vec<(GroupId, Vec<NodeId>)> = Vec::new();
    for g in 0..s.groups {
        let group = GroupId::new(format!("svc-{g}"));
        let members: Vec<NodeId> = (0..s.servers_per_group)
            .map(|i| NodeId::from_index((g * s.servers_per_group + i) as u32))
            .collect();
        for (i, &id) in members.iter().enumerate() {
            let app = ServerApp {
                group: group.clone(),
                members: members.clone(),
                replication: Replication::Active,
                optimisation: OpenOptimisation::None,
                config: gs_config.clone(),
                seed: s.seed.wrapping_add(i as u64),
                directory: Vec::new(),
            };
            let added = sim.add_node(
                Site::Lan,
                Box::new(NsoNode::with_options(id, opts.clone(), Box::new(app))),
            );
            assert_eq!(added, id);
        }
        services.push((group, members));
    }
    let first_hub = s.groups * s.servers_per_group;
    let hub_ids: Vec<NodeId> = (0..s.hubs)
        .map(|i| NodeId::from_index((first_hub + i) as u32))
        .collect();
    for (i, &id) in hub_ids.iter().enumerate() {
        let app = HubApp::new(
            services.clone(),
            s.mode,
            s.ordering,
            Duration::from_millis(1 + i as u64),
        );
        let added = sim.add_node(
            Site::Lan,
            Box::new(NsoNode::with_options(id, opts.clone(), Box::new(app))),
        );
        assert_eq!(added, id);
    }
    sim.run_until(SimTime::ZERO + s.duration);

    let mut all: Vec<(SimTime, Duration)> = Vec::new();
    let mut duplicated = 0;
    let mut gave_up = 0;
    for &id in &hub_ids {
        let node = sim.node_ref::<NsoNode>(id).expect("hub node");
        let app = node.app_ref::<HubApp>().expect("hub app");
        all.extend(app.completions.iter().copied());
        duplicated += app.duplicate_completions;
        gave_up += app.gave_up;
    }
    let (mut batch_frames, mut batch_msgs) = (0, 0);
    for idx in 0..(first_hub + s.hubs) {
        let node = sim
            .node_ref::<NsoNode>(NodeId::from_index(idx as u32))
            .expect("node");
        let snap = node.nso().metrics();
        batch_frames += snap.counter("gcs.batch_frames");
        batch_msgs += snap.counter("gcs.batch_msgs");
    }
    let summary = summarize(&all, s.duration);
    let (lo, hi) = window(s.duration);
    let latencies = all
        .iter()
        .filter(|(at, _)| *at >= lo && *at < hi)
        .map(|&(_, d)| d)
        .collect();
    (
        MultiGroupResult {
            throughput: summary.throughput,
            completed: summary.completed,
            mean_response: summary.mean_response,
            duplicated,
            gave_up,
            batch_frames,
            batch_msgs,
        },
        latencies,
    )
}

#[cfg(test)]
mod tests {
    use super::*;
    use newtop::proxy::RETRY_AFTER;

    #[test]
    fn placements_map_sites() {
        assert_eq!(Placement::AllLan.server_site(0), Site::Lan);
        assert_eq!(Placement::AllLan.client_site(5), Site::Lan);
        assert_eq!(Placement::ServersLanClientsWan.server_site(2), Site::Lan);
        assert_ne!(Placement::ServersLanClientsWan.client_site(0), Site::Lan);
        assert_ne!(Placement::AllWan.server_site(1), Site::Lan);
    }

    #[test]
    fn plain_lan_baseline_shape() {
        let r = run_plain(Site::Lan, &[Site::Lan], Duration::from_secs(1), 3);
        assert!(r.completed > 100);
        let ms = r.mean_response.as_secs_f64() * 1e3;
        assert!(ms > 0.3 && ms < 3.0, "LAN plain call {ms} ms");
    }

    #[test]
    fn request_reply_open_lan_works() {
        let s = RequestReplyScenario {
            clients: 2,
            duration: Duration::from_secs(1),
            ..RequestReplyScenario::paper_default(Placement::AllLan, 2, 5)
        };
        let r = run_request_reply(&s);
        assert!(r.completed > 20, "completed {}", r.completed);
        assert!(r.mean_response > Duration::ZERO);
    }

    #[test]
    fn request_reply_directory_lan_works() {
        let s = RequestReplyScenario {
            binding: BindingPolicy::Directory,
            duration: Duration::from_secs(1),
            ..RequestReplyScenario::paper_default(Placement::AllLan, 2, 7)
        };
        let r = run_request_reply(&s);
        assert!(r.completed > 20, "completed {}", r.completed);
        assert_eq!(r.duplicated, 0);
        // Name-based binding is as deterministic as explicit binding:
        // the same seed reproduces the run exactly.
        let again = run_request_reply(&s);
        assert_eq!(r, again);
    }

    #[test]
    fn request_reply_closed_lan_works() {
        let s = RequestReplyScenario {
            binding: BindingPolicy::Closed,
            duration: Duration::from_secs(1),
            ..RequestReplyScenario::paper_default(Placement::AllLan, 2, 6)
        };
        let r = run_request_reply(&s);
        assert!(r.completed > 20, "completed {}", r.completed);
    }

    #[test]
    fn closed_loop_clients_resend_at_most_one_call_per_retry_interval() {
        // The simulator bench's `lan_closed_group` run and its
        // `closed_sim` 8-client point, at the bench's seed.
        let runs = [
            RequestReplyScenario {
                binding: BindingPolicy::Closed,
                ..RequestReplyScenario::paper_default(Placement::AllLan, 1, 2000)
            },
            RequestReplyScenario {
                binding: BindingPolicy::Directory,
                ..RequestReplyScenario::paper_default(Placement::AllLan, 8, 2000)
            },
        ];
        for s in runs {
            let r = run_request_reply(&s);
            assert!(r.completed > 0);
            let bound = s.clients as u128 * s.duration.as_nanos() / RETRY_AFTER.as_nanos();
            assert!(
                u128::from(r.retries) <= bound,
                "{} clients, {:?}: {} retries in {:?}, more than {bound}",
                s.clients,
                s.binding,
                r.retries,
                s.duration
            );
        }
    }

    #[test]
    fn peer_scenario_measures_throughput() {
        let s = PeerScenario {
            members: 3,
            wan: false,
            ordering: OrderProtocol::Symmetric,
            payload_len: 100,
            pace: Duration::from_millis(1),
            time_silence: Duration::from_millis(25),
            duration: Duration::from_secs(1),
            seed: 9,
        };
        let r = run_peer(&s);
        assert!(r.measured > 10, "measured {}", r.measured);
        assert!(r.group_throughput > 0.0);
    }
}
