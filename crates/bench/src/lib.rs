//! Benchmark harness for the NewTop reproduction.
//!
//! Every table and figure of the paper's evaluation (§5) has a bench
//! target under `benches/` that regenerates it on the deterministic
//! simulator and prints the rows/series in the paper's format:
//!
//! | Paper exhibit | Bench target |
//! |---|---|
//! | Table 1 (plain CORBA) | `table1_plain_corba` |
//! | Graphs 1–4 (non-replicated via NewTop) | `graphs_1_4_nonreplicated` |
//! | Graphs 5–10 (optimised open vs non-replicated) | `graphs_5_10_optimised` |
//! | Graphs 11–16 (closed vs open) | `graphs_11_16_closed_open` |
//! | Graphs 17–18 (peer participation) | `graphs_17_18_peer` |
//! | §5.1.3 / §4.2 design choices | `ablations` |
//!
//! `micro` contains criterion micro-benchmarks of the substrate (CDR
//! marshalling, wire codecs, the delivery engine's ordering pipelines,
//! the clocks, directory resolves), and `fanout_encode` compares the
//! encode-once multicast path with per-recipient encoding. Those two
//! measure wall-clock time and are report-only.
//!
//! The `bench_snapshot` binary runs every other simulator measurement
//! at full size — the LAN closed-group call, the closed-loop client
//! sweep, the multi-group run, the open-loop storms, the capacity sweep
//! ([`scale`]) and the cold restart — and prints them as one JSON
//! document. It takes no flags; `NEWTOP_BENCH_SEED` sets the seed. The
//! document is a pure function of the seed, so `scripts/check.sh` diffs
//! it against the committed `BENCH_SIM.json`:
//!
//! ```text
//! cargo run --release --offline -p newtop-bench --bin bench_snapshot > BENCH_SIM.json
//! ```
//!
//! Run everything with `cargo bench --workspace`; each figure target also
//! accepts `NEWTOP_BENCH_SEED` to vary the simulation seed.

pub mod scale;

/// The default seed used by the figure benches (override with the
/// `NEWTOP_BENCH_SEED` environment variable).
#[must_use]
pub fn bench_seed() -> u64 {
    std::env::var("NEWTOP_BENCH_SEED")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(2000)
}

/// The client sweep used by the request-reply figures (the paper swept 1
/// to 20 clients).
pub const CLIENT_SWEEP: &[usize] = &[1, 2, 4, 8, 12, 16, 20];

/// The group sizes used by the peer figures.
pub const PEER_SIZES: &[usize] = &[2, 3, 4, 6, 8, 10];

/// Renders a JSON object from `(key, value)` pairs, one field per line,
/// in the given order. Each value is already JSON text; one that spans
/// lines is indented one level.
#[must_use]
pub fn json_object<K: AsRef<str>>(fields: impl IntoIterator<Item = (K, String)>) -> String {
    json_block(
        '{',
        fields
            .into_iter()
            .map(|(key, value)| format!("\"{}\": {value}", key.as_ref())),
        '}',
    )
}

/// Renders a JSON array of already-rendered values, one per line.
#[must_use]
pub fn json_array(items: impl IntoIterator<Item = String>) -> String {
    json_block('[', items, ']')
}

fn json_block(open: char, entries: impl IntoIterator<Item = String>, close: char) -> String {
    let mut s = String::from(open);
    let mut sep = "\n  ";
    for entry in entries {
        s.push_str(sep);
        s.push_str(&entry.replace('\n', "\n  "));
        sep = ",\n  ";
    }
    s.push('\n');
    s.push(close);
    s
}
