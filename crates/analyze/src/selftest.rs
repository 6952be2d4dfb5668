//! `--self-test`: proves each rule family still fires.
//!
//! Same detectability discipline as PR 3's `--mutate`: for every rule we
//! inject a known-bad snippet (under virtual protocol-crate paths) and
//! assert the rule catches it, plus a known-good twin that must produce
//! zero findings. A regressed rule therefore fails the `check.sh` gate
//! even if the workspace itself happens to be clean. The graph rewrite
//! added *multi-file* cases: a panic two calls deep across crates, an
//! A→B/B→A lock cycle split between files, a determinism taint
//! laundered through a helper crate, blocking I/O behind a worker
//! handler, and a lock held across a call that only sends transitively
//! — none of which any per-body scan can see.

use crate::items::parse_file;
use crate::lexer::lex;
use crate::rules::{self, Finding};

struct Case {
    name: &'static str,
    /// Rule expected to fire on the bad snippet (`None` for good twins).
    expect: Option<&'static str>,
    /// The snippet's files: (virtual workspace path, source). Multi-file
    /// cases exercise cross-file/cross-crate reachability.
    files: &'static [(&'static str, &'static str)],
}

const CASES: &[Case] = &[
    // rule 1 — determinism
    Case {
        name: "determinism/instant-now",
        expect: Some(rules::RULE_DETERMINISM),
        files: &[(
            "crates/gcs/src/selftest.rs",
            "impl GcsMember { fn on_timer(&mut self) { let deadline = Instant::now(); } }",
        )],
    },
    Case {
        name: "determinism/system-time",
        expect: Some(rules::RULE_DETERMINISM),
        files: &[(
            "crates/invocation/src/selftest.rs",
            "fn stamp() -> u64 { SystemTime::now().elapsed().as_secs() }",
        )],
    },
    Case {
        name: "determinism/thread-rng",
        expect: Some(rules::RULE_DETERMINISM),
        files: &[(
            "crates/check/src/selftest.rs",
            "fn jitter() -> u64 { thread_rng().gen() }",
        )],
    },
    Case {
        name: "determinism/hashmap-iteration",
        expect: Some(rules::RULE_DETERMINISM),
        files: &[(
            "crates/core/src/selftest.rs",
            "fn pick(&self) { for (k, v) in self.routes { } let m: HashMap<u32, u32> = Default::default(); }",
        )],
    },
    Case {
        name: "determinism/good-sim-time",
        expect: None,
        files: &[(
            "crates/gcs/src/selftest.rs",
            "fn on_timer(&mut self, now: SimTime) { let deadline = now + self.timeout; let m: BTreeMap<u32, u32> = BTreeMap::new(); }",
        )],
    },
    // rule 2 — panic-freedom on message paths
    Case {
        name: "panic-free/unwrap-in-decode",
        expect: Some(rules::RULE_PANIC_FREE),
        files: &[(
            "crates/orb/src/selftest.rs",
            "impl CdrDecoder { fn read_u32(&mut self) -> u32 { let b: Option<u32> = None; b.unwrap() } }",
        )],
    },
    Case {
        name: "panic-free/indexing-reachable-from-ingest",
        expect: Some(rules::RULE_PANIC_FREE),
        files: &[(
            "crates/gcs/src/selftest.rs",
            "impl GcsMember { fn on_message(&mut self, b: &[u8]) { helper(b); } }\n\
             fn helper(b: &[u8]) -> u8 { b[0] }",
        )],
    },
    Case {
        name: "panic-free/panic-macro-in-from-cdr",
        expect: Some(rules::RULE_PANIC_FREE),
        files: &[(
            "crates/gcs/src/selftest.rs",
            "impl GcsMessage { fn from_cdr(d: &mut CdrDecoder) -> Self { panic!(\"bad tag\") } }",
        )],
    },
    Case {
        name: "panic-free/good-typed-error",
        expect: None,
        files: &[(
            "crates/orb/src/selftest.rs",
            "impl CdrDecoder { fn read_u32(&mut self) -> Result<u32, CdrError> { self.bytes.get(0).copied().ok_or(CdrError::Truncated) } }",
        )],
    },
    // rule 2, graph-shaped — a panic two calls deep, across crate files
    Case {
        name: "panic-free/transitive-two-calls-deep",
        expect: Some(rules::RULE_PANIC_FREE),
        files: &[
            (
                "crates/orb/src/selftest.rs",
                "impl CdrDecoder { fn read_header(&mut self) -> Header { step_one(self) } }",
            ),
            (
                "crates/orb/src/selftest_mid.rs",
                "fn step_one(d: &mut CdrDecoder) -> Header { step_two(d) }",
            ),
            (
                "crates/orb/src/selftest_leaf.rs",
                "fn step_two(d: &mut CdrDecoder) -> Header { d.bytes.pop().expect(\"truncated\") }",
            ),
        ],
    },
    Case {
        name: "panic-free/good-transitive-typed-error",
        expect: None,
        files: &[
            (
                "crates/orb/src/selftest.rs",
                "impl CdrDecoder { fn read_header(&mut self) -> Result<Header, CdrError> { step_one(self) } }",
            ),
            (
                "crates/orb/src/selftest_mid.rs",
                "fn step_one(d: &mut CdrDecoder) -> Result<Header, CdrError> { step_two(d) }",
            ),
            (
                "crates/orb/src/selftest_leaf.rs",
                "fn step_two(d: &mut CdrDecoder) -> Result<Header, CdrError> { d.bytes.pop().ok_or(CdrError::Truncated) }",
            ),
        ],
    },
    // rule 3 — boundedness
    Case {
        name: "bounded/unbounded-channel",
        expect: Some(rules::RULE_BOUNDED),
        files: &[(
            "crates/net/src/selftest.rs",
            "fn mk() { let (tx, rx) = crossbeam_channel::unbounded(); }",
        )],
    },
    Case {
        name: "bounded/std-mpsc",
        expect: Some(rules::RULE_BOUNDED),
        files: &[(
            "crates/rt/src/selftest.rs",
            "fn mk() { let (tx, rx) = std::sync::mpsc::channel(); }",
        )],
    },
    Case {
        name: "bounded/good-flow-queue",
        expect: None,
        files: &[(
            "crates/net/src/selftest.rs",
            "fn mk() { let (tx, rx) = newtop_flow::queue::bounded(64, Discipline::Backpressure); }",
        )],
    },
    // rule 4 — lock hygiene
    Case {
        name: "lock-hygiene/send-under-guard",
        expect: Some(rules::RULE_LOCK_HYGIENE),
        files: &[(
            "crates/net/src/selftest.rs",
            "fn fwd(&self) { let reg = self.registry.read(); reg.tx.try_send(frame); }",
        )],
    },
    Case {
        name: "lock-hygiene/write-all-under-guard",
        expect: Some(rules::RULE_LOCK_HYGIENE),
        files: &[(
            "crates/net/src/selftest.rs",
            "fn fwd(&self) { let mut conns = self.conns.lock(); conns.stream.write_all(&frame); }",
        )],
    },
    Case {
        name: "lock-hygiene/good-clone-then-send",
        expect: None,
        files: &[(
            "crates/net/src/selftest.rs",
            "fn fwd(&self) { let tx = { let reg = self.registry.read(); reg.tx.clone() }; tx.try_send(frame); }",
        )],
    },
    // rule 4, graph-shaped — the send is one call away
    Case {
        name: "lock-hygiene/transitive-send-under-guard",
        expect: Some(rules::RULE_LOCK_HYGIENE),
        files: &[(
            "crates/net/src/selftest.rs",
            "fn fwd(&self) { let reg = self.registry.read(); forward(reg.frame()); }\n\
             fn forward(frame: Frame) { TX.try_send(frame); }",
        )],
    },
    Case {
        name: "lock-hygiene/good-guard-dropped-before-call",
        expect: None,
        files: &[(
            "crates/net/src/selftest.rs",
            "fn fwd(&self) { let frame = { let reg = self.registry.read(); reg.frame() }; forward(frame); }\n\
             fn forward(frame: Frame) { TX.try_send(frame); }",
        )],
    },
    // rule 4 extension — cross-shard channel ownership
    Case {
        name: "lock-hygiene/cross-shard-channel-outside-rt",
        expect: Some(rules::RULE_LOCK_HYGIENE),
        files: &[(
            "crates/workloads/src/selftest.rs",
            "fn fan_in(n: usize) { let shards = n; let (tx, rx) = bounded::<Frame>(64); }",
        )],
    },
    Case {
        name: "lock-hygiene/good-rt-shard-worker-channel",
        expect: None,
        files: &[(
            "crates/rt/src/selftest.rs",
            "fn spawn_ingress(n: usize) { let shards = n; let (tx, rx) = bounded::<Frame>(64); std::thread::Builder::new().spawn(move || {}); }",
        )],
    },
    // rule 5 — durability (append acknowledged without reachable sync)
    Case {
        name: "durability/append-without-sync",
        expect: Some(rules::RULE_DURABILITY),
        files: &[(
            "crates/dir/src/selftest.rs",
            "impl DurableGcsNode { fn on_event(&mut self, ev: NodeEvent) { self.stage(ev); } \
             fn stage(&mut self, ev: NodeEvent) { self.store.lock().unwrap().append(self.id, &rec); } }",
        )],
    },
    Case {
        name: "durability/good-synced-commit-point",
        expect: None,
        files: &[(
            "crates/dir/src/selftest.rs",
            "impl DurableGcsNode { fn on_event(&mut self, ev: NodeEvent) { self.stage(ev); self.commit(); } \
             fn stage(&mut self, ev: NodeEvent) { self.store.lock().unwrap().append(self.id, &rec); } \
             fn commit(&mut self) { self.store.lock().unwrap().sync(self.id); } }",
        )],
    },
    // rule 6 — lock-order deadlock cycles, split across files
    Case {
        name: "lock-order/ab-ba-cycle-across-files",
        expect: Some(rules::RULE_LOCK_ORDER),
        files: &[
            (
                "crates/gcs/src/selftest.rs",
                "fn grab_ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
            ),
            (
                "crates/gcs/src/selftest_peer.rs",
                "fn grab_ba(&self) { let b = self.beta.lock(); let a = self.alpha.lock(); }",
            ),
        ],
    },
    Case {
        name: "lock-order/good-consistent-order",
        expect: None,
        files: &[
            (
                "crates/gcs/src/selftest.rs",
                "fn grab_ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
            ),
            (
                "crates/gcs/src/selftest_peer.rs",
                "fn also_ab(&self) { let a = self.alpha.lock(); let b = self.beta.lock(); }",
            ),
        ],
    },
    // rule 7 — determinism taint laundered through a helper crate
    Case {
        name: "determinism-taint/laundered-through-helper",
        expect: Some(rules::RULE_TAINT),
        files: &[
            (
                "crates/gcs/src/selftest.rs",
                "impl GcsMember { fn on_timer(&mut self, tag: u64) { let j = jitter_ms(); } }",
            ),
            (
                "crates/orb/src/selftest.rs",
                "fn jitter_ms() -> u64 { Instant::now().elapsed().as_millis() as u64 }",
            ),
        ],
    },
    Case {
        name: "determinism-taint/good-time-as-parameter",
        expect: None,
        files: &[
            (
                "crates/gcs/src/selftest.rs",
                "impl GcsMember { fn on_timer(&mut self, now: SimTime) { let j = jitter_ms(now); } }",
            ),
            (
                "crates/orb/src/selftest.rs",
                "fn jitter_ms(now: SimTime) -> u64 { now.as_millis() }",
            ),
        ],
    },
    // rule 8 — blocking reachable from a worker handler
    Case {
        name: "blocking-in-worker/file-io-behind-handler",
        expect: Some(rules::RULE_BLOCKING),
        files: &[(
            "crates/core/src/selftest.rs",
            "impl Nso { fn on_packet(&mut self, pkt: &Packet) { self.persist(pkt); } \
             fn persist(&mut self, pkt: &Packet) { let f = File::open(self.path()); std::thread::sleep(RETRY); } }",
        )],
    },
    Case {
        name: "blocking-in-worker/good-outbox-staging",
        expect: None,
        files: &[(
            "crates/core/src/selftest.rs",
            "impl Nso { fn on_packet(&mut self, pkt: &Packet) { self.stage(pkt); } \
             fn stage(&mut self, pkt: &Packet) { self.outbox.push(pkt.frame()); } }",
        )],
    },
];

/// Runs the injected-violation suite. Returns a human-readable report;
/// `Err` lists every case whose outcome differed from its expectation.
pub fn run() -> Result<String, String> {
    let mut report = String::new();
    let mut failures = Vec::new();
    for case in CASES {
        let parsed: Vec<_> = case
            .files
            .iter()
            .map(|(path, src)| parse_file(path, lex(src)))
            .collect();
        let findings: Vec<Finding> = rules::run_all(&parsed);
        let outcome = match case.expect {
            Some(rule) => {
                if findings.iter().any(|f| f.rule == rule) {
                    "caught"
                } else {
                    failures.push(format!(
                        "{}: expected rule `{rule}` to fire, findings: {findings:?}",
                        case.name
                    ));
                    "MISSED"
                }
            }
            None => {
                if findings.is_empty() {
                    "clean"
                } else {
                    failures.push(format!(
                        "{}: expected no findings, got: {findings:?}",
                        case.name
                    ));
                    "FALSE-POSITIVE"
                }
            }
        };
        report.push_str(&format!("self-test {:<48} {outcome}\n", case.name));
    }
    let injected = CASES.iter().filter(|c| c.expect.is_some()).count();
    report.push_str(&format!(
        "self-test: {injected} injected violations, {} good twins, {} failures\n",
        CASES.len() - injected,
        failures.len()
    ));
    if failures.is_empty() {
        Ok(report)
    } else {
        Err(format!("{report}\n{}", failures.join("\n")))
    }
}

#[cfg(test)]
mod tests {
    #[test]
    fn self_test_passes() {
        if let Err(e) = super::run() {
            panic!("self-test failed:\n{e}");
        }
    }
}
