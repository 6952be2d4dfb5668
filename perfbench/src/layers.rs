//! Per-layer metrics of a traced window: from the spans recorded around
//! each layer's entry points and from the deltas of every node's
//! `Nso::metrics()` counters over the window, summed over nodes.

use newtop_net::metrics::MetricsSnapshot;

use crate::sys::{micros, millis, quantile};
use crate::trace::{FrameMix, Spans};
use crate::Window;

/// One per-layer metric with the base its value is measured against.
pub struct Row {
    pub name: &'static str,
    pub unit: &'static str,
    pub value: f64,
    pub base: String,
}

/// For each per-layer metric, the end-to-end metric it should move and
/// on which workload.
pub const MOVES: &[(&str, &str)] = &[
    (
        "rt.cmd_wait_us.p50",
        "op_p50_ms on invoke-open; op_p99_ms on peer-total",
    ),
    (
        "rt.cmd_wait_us.p99",
        "op_p50_ms on invoke-open; op_p99_ms on peer-total",
    ),
    (
        "rt.idle_cpu_ms_per_s",
        "cpu_ms_per_op on invoke-open and peer-total; little on invoke-closed",
    ),
    ("rt.share_us.p50", "op_p50_ms on invoke-open"),
    ("rt.out_queue_peak", "op_fail_ratio on peer-total"),
    ("rt.out_shed", "op_fail_ratio on peer-total"),
    (
        "net.send_us.p50",
        "ops_per_s on invoke-closed; no change on peer-total",
    ),
    (
        "net.send_us.p99",
        "ops_per_s on invoke-closed; no change on peer-total",
    ),
    ("net.frames_per_op", "cpu_ms_per_op on invoke-closed"),
    ("net.bytes_per_op", "cpu_ms_per_op on invoke-closed"),
    ("net.send_errors", "op_fail_ratio on all"),
    ("net.inbox_peak", "op_p99_ms on peer-total"),
    ("orb.frame_decode_us.p50", "cpu_ms_per_op on invoke-open"),
    (
        "orb.gcs_frames_per_op",
        "op_p50_ms on invoke-open (relay hops)",
    ),
    (
        "orb.inv_frames_per_op",
        "op_p50_ms on invoke-open (relay hops)",
    ),
    (
        "orb.reply_frames_per_op",
        "op_p50_ms on invoke-open (relay hops)",
    ),
    (
        "gcs.frame_decode_us.p50",
        "cpu_ms_per_op on peer-total and invoke-closed",
    ),
    ("gcs.msgs_per_op", "cpu_ms_per_op on all"),
    ("gcs.encodes_per_op", "cpu_ms_per_op on invoke-closed"),
    ("gcs.bytes_encoded_per_op", "cpu_ms_per_op on invoke-closed"),
    ("gcs.msgs_per_frame", "cpu_ms_per_op on peer-total"),
    (
        "gcs.order_records_per_delivery",
        "op_p50_ms on invoke-open; 0 on peer-total",
    ),
    ("gcs.nulls_per_op", "op_p50_ms on peer-total"),
    ("gcs.nacks_per_op", "op_p99_ms on peer-total"),
    ("gcs.retransmits_per_op", "op_p99_ms on peer-total"),
    ("gcs.views_in_window", "op_fail_ratio on invoke-closed"),
    ("gcs.suspicions_in_window", "op_fail_ratio on invoke-closed"),
    (
        "flow.shed_per_op",
        "op_fail_ratio and ops_per_s on invoke-closed",
    ),
    ("flow.queue_depth_peak", "op_p99_ms on peer-total"),
    ("invocation.lost_calls", "op_fail_ratio on invoke-*"),
    ("invocation.forwards_per_op", "op_p50_ms on invoke-open"),
    (
        "invocation.executions_per_op",
        "cpu_ms_per_op and op_p50_ms on invoke-*",
    ),
    (
        "invocation.replies_collected_per_op",
        "cpu_ms_per_op and op_p50_ms on invoke-*",
    ),
    ("invocation.nso_latency_ms.p50", "op_p50_ms on invoke-*"),
    ("invocation.nso_latency_ms.p99", "op_p99_ms on invoke-*"),
    (
        "core.call_us.p50",
        "cpu_ms_per_op on invoke-closed; op_p50_ms on invoke-open and peer-total",
    ),
    (
        "core.call_us.p99",
        "cpu_ms_per_op on invoke-closed; op_p50_ms on invoke-open and peer-total",
    ),
    (
        "core.invoke_us.p50",
        "cpu_ms_per_op on invoke-closed; op_p50_ms on invoke-open",
    ),
    (
        "core.invoke_us.p99",
        "cpu_ms_per_op on invoke-closed; op_p50_ms on invoke-open",
    ),
    ("core.send_us.p50", "op_p50_ms on peer-total"),
    ("driver.late_ms.p99", "op_p99_ms on peer-total"),
    ("driver.poll_us", "op_p99_ms on peer-total"),
    (
        "trace.op_p50_ms_delta",
        "tracing overhead: traced minus untraced op_p50_ms",
    ),
    (
        "trace.cpu_ms_per_op_delta",
        "tracing overhead: traced minus untraced cpu_ms_per_op",
    ),
];

/// Per-layer times printed with the others but left out of the result
/// line: each belongs to a path one of the workloads does not take
/// (`peer-total` has no invocation path and never calls `invoke`; the
/// `invoke-*` workloads never call `send`), where it reads a constant
/// 0, which is no measurement. `core.call_us` carries both calls.
pub const PRINT_ONLY: [&str; 6] = [
    "rt.share_us.p50",
    "invocation.nso_latency_ms.p50",
    "invocation.nso_latency_ms.p99",
    "core.invoke_us.p50",
    "core.invoke_us.p99",
    "core.send_us.p50",
];

/// Everything the per-layer metrics are computed from.
pub struct Traced<'a> {
    pub window: &'a Window,
    pub spans: &'a Spans,
    pub frames: &'a FrameMix,
    pub before: &'a [MetricsSnapshot],
    pub after: &'a [MetricsSnapshot],
    /// Node index of the invocation client, if the workload has one.
    pub client: Option<usize>,
    pub idle_cpu_ms_per_s: f64,
    pub idle_secs: f64,
    pub out_queue_peak: u64,
    pub out_queue_capacity: usize,
    pub out_shed: u64,
    pub inbox_peak: u64,
    pub inbox_capacity: usize,
    pub traced_cpu_ms_per_op: f64,
    pub untraced_op_p50_ms: f64,
    pub untraced_cpu_ms_per_op: f64,
}

impl Traced<'_> {
    fn delta(&self, name: &str) -> u64 {
        let sum = |snaps: &[MetricsSnapshot]| snaps.iter().map(|s| s.counter(name)).sum::<u64>();
        sum(self.after).saturating_sub(sum(self.before))
    }

    fn client_delta(&self, name: &str) -> Option<u64> {
        let c = self.client?;
        Some(
            self.after[c]
                .counter(name)
                .saturating_sub(self.before[c].counter(name)),
        )
    }

    fn span_us(&self, name: &str, q: f64) -> (f64, usize) {
        let d: Vec<f64> = self.spans.durations(name).into_iter().map(micros).collect();
        (quantile(&d, q), d.len())
    }

    pub fn rows(&self) -> Vec<Row> {
        let ops = self.window.attempted.max(1) as f64;
        let per_op = format!("per attempted op ({} ops)", self.window.attempted);
        let mut rows = Vec::new();
        let mut row = |name: &'static str, unit: &'static str, value: f64, base: String| {
            rows.push(Row {
                name,
                unit,
                value: if value.is_finite() { value } else { 0.0 },
                base,
            });
        };
        let span_row = |row: &mut dyn FnMut(&'static str, &'static str, f64, String),
                        name: &'static str,
                        span: &str,
                        q: f64,
                        what: &str| {
            let (v, n) = self.span_us(span, q);
            row(name, "us", v, format!("per {what} ({n} spans `{span}`)"));
        };

        // rt
        span_row(
            &mut row,
            "rt.cmd_wait_us.p50",
            "rt.cmd_wait",
            0.50,
            "with_nso command",
        );
        span_row(
            &mut row,
            "rt.cmd_wait_us.p99",
            "rt.cmd_wait",
            0.99,
            "with_nso command",
        );
        row(
            "rt.idle_cpu_ms_per_s",
            "ms/s",
            self.idle_cpu_ms_per_s,
            format!(
                "per second of a {} s idle window, all nodes up",
                self.idle_secs
            ),
        );
        let op_p50_ms = quantile(&self.window.latencies_ms(), 0.50);
        let nso = self
            .client
            .and_then(|c| self.after[c].latencies.get("inv.latency").copied());
        match nso {
            Some(l) => row(
                "rt.share_us.p50",
                "us",
                op_p50_ms * 1e3 - micros(l.p50),
                format!(
                    "op p50 {op_p50_ms:.4} ms minus client inv.latency p50 {:.4} ms",
                    millis(l.p50)
                ),
            ),
            None => row(
                "rt.share_us.p50",
                "us",
                0.0,
                "n/a: no invocation client".into(),
            ),
        }
        row(
            "rt.out_queue_peak",
            "count",
            self.out_queue_peak as f64,
            format!(
                "max over nodes since start (capacity {})",
                self.out_queue_capacity
            ),
        );
        row(
            "rt.out_shed",
            "count",
            self.out_shed as f64,
            "outputs shed in window, all nodes".into(),
        );

        // net
        span_row(&mut row, "net.send_us.p50", "net.send", 0.50, "frame sent");
        span_row(&mut row, "net.send_us.p99", "net.send", 0.99, "frame sent");
        let f = self.frames;
        row(
            "net.frames_per_op",
            "frames/op",
            f.frames as f64 / ops,
            format!("{} frames {per_op}", f.frames),
        );
        row(
            "net.bytes_per_op",
            "B/op",
            f.bytes as f64 / ops,
            format!("{} frame bytes {per_op}", f.bytes),
        );
        row(
            "net.send_errors",
            "count",
            f.send_errors as f64,
            format!("of {} sends in window", f.frames),
        );
        row(
            "net.inbox_peak",
            "count",
            self.inbox_peak as f64,
            format!(
                "max inbox depth over nodes since start (capacity {})",
                self.inbox_capacity
            ),
        );

        // orb
        span_row(
            &mut row,
            "orb.frame_decode_us.p50",
            "orb.decode",
            0.50,
            "sent frame",
        );
        row(
            "orb.gcs_frames_per_op",
            "frames/op",
            f.gcs as f64 / ops,
            format!("{} `gcs` requests {per_op}", f.gcs),
        );
        row(
            "orb.inv_frames_per_op",
            "frames/op",
            f.inv as f64 / ops,
            format!("{} `inv` requests {per_op}", f.inv),
        );
        row(
            "orb.reply_frames_per_op",
            "frames/op",
            f.reply as f64 / ops,
            format!(
                "{} GIOP replies {per_op} ({} other, {} undecodable)",
                f.reply, f.other, f.undecodable
            ),
        );

        // gcs
        span_row(
            &mut row,
            "gcs.frame_decode_us.p50",
            "gcs.decode",
            0.50,
            "GCS frame",
        );
        let counted = |row: &mut dyn FnMut(&'static str, &'static str, f64, String),
                       name: &'static str,
                       unit: &'static str,
                       counter: &str| {
            let n = self.delta(counter);
            row(
                name,
                unit,
                n as f64 / ops,
                format!("{n} `{counter}` {per_op}"),
            );
        };
        counted(&mut row, "gcs.msgs_per_op", "msgs/op", "gcs.msgs_sent");
        counted(
            &mut row,
            "gcs.encodes_per_op",
            "encodes/op",
            "gcs.encode_calls",
        );
        counted(
            &mut row,
            "gcs.bytes_encoded_per_op",
            "B/op",
            "gcs.bytes_encoded",
        );
        let (bm, bf) = (self.delta("gcs.batch_msgs"), self.delta("gcs.batch_frames"));
        row(
            "gcs.msgs_per_frame",
            "msgs/frame",
            bm as f64 / bf.max(1) as f64,
            format!("{bm} `gcs.batch_msgs` per batch frame ({bf} `gcs.batch_frames`)"),
        );
        let (or, dl) = (self.delta("gcs.order_records"), self.delta("gcs.delivered"));
        row(
            "gcs.order_records_per_delivery",
            "records/delivery",
            or as f64 / dl.max(1) as f64,
            format!("{or} `gcs.order_records` per delivery ({dl} `gcs.delivered`)"),
        );
        counted(
            &mut row,
            "gcs.nulls_per_op",
            "nulls/op",
            "ev.time_silence_null",
        );
        counted(&mut row, "gcs.nacks_per_op", "nacks/op", "ev.nack_sent");
        counted(
            &mut row,
            "gcs.retransmits_per_op",
            "msgs/op",
            "ev.retransmit",
        );
        let views = self.delta("ev.view_installed");
        row(
            "gcs.views_in_window",
            "count",
            views as f64,
            "`ev.view_installed` in window, all nodes".into(),
        );
        let sus = self.delta("ev.suspected");
        row(
            "gcs.suspicions_in_window",
            "count",
            sus as f64,
            "`ev.suspected` in window, all nodes".into(),
        );

        // flow
        counted(&mut row, "flow.shed_per_op", "sheds/op", "flow.shed");
        let peak = self
            .after
            .iter()
            .filter_map(|s| s.gauges.get("flow.queue_depth_peak").copied())
            .max()
            .unwrap_or(0);
        row(
            "flow.queue_depth_peak",
            "count",
            peak as f64,
            "max `flow.queue_depth_peak` gauge over nodes since start".into(),
        );

        // invocation
        match (
            self.client_delta("inv.calls_issued"),
            self.client_delta("inv.calls_completed"),
        ) {
            (Some(issued), Some(done)) => row(
                "invocation.lost_calls",
                "count",
                issued.saturating_sub(done) as f64,
                format!("client `inv.calls_issued` {issued} minus `inv.calls_completed` {done}"),
            ),
            _ => row(
                "invocation.lost_calls",
                "count",
                0.0,
                "n/a: no invocation client".into(),
            ),
        }
        counted(
            &mut row,
            "invocation.forwards_per_op",
            "fwd/op",
            "ev.request_forwarded",
        );
        counted(
            &mut row,
            "invocation.executions_per_op",
            "execs/op",
            "ev.executed",
        );
        counted(
            &mut row,
            "invocation.replies_collected_per_op",
            "replies/op",
            "ev.reply_collected",
        );
        for (name, q) in [
            ("invocation.nso_latency_ms.p50", 0.50),
            ("invocation.nso_latency_ms.p99", 0.99),
        ] {
            match nso {
                Some(l) => row(
                    name,
                    "ms",
                    millis(if q < 0.9 { l.p50 } else { l.p99 }),
                    format!(
                        "per completed call, client `inv.latency` since node start ({} calls)",
                        l.count
                    ),
                ),
                None => row(name, "ms", 0.0, "n/a: no invocation client".into()),
            }
        }

        // core
        for (name, q) in [("core.call_us.p50", 0.50), ("core.call_us.p99", 0.99)] {
            span_row(
                &mut row,
                name,
                "core.call",
                q,
                "GroupHandle::invoke or ::send call",
            );
        }
        let invoking = self.client.is_some();
        for (name, q, used, call) in [
            (
                "core.invoke_us.p50",
                0.50,
                invoking,
                "GroupHandle::invoke call",
            ),
            (
                "core.invoke_us.p99",
                0.99,
                invoking,
                "GroupHandle::invoke call",
            ),
            (
                "core.send_us.p50",
                0.50,
                !invoking,
                "GroupHandle::send call",
            ),
        ] {
            if used {
                span_row(&mut row, name, "core.call", q, call);
            } else {
                row(name, "us", 0.0, format!("n/a: no {call} in this workload"));
            }
        }

        // driver
        let late: Vec<f64> = self
            .spans
            .durations("driver.late")
            .into_iter()
            .map(millis)
            .collect();
        row(
            "driver.late_ms.p99",
            "ms",
            quantile(&late, 0.99),
            format!("per op: submit minus due time ({} ops)", late.len()),
        );
        span_row(
            &mut row,
            "driver.poll_us",
            "driver.drain",
            0.50,
            "output drain interval, median",
        );

        // tracing overhead
        row(
            "trace.op_p50_ms_delta",
            "ms",
            op_p50_ms - self.untraced_op_p50_ms,
            format!(
                "traced {op_p50_ms:.4} ms minus untraced {:.4} ms, same cluster",
                self.untraced_op_p50_ms
            ),
        );
        row(
            "trace.cpu_ms_per_op_delta",
            "ms",
            self.traced_cpu_ms_per_op - self.untraced_cpu_ms_per_op,
            format!(
                "traced {:.4} ms minus untraced {:.4} ms per completed op",
                self.traced_cpu_ms_per_op, self.untraced_cpu_ms_per_op
            ),
        );
        rows
    }
}
