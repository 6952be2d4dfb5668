//! Spans recorded from outside the stack, around the calls into each
//! layer: kept in memory during the traced window and written once at
//! the end.

use std::io::Write;
use std::path::Path;
use std::time::{Duration, Instant};

use newtop::nso::Nso;
use newtop_orb::giop::GiopMessage;

use crate::cluster::SentFrame;

pub struct Span {
    pub name: &'static str,
    pub start: Instant,
    pub end: Instant,
    pub parent: Option<usize>,
    pub op: Option<u64>,
    pub node: Option<u32>,
}

impl Span {
    pub fn duration(&self) -> Duration {
        self.end.saturating_duration_since(self.start)
    }
}

/// The traced window's spans. Disabled, every call is a no-op.
pub struct Spans {
    on: bool,
    spans: Vec<Span>,
}

impl Spans {
    pub fn off() -> Spans {
        Spans {
            on: false,
            spans: Vec::new(),
        }
    }

    pub fn on() -> Spans {
        Spans {
            on: true,
            spans: Vec::new(),
        }
    }

    pub fn is_on(&self) -> bool {
        self.on
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Records a span and returns its index, for children to name as
    /// parent.
    pub fn push(
        &mut self,
        name: &'static str,
        start: Instant,
        end: Instant,
        parent: Option<usize>,
        op: Option<u64>,
        node: Option<u32>,
    ) -> Option<usize> {
        if !self.on {
            return None;
        }
        self.spans.push(Span {
            name,
            start,
            end,
            parent,
            op,
            node,
        });
        Some(self.spans.len() - 1)
    }

    /// Closes a span pushed with a provisional end.
    pub fn end(&mut self, span: Option<usize>, at: Instant) {
        if let Some(s) = span.and_then(|i| self.spans.get_mut(i)) {
            s.end = at;
        }
    }

    /// Durations of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<Duration> {
        self.spans
            .iter()
            .filter(|s| s.name == name)
            .map(Span::duration)
            .collect()
    }

    /// Adds a `net.send` span per probed frame, then decodes each frame
    /// as the receiving side would, timing `GiopMessage::from_frame`
    /// (`orb.decode`) and, for GCS frames, `Nso::decode_gcs_frame`
    /// (`gcs.decode`). Returns the frames by GIOP operation.
    pub fn add_frames(&mut self, frames: &[SentFrame]) -> FrameMix {
        let mut mix = FrameMix::default();
        for f in frames {
            mix.frames += 1;
            mix.bytes += f.frame.len() as u64;
            if !f.ok {
                mix.send_errors += 1;
            }
            let send = self.push("net.send", f.start, f.end, None, None, Some(f.node));
            let t0 = Instant::now();
            let decoded = GiopMessage::from_frame(&f.frame);
            let t1 = Instant::now();
            self.push("orb.decode", t0, t1, send, None, Some(f.node));
            match decoded {
                Ok(GiopMessage::Request { operation, .. }) => match operation.as_str() {
                    newtop_gcs::GCS_OPERATION => {
                        mix.gcs += 1;
                        let t0 = Instant::now();
                        let msgs = Nso::decode_gcs_frame(&f.frame);
                        let t1 = Instant::now();
                        self.push("gcs.decode", t0, t1, send, None, Some(f.node));
                        if msgs.is_none() {
                            mix.undecodable += 1;
                        }
                    }
                    newtop_invocation::INV_OPERATION => mix.inv += 1,
                    _ => mix.other += 1,
                },
                Ok(GiopMessage::Reply { .. }) => mix.reply += 1,
                Err(_) => mix.undecodable += 1,
            }
        }
        mix
    }

    /// Writes every span as one tab-separated line: index, name,
    /// start and end in µs since `epoch`, parent, op, node.
    pub fn write(&self, path: &Path, epoch: Instant) -> std::io::Result<()> {
        if let Some(dir) = path.parent() {
            std::fs::create_dir_all(dir)?;
        }
        let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
        writeln!(w, "# span\tname\tstart_us\tend_us\tparent\top\tnode")?;
        let us = |t: Instant| t.saturating_duration_since(epoch).as_secs_f64() * 1e6;
        let opt = |v: Option<String>| v.unwrap_or_else(|| "-".into());
        for (i, s) in self.spans.iter().enumerate() {
            writeln!(
                w,
                "{i}\t{}\t{:.3}\t{:.3}\t{}\t{}\t{}",
                s.name,
                us(s.start),
                us(s.end),
                opt(s.parent.map(|p| p.to_string())),
                opt(s.op.map(|o| o.to_string())),
                opt(s.node.map(|n| n.to_string())),
            )?;
        }
        w.flush()
    }
}

/// Frames sent in the traced window, by GIOP operation.
#[derive(Default)]
pub struct FrameMix {
    pub frames: u64,
    pub bytes: u64,
    pub send_errors: u64,
    pub gcs: u64,
    pub inv: u64,
    pub reply: u64,
    pub other: u64,
    pub undecodable: u64,
}
