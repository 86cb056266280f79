//! Spans of the traced run.
//!
//! The benchmark records a span around each call it makes into a layer
//! (`build`, `burst` ⊃ `pcap.next_event` + `process`, `insert`,
//! `remove`), from its own side of the API: spans inside the program are
//! a later change. Spans live in memory, pre-allocated, and are written
//! out only when the run ends.

use std::collections::BTreeMap;
use std::io::Write;
use std::time::Instant;

/// Index of a span in its [`Tracer`].
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanId(u32);

/// `parent` of a root span in the span file.
const NO_PARENT: u32 = u32::MAX;

#[derive(Debug, Clone, Copy)]
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    parent: u32,
}

/// Totals of all spans of one name.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct SpanTotals {
    /// Spans of this name.
    pub count: u64,
    /// Summed durations.
    pub total_ns: u64,
    /// Summed self times: duration minus the part child spans cover.
    pub self_ns: u64,
}

/// In-memory span recorder. Recording is off until [`Tracer::set_on`];
/// while off, [`Tracer::open`] and [`Tracer::close`] do nothing, so the
/// same driving code serves the untraced cycles.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    on: bool,
}

impl Tracer {
    /// A recorder with room for `capacity` spans before it reallocates.
    pub fn new(capacity: usize) -> Self {
        Tracer {
            epoch: Instant::now(),
            spans: Vec::with_capacity(capacity),
            on: false,
        }
    }

    /// Turns recording on or off.
    pub fn set_on(&mut self, on: bool) {
        self.on = on;
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; `None` while recording is off.
    pub fn open(&mut self, name: &'static str, parent: Option<SpanId>) -> Option<SpanId> {
        if !self.on {
            return None;
        }
        let id = SpanId(self.spans.len() as u32);
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            start_ns,
            end_ns: start_ns,
            parent: parent.map_or(NO_PARENT, |p| p.0),
        });
        Some(id)
    }

    /// Closes a span opened by [`Tracer::open`].
    pub fn close(&mut self, id: Option<SpanId>) {
        if let Some(SpanId(i)) = id {
            self.spans[i as usize].end_ns = self.now_ns();
        }
    }

    /// Spans recorded.
    pub fn len(&self) -> usize {
        self.spans.len()
    }

    /// Per-name totals, with self time = duration − children.
    pub fn totals(&self) -> BTreeMap<&'static str, SpanTotals> {
        let mut covered = vec![0u64; self.spans.len()];
        for s in &self.spans {
            if s.parent != NO_PARENT {
                covered[s.parent as usize] += s.end_ns - s.start_ns;
            }
        }
        let mut out: BTreeMap<&'static str, SpanTotals> = BTreeMap::new();
        for (s, covered) in self.spans.iter().zip(covered) {
            let dur = s.end_ns - s.start_ns;
            let t = out.entry(s.name).or_default();
            t.count += 1;
            t.total_ns += dur;
            t.self_ns += dur.saturating_sub(covered);
        }
        out
    }

    /// Writes the spans as tab-separated `name start_ns end_ns parent
    /// workload` lines (`parent` is a 0-based line index, `-` for a
    /// root span).
    ///
    /// # Errors
    ///
    /// Any I/O error of `out`, including the final flush.
    pub fn write_tsv(&self, workload: &str, out: impl Write) -> std::io::Result<()> {
        let mut out = std::io::BufWriter::new(out);
        writeln!(out, "name\tstart_ns\tend_ns\tparent\tworkload")?;
        for s in &self.spans {
            let parent = if s.parent == NO_PARENT {
                "-".to_string()
            } else {
                s.parent.to_string()
            };
            writeln!(
                out,
                "{}\t{}\t{}\t{parent}\t{workload}",
                s.name, s.start_ns, s.end_ns
            )?;
        }
        out.flush()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn off_records_nothing() {
        let mut t = Tracer::new(4);
        let id = t.open("burst", None);
        t.close(id);
        assert_eq!(id, None);
        assert_eq!(t.len(), 0);
    }

    #[test]
    fn self_time_is_duration_minus_children() {
        let mut t = Tracer::new(8);
        t.set_on(true);
        let burst = t.open("burst", None);
        let a = t.open("pcap.next_event", burst);
        t.close(a);
        let b = t.open("process", burst);
        t.close(b);
        t.close(burst);
        // Make the arithmetic checkable: overwrite the clock readings.
        t.spans[0] = Span {
            name: "burst",
            start_ns: 0,
            end_ns: 100,
            parent: NO_PARENT,
        };
        t.spans[1] = Span {
            name: "pcap.next_event",
            start_ns: 5,
            end_ns: 35,
            parent: 0,
        };
        t.spans[2] = Span {
            name: "process",
            start_ns: 40,
            end_ns: 95,
            parent: 0,
        };
        let totals = t.totals();
        assert_eq!(
            totals["burst"],
            SpanTotals {
                count: 1,
                total_ns: 100,
                self_ns: 15
            }
        );
        assert_eq!(totals["process"].self_ns, 55);

        let mut file = Vec::new();
        t.write_tsv("acl_lookup", &mut file).unwrap();
        let text = String::from_utf8(file).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines[0], "name\tstart_ns\tend_ns\tparent\tworkload");
        assert_eq!(lines[1], "burst\t0\t100\t-\tacl_lookup");
        assert_eq!(lines[3], "process\t40\t95\t0\tacl_lookup");
    }
}
