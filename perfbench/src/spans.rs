//! Spans recorded by the traced run: name, start, end, parent and
//! request id, kept in a buffer allocated once and written out when the
//! benchmark ends. A span's self time is its duration minus the part of
//! it that its children cover.

use std::io::Write;
use std::time::Instant;

/// Marks a span without a parent.
pub const ROOT: u32 = u32::MAX;

/// One timed interval, in nanoseconds since the buffer's epoch.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Span {
    pub name: &'static str,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Index of the parent span in the same buffer, or [`ROOT`].
    pub parent: u32,
    /// The request (chunk or batch) this span served.
    pub request: u64,
}

impl Span {
    pub fn duration_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// A per-thread span buffer. It never grows past the capacity it was
/// built with: spans that do not fit are counted as dropped, so the
/// recording itself allocates nothing while the benchmark measures.
#[derive(Debug)]
pub struct SpanBuf {
    spans: Vec<Span>,
    dropped: u64,
    epoch: Instant,
}

impl SpanBuf {
    pub fn new(capacity: usize, epoch: Instant) -> Self {
        Self { spans: Vec::with_capacity(capacity), dropped: 0, epoch }
    }

    /// Nanoseconds since the epoch.
    pub fn now(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Records a finished span and returns its index ([`ROOT`] when the
    /// buffer is full, so children of a dropped span become roots).
    pub fn record(
        &mut self,
        name: &'static str,
        start_ns: u64,
        end_ns: u64,
        parent: u32,
        request: u64,
    ) -> u32 {
        if self.spans.len() == self.spans.capacity() {
            self.dropped += 1;
            return ROOT;
        }
        self.spans.push(Span { name, start_ns, end_ns, parent, request });
        (self.spans.len() - 1) as u32
    }

    /// Opens a span whose end is filled in by [`SpanBuf::close`].
    pub fn open(&mut self, name: &'static str, parent: u32, request: u64) -> u32 {
        let now = self.now();
        self.record(name, now, now, parent, request)
    }

    pub fn close(&mut self, id: u32) {
        let now = self.now();
        if let Some(s) = self.spans.get_mut(id as usize) {
            s.end_ns = now;
        }
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    pub fn len(&self) -> usize {
        self.spans.len()
    }

    pub fn dropped(&self) -> u64 {
        self.dropped
    }

    /// Appends every span as a tab-separated line tagged with `thread`.
    pub fn write_tsv(&self, thread: &str, out: &mut impl Write) -> std::io::Result<()> {
        for s in &self.spans {
            let parent = if s.parent == ROOT { -1 } else { i64::from(s.parent) };
            writeln!(
                out,
                "{thread}\t{}\t{}\t{}\t{parent}\t{}",
                s.name, s.start_ns, s.end_ns, s.request
            )?;
        }
        Ok(())
    }
}

/// Self time of every span in `spans`: its duration minus the union of
/// its direct children's intervals (clipped to the span itself).
/// Parents are indices into the same slice.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let Some(kids) = children.get_mut(s.parent as usize) {
            kids.push((s.start_ns, s.end_ns));
        }
    }
    spans
        .iter()
        .zip(children.iter_mut())
        .map(|(s, kids)| {
            kids.sort_unstable();
            let mut covered = 0;
            let mut reach = s.start_ns;
            for &(start, end) in kids.iter() {
                let (start, end) = (start.max(reach), end.min(s.end_ns));
                if end > start {
                    covered += end - start;
                    reach = end;
                }
            }
            s.duration_ns() - covered
        })
        .collect()
}

/// Sum of self times of every span called `name`, with how many there
/// were.
pub fn total_self(spans: &[Span], self_ns: &[u64], name: &str) -> (u64, u64) {
    spans
        .iter()
        .zip(self_ns)
        .filter(|(s, _)| s.name == name)
        .fold((0, 0), |(sum, n), (_, &t)| (sum + t, n + 1))
}

/// Durations (ns) of every span called `name`, in recording order.
pub fn durations(spans: &[Span], name: &str) -> Vec<f64> {
    spans.iter().filter(|s| s.name == name).map(|s| s.duration_ns() as f64).collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(name: &'static str, start: u64, end: u64, parent: u32) -> Span {
        Span { name, start_ns: start, end_ns: end, parent, request: 0 }
    }

    #[test]
    fn self_time_subtracts_nested_and_overlapping_children() {
        let spans = [
            span("root", 0, 100, ROOT),
            span("a", 10, 30, 0),
            span("b", 25, 40, 0), // overlaps a: union is 10..40
            span("a.inner", 12, 20, 1),
            span("c", 90, 120, 0), // runs past its parent: clipped at 100
        ];
        let t = self_times(&spans);
        assert_eq!(t[0], 100 - 30 - 10);
        assert_eq!(t[1], 20 - 8); // only its own child counts
        assert_eq!(t[2], 15);
        assert_eq!(t[3], 8);
        assert_eq!(t[4], 30);
        assert_eq!(total_self(&spans, &t, "a"), (12, 1));
    }

    #[test]
    fn full_buffer_drops_instead_of_growing() {
        let mut buf = SpanBuf::new(2, Instant::now());
        assert_eq!(buf.record("x", 0, 1, ROOT, 0), 0);
        assert_eq!(buf.record("y", 1, 2, 0, 0), 1);
        assert_eq!(buf.record("z", 2, 3, 0, 0), ROOT);
        assert_eq!((buf.len(), buf.dropped()), (2, 1));
        assert_eq!(durations(buf.spans(), "y"), vec![1.0]);
    }

    #[test]
    fn open_close_brackets_the_interval() {
        let mut buf = SpanBuf::new(4, Instant::now());
        let id = buf.open("work", ROOT, 7);
        std::hint::black_box((0..1_000).sum::<u64>());
        buf.close(id);
        let s = buf.spans()[0];
        assert!(s.end_ns >= s.start_ns);
        assert_eq!((s.name, s.request, s.parent), ("work", 7, ROOT));
    }
}
