//! Harness-side spans around the calls into each layer.
//!
//! The traced run records one [`Span`] per layer-boundary call; spans
//! stay in memory and are written as `trace.jsonl` when the run ends.
//! In-program tracing is a later change — nothing here touches product
//! source; the spans wrap public functions only.

use std::fmt::Write as _;
use std::time::Instant;

/// One timed call. `subject` is the net index (replay spans) or the job
/// key (serve spans) the call belongs to, so spans of one request share
/// an identifier.
#[derive(Debug, Clone, PartialEq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    pub name: &'static str,
    pub subject: Option<u64>,
    pub start_ns: u64,
    pub end_ns: u64,
}

impl Span {
    pub fn dur_ns(&self) -> u64 {
        self.end_ns.saturating_sub(self.start_ns)
    }
}

/// An append-only span recorder over one shared epoch.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
}

impl Tracer {
    pub fn new(epoch: Instant) -> Self {
        Tracer { epoch, spans: Vec::new() }
    }

    /// The instant span offsets count from; client threads start their
    /// own recorders on it so absorbed spans share one time line.
    pub fn epoch(&self) -> Instant {
        self.epoch
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    /// Opens a span; close it with [`close`](Self::close).
    pub fn open(&mut self, name: &'static str, parent: Option<u32>, subject: Option<u64>) -> u32 {
        let id = self.spans.len() as u32;
        let now = self.now_ns();
        self.spans.push(Span { id, parent, name, subject, start_ns: now, end_ns: now });
        id
    }

    /// Closes span `id` at the current instant and returns its duration.
    pub fn close(&mut self, id: u32) -> u64 {
        let now = self.now_ns();
        let s = &mut self.spans[id as usize];
        s.end_ns = now;
        s.dur_ns()
    }

    /// Times `f` as one span.
    pub fn span<R>(
        &mut self,
        name: &'static str,
        parent: Option<u32>,
        subject: Option<u64>,
        f: impl FnOnce() -> R,
    ) -> R {
        let id = self.open(name, parent, subject);
        let out = f();
        self.close(id);
        out
    }

    /// Appends another recorder's spans (a client thread's), shifting
    /// their ids past ours so parent links stay intact.
    pub fn absorb(&mut self, other: Tracer) {
        let base = self.spans.len() as u32;
        self.spans.extend(other.spans.into_iter().map(|mut s| {
            s.id += base;
            s.parent = s.parent.map(|p| p + base);
            s
        }));
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Durations (ns) of every span called `name`.
    pub fn durations(&self, name: &str) -> Vec<f64> {
        self.spans.iter().filter(|s| s.name == name).map(|s| s.dur_ns() as f64).collect()
    }

    /// Total duration (ns) of every span called `name`.
    pub fn total_ns(&self, name: &str) -> f64 {
        self.durations(name).iter().sum()
    }

    /// One JSON object per line: `{id, parent, name, workload, net, start_ns, end_ns}`.
    pub fn to_jsonl(&self, workload: &str) -> String {
        let mut out = String::new();
        for s in &self.spans {
            let opt = |v: Option<u64>| v.map_or("null".to_string(), |v| v.to_string());
            let _ = writeln!(
                out,
                "{{\"id\": {}, \"parent\": {}, \"name\": \"{}\", \"workload\": \"{workload}\", \
                 \"net\": {}, \"start_ns\": {}, \"end_ns\": {}}}",
                s.id,
                opt(s.parent.map(u64::from)),
                s.name,
                opt(s.subject),
                s.start_ns,
                s.end_ns
            );
        }
        out
    }
}

/// Self time of every span: its duration minus the part its direct
/// children cover (children of one span never overlap — each recorder
/// is single-threaded).
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut own: Vec<u64> = spans.iter().map(Span::dur_ns).collect();
    for s in spans {
        if let Some(p) = s.parent {
            own[p as usize] = own[p as usize].saturating_sub(s.dur_ns());
        }
    }
    own
}

/// Per span name, in first-seen order: `(name, count, total ns, self ns)`
/// — where each layer's time goes once its callees are taken out.
pub fn summary(spans: &[Span]) -> Vec<(&'static str, usize, u64, u64)> {
    let own = self_times(spans);
    let mut rows: Vec<(&'static str, usize, u64, u64)> = Vec::new();
    for (s, own) in spans.iter().zip(own) {
        match rows.iter_mut().find(|r| r.0 == s.name) {
            Some(r) => {
                r.1 += 1;
                r.2 += s.dur_ns();
                r.3 += own;
            }
            None => rows.push((s.name, 1, s.dur_ns(), own)),
        }
    }
    rows
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, start_ns: u64, end_ns: u64) -> Span {
        Span { id, parent, name: "x", subject: None, start_ns, end_ns }
    }

    #[test]
    fn self_time_is_duration_minus_direct_children() {
        let spans = [
            span(0, None, 0, 100),
            span(1, Some(0), 10, 40),
            span(2, Some(1), 15, 25),
            span(3, Some(0), 50, 70),
        ];
        // root: 100 − (30 + 20); child 1: 30 − 10; leaves keep their own
        assert_eq!(self_times(&spans), vec![50, 20, 10, 20]);
        assert_eq!(summary(&spans), vec![("x", 4, 160, 100)]);
    }

    #[test]
    fn absorb_keeps_parent_links() {
        let epoch = Instant::now();
        let mut a = Tracer::new(epoch);
        let root = a.open("job", None, Some(7));
        a.close(root);
        let mut b = Tracer::new(epoch);
        let job = b.open("job", None, Some(8));
        let child = b.open("submit", Some(job), Some(8));
        b.close(child);
        b.close(job);
        a.absorb(b);
        let s = a.spans();
        assert_eq!(s.len(), 3);
        assert_eq!((s[1].id, s[1].parent), (1, None));
        assert_eq!((s[2].id, s[2].parent), (2, Some(1)));
        assert!(a.to_jsonl("w").lines().count() == 3);
        assert!(a.to_jsonl("w").contains("\"net\": 8"));
    }
}
