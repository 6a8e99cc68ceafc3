//! Harness-side spans: one around each call into a crate's public
//! function, kept in memory and written out when the run ends.
//!
//! A span carries its name (`<crate>.<stage>`), start, end, the span that
//! caused it and the request it belongs to. A layer's *self time* is its
//! span's duration minus the part of that interval its children cover, so
//! the self times under one root add up to the root's duration exactly.

use std::collections::BTreeMap;
use std::io::Write;
use std::path::Path;
use std::sync::OnceLock;
use std::time::Instant;

/// One clock origin per process, so spans of tracers that are later
/// merged ([`Tracer::absorb`]) share a time axis.
static ORIGIN: OnceLock<Instant> = OnceLock::new();

#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    pub id: u32,
    pub parent: Option<u32>,
    /// Spans of one request share this.
    pub request: u32,
    pub name: &'static str,
    pub start_ns: u64,
    /// `None` while the span is open.
    pub end_ns: Option<u64>,
}

/// An open span, to be handed back to [`Tracer::exit`].
#[must_use]
pub struct Open(Option<u32>);

/// Records spans when enabled; when disabled every call is a no-op, which
/// is what the untraced replay measures tracing overhead against.
pub struct Tracer {
    enabled: bool,
    origin: Instant,
    spans: Vec<Span>,
    stack: Vec<u32>,
    requests: u32,
}

impl Tracer {
    pub fn new(enabled: bool) -> Tracer {
        Tracer {
            enabled,
            origin: *ORIGIN.get_or_init(Instant::now),
            spans: Vec::new(),
            stack: Vec::new(),
            requests: 0,
        }
    }

    fn now(&self) -> u64 {
        self.origin.elapsed().as_nanos() as u64
    }

    /// Open a span under the innermost open span; with none open it
    /// becomes the root of a new request.
    pub fn enter(&mut self, name: &'static str) -> Open {
        if !self.enabled {
            return Open(None);
        }
        let parent = self.stack.last().copied();
        if parent.is_none() {
            self.requests += 1;
        }
        let id = self.spans.len() as u32;
        let start_ns = self.now();
        self.spans.push(Span {
            id,
            parent,
            request: self.requests,
            name,
            start_ns,
            end_ns: None,
        });
        self.stack.push(id);
        Open(Some(id))
    }

    /// Close a span — and any span still open inside it, which is what
    /// an early `?` return between an `enter` and its `exit` leaves.
    pub fn exit(&mut self, open: Open) {
        let Some(id) = open.0 else { return };
        let end = self.now();
        while let Some(inner) = self.stack.pop() {
            self.spans[inner as usize].end_ns = Some(end);
            if inner == id {
                return;
            }
        }
        panic!("span {id} was not open");
    }

    /// Time `f` under a span.
    pub fn span<T>(&mut self, name: &'static str, f: impl FnOnce() -> T) -> T {
        let open = self.enter(name);
        let out = f();
        self.exit(open);
        out
    }

    pub fn spans(&self) -> &[Span] {
        &self.spans
    }

    /// Append another tracer's spans, renumbering ids and requests so
    /// both stay unique. Phases of a run trace separately (their ledgers
    /// are per phase) and are written out as one file.
    pub fn absorb(&mut self, other: Tracer) {
        assert!(self.stack.is_empty() && other.stack.is_empty());
        let (ids, requests) = (self.spans.len() as u32, self.requests);
        self.spans.extend(other.spans.into_iter().map(|s| Span {
            id: s.id + ids,
            parent: s.parent.map(|p| p + ids),
            request: s.request + requests,
            ..s
        }));
        self.requests += other.requests;
    }
}

/// Self time of every span, in nanoseconds, indexed like `spans`.
pub fn self_times(spans: &[Span]) -> Vec<u64> {
    let mut children: Vec<Vec<(u64, u64)>> = vec![Vec::new(); spans.len()];
    for s in spans {
        if let (Some(p), Some(end)) = (s.parent, s.end_ns) {
            children[p as usize].push((s.start_ns, end));
        }
    }
    spans
        .iter()
        .zip(children)
        .map(|(s, mut kids)| {
            let end = s.end_ns.unwrap_or(s.start_ns);
            // Cover = union of the children's intervals, clipped to the
            // span, so overlapping children are not subtracted twice.
            kids.sort_unstable();
            let (mut cover, mut upto) = (0u64, s.start_ns);
            for (a, b) in kids {
                let (a, b) = (a.max(upto), b.min(end));
                if b > a {
                    cover += b - a;
                    upto = b;
                }
            }
            (end - s.start_ns).saturating_sub(cover)
        })
        .collect()
}

/// Per span name: (spans, total self time in ns).
pub fn totals(spans: &[Span]) -> BTreeMap<&'static str, (u64, u64)> {
    let mut out = BTreeMap::new();
    for (s, own) in spans.iter().zip(self_times(spans)) {
        let e = out.entry(s.name).or_insert((0, 0));
        e.0 += 1;
        e.1 += own;
    }
    out
}

/// Every span closed, every parent recorded before its child, enclosing
/// it and in the same request, and exactly one root per request.
pub fn validate(spans: &[Span]) -> Result<(), String> {
    let mut roots: BTreeMap<u32, u32> = BTreeMap::new();
    for (i, s) in spans.iter().enumerate() {
        if s.id as usize != i {
            return Err(format!("span {i} carries id {}", s.id));
        }
        let Some(end) = s.end_ns else {
            return Err(format!("span {} ({}) never closed", s.id, s.name));
        };
        if end < s.start_ns {
            return Err(format!("span {} ends before it starts", s.id));
        }
        match s.parent {
            None => *roots.entry(s.request).or_insert(0) += 1,
            Some(p) => {
                let Some(parent) = spans.get(p as usize).filter(|_| p < s.id) else {
                    return Err(format!("span {} has unknown parent {p}", s.id));
                };
                if parent.request != s.request {
                    return Err(format!("span {} crosses requests", s.id));
                }
                if s.start_ns < parent.start_ns || Some(end) > parent.end_ns {
                    return Err(format!("span {} escapes its parent {p}", s.id));
                }
            }
        }
    }
    let requests = spans.iter().map(|s| s.request).max().unwrap_or(0);
    for request in 1..=requests {
        if roots.get(&request) != Some(&1) {
            return Err(format!("request {request} does not have exactly one root"));
        }
    }
    Ok(())
}

/// One JSON object per span, in recording order.
pub fn write_jsonl(path: &Path, spans: &[Span]) -> std::io::Result<()> {
    let mut w = std::io::BufWriter::new(std::fs::File::create(path)?);
    for s in spans {
        let parent = s.parent.map_or("null".to_string(), |p| p.to_string());
        writeln!(
            w,
            "{{\"id\":{},\"parent\":{parent},\"request\":{},\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{}}}",
            s.id,
            s.request,
            s.name,
            s.start_ns,
            s.end_ns.unwrap_or(s.start_ns)
        )?;
    }
    w.flush()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn span(id: u32, parent: Option<u32>, request: u32, start: u64, end: u64) -> Span {
        Span {
            id,
            parent,
            request,
            name: ["root", "a", "b", "c"][id as usize % 4],
            start_ns: start,
            end_ns: Some(end),
        }
    }

    #[test]
    fn self_time_is_duration_minus_child_cover() {
        // root 0..100; a 10..40 with grandchild 20..30; b 50..70 and c
        // 60..90 overlap, so together they cover 50..90 once.
        let tree = vec![
            span(0, None, 1, 0, 100),
            span(1, Some(0), 1, 10, 40),
            span(2, Some(0), 1, 50, 70),
            span(3, Some(0), 1, 60, 90),
            span(4, Some(1), 1, 20, 30),
        ];
        assert_eq!(self_times(&tree), vec![30, 20, 20, 30, 10]);
        assert_eq!(validate(&tree), Ok(()));
        // Without the overlap the self times sum to the root's duration.
        let flat = vec![
            span(0, None, 1, 0, 100),
            span(1, Some(0), 1, 10, 40),
            span(2, Some(0), 1, 40, 95),
        ];
        assert_eq!(self_times(&flat).iter().sum::<u64>(), 100);
        assert_eq!(totals(&flat)["root"], (1, 15));
    }

    #[test]
    fn validate_rejects_broken_trees() {
        let mut open = vec![span(0, None, 1, 0, 10)];
        open[0].end_ns = None;
        assert!(validate(&open).unwrap_err().contains("never closed"));
        let two_roots = vec![span(0, None, 1, 0, 10), span(1, None, 1, 10, 20)];
        assert!(validate(&two_roots)
            .unwrap_err()
            .contains("exactly one root"));
        let escapes = vec![span(0, None, 1, 0, 10), span(1, Some(0), 1, 5, 15)];
        assert!(validate(&escapes).unwrap_err().contains("escapes"));
        let orphan = vec![span(0, None, 1, 0, 10), span(1, Some(7), 1, 1, 2)];
        assert!(validate(&orphan).unwrap_err().contains("unknown parent"));
    }

    #[test]
    fn tracer_nests_and_numbers_requests() {
        let mut t = Tracer::new(true);
        for _ in 0..2 {
            let root = t.enter("request");
            t.span("a", || ());
            let b = t.enter("b");
            t.span("c", || ());
            t.exit(b);
            t.exit(root);
        }
        assert_eq!(validate(t.spans()), Ok(()));
        assert_eq!(t.spans().len(), 8);
        assert_eq!(t.spans()[7].request, 2);
        assert_eq!(t.spans()[7].parent, Some(6));
        let mut second = Tracer::new(true);
        second.span("request", || ());
        t.absorb(second);
        assert_eq!(validate(t.spans()), Ok(()));
        assert_eq!((t.spans()[8].id, t.spans()[8].request), (8, 3));
        let mut off = Tracer::new(false);
        let root = off.enter("request");
        assert_eq!(off.span("a", || 7), 7);
        off.exit(root);
        assert!(off.spans().is_empty());
    }
}
