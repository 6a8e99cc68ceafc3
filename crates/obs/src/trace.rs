//! Structured tracing: cheap span begin/end events in a lock-free ring.
//!
//! A [`Tracer`] hands out trace IDs (one per transform run or served
//! request) and records [`TraceEvent`]s — span begin and end markers with
//! a span ID, a parent span ID, a static name, and a microsecond
//! timestamp — into a fixed-capacity seqlock-style ring buffer. Writers
//! never block and never allocate on the hot path: a slot is claimed with
//! one `fetch_add`, invalidated, filled, and republished with a new
//! sequence number; readers detect and skip slots that were overwritten
//! mid-read. When tracing is disabled (the default for the `Tracer`
//! constructed by [`crate::tracer`] until a consumer enables it) the whole
//! facility is one relaxed atomic load per span.
//!
//! Span nesting is implicit: a thread-local stack makes each new span a
//! child of the innermost open one on its thread. A span that should
//! start a tree of its own opens with an explicit trace ID
//! ([`Tracer::span`]).
//!
//! Export is line-delimited JSON, one event per line:
//! `{"trace":1,"span":3,"parent":2,"name":"phase1_nodes","ev":"begin","t_us":123}`.

use std::cell::RefCell;
use std::fmt::Write as _;
use std::sync::atomic::{AtomicBool, AtomicU64, Ordering};
use std::sync::RwLock;
use std::time::Instant;

/// Default number of slots in the event ring (~16k events, enough for a
/// full transform trace plus thousands of request traces).
pub const DEFAULT_RING_CAPACITY: usize = 16 * 1024;

/// One span boundary: begin or end.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum EventKind {
    Begin,
    End,
}

impl EventKind {
    /// The `ev` field value in the JSONL export.
    pub fn as_str(self) -> &'static str {
        match self {
            EventKind::Begin => "begin",
            EventKind::End => "end",
        }
    }
}

/// A decoded trace event, as read back out of the ring.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct TraceEvent {
    /// Trace this span belongs to (one per run/request).
    pub trace: u64,
    /// Span ID, unique within the tracer.
    pub span: u64,
    /// Parent span ID; 0 for roots.
    pub parent: u64,
    /// Static span name (e.g. `"phase1_nodes"`, `"execute"`).
    pub name: &'static str,
    /// Begin or end marker.
    pub kind: EventKind,
    /// Microseconds since the tracer's epoch.
    pub t_us: u64,
}

impl TraceEvent {
    /// Render the event as one JSON line (no trailing newline). Names are
    /// static identifiers, so no string escaping is needed.
    pub fn to_json(&self) -> String {
        let mut s = String::with_capacity(96);
        let _ = write!(
            s,
            "{{\"trace\":{},\"span\":{},\"parent\":{},\"name\":\"{}\",\"ev\":\"{}\",\"t_us\":{}}}",
            self.trace,
            self.span,
            self.parent,
            self.name,
            self.kind.as_str(),
            self.t_us
        );
        s
    }
}

/// One ring slot. `seq` is the seqlock word: 0 while a writer owns the
/// slot, otherwise `position + 1` of the event it holds. `name_kind`
/// packs the interned name index and the begin/end bit.
#[derive(Debug)]
struct Slot {
    seq: AtomicU64,
    trace: AtomicU64,
    span: AtomicU64,
    parent: AtomicU64,
    name_kind: AtomicU64,
    t_us: AtomicU64,
}

impl Slot {
    fn new() -> Self {
        Slot {
            seq: AtomicU64::new(0),
            trace: AtomicU64::new(0),
            span: AtomicU64::new(0),
            parent: AtomicU64::new(0),
            name_kind: AtomicU64::new(0),
            t_us: AtomicU64::new(0),
        }
    }
}

/// The span recorder: ID allocation, the event ring, and the name table.
#[derive(Debug)]
pub struct Tracer {
    enabled: AtomicBool,
    epoch: Instant,
    next_trace: AtomicU64,
    next_span: AtomicU64,
    /// Total events ever written; `head % ring.len()` is the next slot.
    head: AtomicU64,
    ring: Vec<Slot>,
    /// Interned static span names; index is stored in the slot.
    names: RwLock<Vec<&'static str>>,
}

impl Default for Tracer {
    fn default() -> Self {
        Self::with_capacity(DEFAULT_RING_CAPACITY)
    }
}

thread_local! {
    /// Innermost open span per thread: (trace, span) pairs.
    static SPAN_STACK: RefCell<Vec<(u64, u64)>> = const { RefCell::new(Vec::new()) };
}

impl Tracer {
    /// Create a disabled tracer with a ring of `capacity` slots.
    pub fn with_capacity(capacity: usize) -> Self {
        let capacity = capacity.max(2);
        Tracer {
            enabled: AtomicBool::new(false),
            epoch: Instant::now(),
            next_trace: AtomicU64::new(1),
            next_span: AtomicU64::new(1),
            head: AtomicU64::new(0),
            ring: (0..capacity).map(|_| Slot::new()).collect(),
            names: RwLock::new(Vec::new()),
        }
    }

    /// Turn recording on or off. Disabled tracers cost one relaxed load
    /// per span operation and record nothing.
    pub fn set_enabled(&self, on: bool) {
        self.enabled.store(on, Ordering::Relaxed);
    }

    /// Whether recording is on.
    #[inline]
    fn is_enabled(&self) -> bool {
        self.enabled.load(Ordering::Relaxed)
    }

    /// Allocate a fresh trace ID (distinct from every other trace this
    /// process has started).
    pub fn new_trace(&self) -> u64 {
        self.next_trace.fetch_add(1, Ordering::Relaxed)
    }

    /// Begin a root-or-nested span on this thread: the parent is the
    /// innermost open span of the same thread, if any; otherwise the span
    /// is a root of `trace`. Returns a guard that ends the span on drop.
    pub fn span(&self, trace: u64, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                tracer: self,
                handle: None,
            };
        }
        let parent = SPAN_STACK.with(|s| {
            s.borrow()
                .iter()
                .rev()
                .find(|(t, _)| *t == trace)
                .map(|&(_, span)| span)
                .unwrap_or(0)
        });
        self.begin_at(trace, parent, name)
    }

    /// Begin a span nested under this thread's innermost open span, in
    /// that span's trace. A no-op when no span is open (or tracing is
    /// disabled) — this is how library layers (pipeline phases, query
    /// engines) instrument themselves without knowing whether a trace is
    /// active: the CLI or server opens the root, everything below nests.
    pub fn span_here(&self, name: &'static str) -> SpanGuard<'_> {
        if !self.is_enabled() {
            return SpanGuard {
                tracer: self,
                handle: None,
            };
        }
        let Some((trace, parent)) = SPAN_STACK.with(|s| s.borrow().last().copied()) else {
            return SpanGuard {
                tracer: self,
                handle: None,
            };
        };
        self.begin_at(trace, parent, name)
    }

    fn begin_at(&self, trace: u64, parent: u64, name: &'static str) -> SpanGuard<'_> {
        let span = self.next_span.fetch_add(1, Ordering::Relaxed);
        let name_idx = self.intern(name);
        self.push_event(trace, span, parent, name_idx, EventKind::Begin);
        SPAN_STACK.with(|s| s.borrow_mut().push((trace, span)));
        SpanGuard {
            tracer: self,
            handle: Some(SpanHandle {
                trace,
                span,
                name_idx,
            }),
        }
    }

    fn end(&self, handle: &SpanHandle) {
        SPAN_STACK.with(|s| {
            let mut stack = s.borrow_mut();
            if let Some(pos) = stack
                .iter()
                .rposition(|&(t, sp)| t == handle.trace && sp == handle.span)
            {
                stack.remove(pos);
            }
        });
        self.push_event(
            handle.trace,
            handle.span,
            0,
            handle.name_idx,
            EventKind::End,
        );
    }

    fn intern(&self, name: &'static str) -> u64 {
        {
            let names = self.names.read().unwrap_or_else(|e| e.into_inner());
            if let Some(idx) = names
                .iter()
                .position(|&n| std::ptr::eq(n, name) || n == name)
            {
                return idx as u64;
            }
        }
        let mut names = self.names.write().unwrap_or_else(|e| e.into_inner());
        if let Some(idx) = names.iter().position(|&n| n == name) {
            return idx as u64;
        }
        names.push(name);
        (names.len() - 1) as u64
    }

    /// Write one event into the ring: claim a slot, invalidate it, fill
    /// the fields, then publish with the slot's new sequence number.
    fn push_event(&self, trace: u64, span: u64, parent: u64, name_idx: u64, kind: EventKind) {
        let pos = self.head.fetch_add(1, Ordering::Relaxed);
        let slot = &self.ring[(pos % self.ring.len() as u64) as usize];
        slot.seq.store(0, Ordering::Release);
        slot.trace.store(trace, Ordering::Relaxed);
        slot.span.store(span, Ordering::Relaxed);
        slot.parent.store(parent, Ordering::Relaxed);
        let kind_bit = match kind {
            EventKind::Begin => 0,
            EventKind::End => 1,
        };
        slot.name_kind
            .store(name_idx << 1 | kind_bit, Ordering::Relaxed);
        let t_us = u64::try_from(self.epoch.elapsed().as_micros()).unwrap_or(u64::MAX);
        slot.t_us.store(t_us, Ordering::Relaxed);
        slot.seq.store(pos + 1, Ordering::Release);
    }

    /// Read the most recent `limit` events, oldest first. Slots being
    /// concurrently overwritten are skipped — the ring is best-effort by
    /// design; completed writes are always consistent.
    pub fn tail(&self, limit: usize) -> Vec<TraceEvent> {
        let head = self.head.load(Ordering::Acquire);
        let len = self.ring.len() as u64;
        let available = head.min(len).min(limit as u64);
        let names: Vec<&'static str> = self.names.read().unwrap_or_else(|e| e.into_inner()).clone();
        let mut out = Vec::with_capacity(available as usize);
        for pos in head.saturating_sub(available)..head {
            let slot = &self.ring[(pos % len) as usize];
            let seq_before = slot.seq.load(Ordering::Acquire);
            if seq_before != pos + 1 {
                continue; // overwritten or mid-write
            }
            let trace = slot.trace.load(Ordering::Relaxed);
            let span = slot.span.load(Ordering::Relaxed);
            let parent = slot.parent.load(Ordering::Relaxed);
            let name_kind = slot.name_kind.load(Ordering::Relaxed);
            let t_us = slot.t_us.load(Ordering::Relaxed);
            if slot.seq.load(Ordering::Acquire) != pos + 1 {
                continue; // torn read
            }
            let Some(&name) = names.get((name_kind >> 1) as usize) else {
                continue;
            };
            out.push(TraceEvent {
                trace,
                span,
                parent,
                name,
                kind: if name_kind & 1 == 0 {
                    EventKind::Begin
                } else {
                    EventKind::End
                },
                t_us,
            });
        }
        out
    }

    /// All buffered events of one trace, oldest first.
    pub fn events_for(&self, trace: u64) -> Vec<TraceEvent> {
        let mut events = self.tail(self.ring.len());
        events.retain(|e| e.trace == trace);
        events
    }

    /// The buffered events of `trace` as JSONL (one event per line,
    /// trailing newline when non-empty).
    pub fn export_jsonl(&self, trace: u64) -> String {
        let mut out = String::new();
        for event in self.events_for(trace) {
            out.push_str(&event.to_json());
            out.push('\n');
        }
        out
    }
}

/// The identity of an open span: what its guard needs to end it.
#[derive(Debug, Clone, Copy)]
struct SpanHandle {
    trace: u64,
    span: u64,
    name_idx: u64,
}

/// Ends its span when dropped. A no-op guard (from a disabled tracer)
/// records nothing.
#[derive(Debug)]
pub struct SpanGuard<'a> {
    tracer: &'a Tracer,
    handle: Option<SpanHandle>,
}

impl Drop for SpanGuard<'_> {
    fn drop(&mut self) {
        if let Some(handle) = self.handle.take() {
            self.tracer.end(&handle);
        }
    }
}

/// Validate a span event stream against the parent recorded on each
/// `begin`: a span begins under an open span of its trace (or as a root,
/// parent 0), ends exactly once, ends only when none of its children is
/// still open, and no span is left open. Siblings may close in any order.
/// Returns a description of the first violation. Used by the integration
/// tests on in-process traces and on `--trace-out` files.
pub fn validate_span_tree(events: &[TraceEvent]) -> Result<(), String> {
    use std::collections::BTreeMap;
    struct Open {
        name: &'static str,
        parent: u64,
        open_children: usize,
    }
    // (trace, span) → open span; ordered so the first leftover is stable.
    let mut open: BTreeMap<(u64, u64), Open> = BTreeMap::new();
    for e in events {
        match e.kind {
            EventKind::Begin => {
                if open.contains_key(&(e.trace, e.span)) {
                    return Err(format!(
                        "trace {}: span {} ({}) begins twice",
                        e.trace, e.span, e.name
                    ));
                }
                if e.parent != 0 {
                    let Some(parent) = open.get_mut(&(e.trace, e.parent)) else {
                        return Err(format!(
                            "trace {}: span {} ({}) begins under span {}, which is not open",
                            e.trace, e.span, e.name, e.parent
                        ));
                    };
                    parent.open_children += 1;
                }
                open.insert(
                    (e.trace, e.span),
                    Open {
                        name: e.name,
                        parent: e.parent,
                        open_children: 0,
                    },
                );
            }
            EventKind::End => {
                let Some(span) = open.remove(&(e.trace, e.span)) else {
                    return Err(format!(
                        "trace {}: end of span {} ({}) with no open begin",
                        e.trace, e.span, e.name
                    ));
                };
                if span.open_children > 0 {
                    let (child, child_name) = open
                        .iter()
                        .find(|((t, _), o)| *t == e.trace && o.parent == e.span)
                        .map(|((_, s), o)| (*s, o.name))
                        .expect("open_children counts spans in `open`");
                    return Err(format!(
                        "trace {}: end of span {} ({}) while its child span {} ({}) is open",
                        e.trace, e.span, e.name, child, child_name
                    ));
                }
                if let Some(parent) = open.get_mut(&(e.trace, span.parent)) {
                    parent.open_children -= 1;
                }
            }
        }
    }
    if let Some(((trace, span), o)) = open.iter().next() {
        return Err(format!(
            "trace {trace}: span {span} ({}) never ended",
            o.name
        ));
    }
    Ok(())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn disabled_tracer_records_nothing() {
        let t = Tracer::with_capacity(64);
        let trace = t.new_trace();
        {
            let _g = t.span(trace, "root");
            let _h = t.span(trace, "child");
        }
        assert!(t.tail(64).is_empty());
    }

    #[test]
    fn spans_nest_implicitly_within_a_thread() {
        let t = Tracer::with_capacity(64);
        t.set_enabled(true);
        let trace = t.new_trace();
        {
            let root = t.span(trace, "root");
            let root_span = root.handle.unwrap().span;
            {
                let child = t.span(trace, "child");
                assert_ne!(child.handle.unwrap().span, root_span);
            }
            let _second = t.span(trace, "second");
        }
        let events = t.events_for(trace);
        assert_eq!(events.len(), 6);
        validate_span_tree(&events).unwrap();
        let child_begin = events
            .iter()
            .find(|e| e.name == "child" && e.kind == EventKind::Begin)
            .unwrap();
        let root_begin = events
            .iter()
            .find(|e| e.name == "root" && e.kind == EventKind::Begin)
            .unwrap();
        assert_eq!(child_begin.parent, root_begin.span);
        assert_eq!(root_begin.parent, 0);
    }

    #[test]
    fn span_here_nests_or_noops() {
        let t = Tracer::with_capacity(64);
        t.set_enabled(true);
        // No open span: nothing recorded.
        {
            let _orphan = t.span_here("orphan");
        }
        assert!(t.tail(64).is_empty());
        let trace = t.new_trace();
        {
            let _root = t.span(trace, "root");
            let _inner = t.span_here("inner");
        }
        let events = t.events_for(trace);
        assert_eq!(events.len(), 4);
        validate_span_tree(&events).unwrap();
        let root_span = events.iter().find(|e| e.name == "root").unwrap().span;
        let inner = events
            .iter()
            .find(|e| e.name == "inner" && e.kind == EventKind::Begin)
            .unwrap();
        assert_eq!(inner.parent, root_span);
    }

    #[test]
    fn ring_keeps_only_the_most_recent_events() {
        let t = Tracer::with_capacity(8);
        t.set_enabled(true);
        let trace = t.new_trace();
        for _ in 0..20 {
            let _g = t.span(trace, "tick");
        }
        let events = t.tail(1024);
        assert_eq!(events.len(), 8);
        // Oldest-first and strictly increasing spans-with-kind order.
        for pair in events.windows(2) {
            assert!(pair[0].t_us <= pair[1].t_us);
        }
    }

    #[test]
    fn traces_are_isolated() {
        let t = Tracer::with_capacity(64);
        t.set_enabled(true);
        let (a, b) = (t.new_trace(), t.new_trace());
        {
            let _ga = t.span(a, "alpha");
            let _gb = t.span(b, "beta");
        }
        let events_a = t.events_for(a);
        assert_eq!(events_a.len(), 2);
        assert!(events_a.iter().all(|e| e.name == "alpha"));
        validate_span_tree(&events_a).unwrap();
        validate_span_tree(&t.events_for(b)).unwrap();
    }

    #[test]
    fn jsonl_export_has_one_event_per_line() {
        let t = Tracer::with_capacity(64);
        t.set_enabled(true);
        let trace = t.new_trace();
        {
            let _g = t.span(trace, "run");
        }
        let jsonl = t.export_jsonl(trace);
        let lines: Vec<&str> = jsonl.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines[0].contains("\"name\":\"run\""));
        assert!(lines[0].contains("\"ev\":\"begin\""));
        assert!(lines[1].contains("\"ev\":\"end\""));
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
    }

    #[test]
    fn validator_rejects_unbalanced_and_crossing_spans() {
        let ev = |span, parent, name, kind, t_us| TraceEvent {
            trace: 1,
            span,
            parent,
            name,
            kind,
            t_us,
        };
        // end without begin
        assert!(validate_span_tree(&[ev(1, 0, "a", EventKind::End, 0)]).is_err());
        // begin without end
        assert!(validate_span_tree(&[ev(1, 0, "a", EventKind::Begin, 0)]).is_err());
        // crossing: begin a, begin b, end a, end b
        assert!(validate_span_tree(&[
            ev(1, 0, "a", EventKind::Begin, 0),
            ev(2, 1, "b", EventKind::Begin, 1),
            ev(1, 0, "a", EventKind::End, 2),
            ev(2, 1, "b", EventKind::End, 3),
        ])
        .is_err());
        // proper nesting passes
        assert!(validate_span_tree(&[
            ev(1, 0, "a", EventKind::Begin, 0),
            ev(2, 1, "b", EventKind::Begin, 1),
            ev(2, 1, "b", EventKind::End, 2),
            ev(1, 0, "a", EventKind::End, 3),
        ])
        .is_ok());
    }

    #[test]
    fn validator_follows_recorded_parents_not_event_order() {
        let ev = |span, parent, kind| TraceEvent {
            trace: 1,
            span,
            parent,
            name: "s",
            kind,
            t_us: 0,
        };
        use EventKind::{Begin, End};
        let under_root = |inner: &[TraceEvent]| {
            let mut events = vec![ev(1, 0, Begin)];
            events.extend_from_slice(inner);
            events.push(ev(1, 0, End));
            events
        };
        // Two sibling spans overlap: A begin, B begin, A end, B end.
        validate_span_tree(&under_root(&[
            ev(2, 1, Begin),
            ev(3, 1, Begin),
            ev(2, 1, End),
            ev(3, 1, End),
        ]))
        .unwrap();
        // A child outliving its parent.
        let err = validate_span_tree(&under_root(&[
            ev(2, 1, Begin),
            ev(3, 2, Begin),
            ev(2, 1, End),
            ev(3, 2, End),
        ]))
        .unwrap_err();
        assert!(err.contains("child span 3"), "{err}");
        // A parent that never began (or belongs to another trace).
        let err = validate_span_tree(&under_root(&[ev(2, 9, Begin), ev(2, 9, End)])).unwrap_err();
        assert!(err.contains("span 9, which is not open"), "{err}");
        // A span ending twice.
        let err = validate_span_tree(&under_root(&[
            ev(2, 1, Begin),
            ev(2, 1, End),
            ev(2, 1, End),
        ]))
        .unwrap_err();
        assert!(err.contains("no open begin"), "{err}");
        // Every span must still end, siblings included.
        let err = validate_span_tree(&under_root(&[
            ev(2, 1, Begin),
            ev(3, 1, Begin),
            ev(3, 1, End),
        ]))
        .unwrap_err();
        assert!(err.contains("child span 2"), "{err}");
    }

    #[test]
    fn concurrent_writers_never_corrupt_readable_slots() {
        let t = Tracer::with_capacity(32);
        t.set_enabled(true);
        std::thread::scope(|scope| {
            for _ in 0..4 {
                scope.spawn(|| {
                    let trace = t.new_trace();
                    for _ in 0..500 {
                        let _g = t.span(trace, "spin");
                    }
                });
            }
            scope.spawn(|| {
                for _ in 0..200 {
                    for e in t.tail(32) {
                        assert_eq!(e.name, "spin");
                        assert!(e.span > 0);
                    }
                }
            });
        });
    }
}
