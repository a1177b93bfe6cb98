//! Zero-dependency structured tracing for the fastvg stack.
//!
//! Every process (router, daemon, load generator) owns one [`Tracer`].
//! Spans are identified by a ([`TraceId`], [`SpanId`]) pair minted from a
//! per-process seed and a counter via the SplitMix64 finalizer, so a fixed
//! seed reproduces the exact same id sequence — replay tests can assert on
//! ids instead of fishing for them. Finished spans are pushed onto a bounded
//! collector (a Vyukov-style ring with no global lock; overflow is counted,
//! never waits for the flusher) and drained by a background flusher thread into a
//! newline-JSON file and a small in-memory ring served by `/trace/recent`.
//!
//! The crate deliberately depends on nothing — not even the workspace's
//! `fastvg-wire` — so any layer can link it without cycles. JSON is emitted
//! by hand (spans are flat), and parsed only by the offline `fastvg-trace`
//! tool which has a real JSON reader.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

use std::collections::VecDeque;
use std::fs::File;
use std::io::{BufWriter, Write};
use std::path::Path;
use std::sync::atomic::{AtomicBool, AtomicU64, AtomicUsize, Ordering};
use std::sync::{Arc, Mutex};
use std::time::{Duration, Instant, SystemTime};

/// SplitMix64 finalizer: a cheap, well-mixed 64-bit permutation.
///
/// Duplicated from `fastvg-wire` so this crate stays dependency-free; the
/// constants are the standard Stafford/SplitMix64 ones, so the two copies
/// agree bit-for-bit.
#[inline]
pub fn mix64(mut x: u64) -> u64 {
    x ^= x >> 30;
    x = x.wrapping_mul(0xbf58_476d_1ce4_e5b9);
    x ^= x >> 27;
    x = x.wrapping_mul(0x94d0_49bb_1331_11eb);
    x ^= x >> 31;
    x
}

/// Identifier shared by every span in one end-to-end request.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct TraceId(pub u64);

/// Identifier of a single span within a trace.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SpanId(pub u64);

impl TraceId {
    /// Renders the id as fixed-width lowercase hex (16 chars).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

impl SpanId {
    /// Renders the id as fixed-width lowercase hex (16 chars).
    pub fn to_hex(self) -> String {
        format!("{:016x}", self.0)
    }
}

/// The (trace, span) pair that travels on the wire and links child spans
/// to their parent across process boundaries.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct SpanContext {
    /// Trace every descendant span must carry.
    pub trace: TraceId,
    /// Span that children of this context point at via `parent`.
    pub span: SpanId,
}

/// Deterministic id generator: `mix64(seed ^ mix64(counter))`.
///
/// A fixed seed yields a fixed id sequence; distinct seeds (e.g. distinct
/// processes seeded from entropy) yield disjoint sequences with
/// overwhelming probability.
#[derive(Debug)]
pub struct IdGen {
    seed: u64,
    counter: AtomicU64,
}

impl IdGen {
    /// Creates a generator with an explicit seed (use for replay tests).
    pub fn with_seed(seed: u64) -> IdGen {
        IdGen {
            seed,
            counter: AtomicU64::new(0),
        }
    }

    /// Creates a generator seeded from the wall clock and process id —
    /// good enough to keep independent processes from colliding.
    pub fn from_entropy() -> IdGen {
        let now = SystemTime::now()
            .duration_since(SystemTime::UNIX_EPOCH)
            .unwrap_or_default();
        let seed = mix64(now.as_nanos() as u64) ^ mix64(u64::from(std::process::id()));
        IdGen::with_seed(seed)
    }

    /// Mints the next id; never returns 0 so 0 can mean "absent".
    pub fn next_id(&self) -> u64 {
        loop {
            let n = self.counter.fetch_add(1, Ordering::Relaxed);
            let id = mix64(self.seed ^ mix64(n.wrapping_add(0x9e37_79b9_7f4a_7c15)));
            if id != 0 {
                return id;
            }
        }
    }
}

/// A finished span: one timed operation within a trace.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Span {
    /// Trace this span belongs to.
    pub trace: TraceId,
    /// This span's own id.
    pub id: SpanId,
    /// Parent span id, absent only for the trace root.
    pub parent: Option<SpanId>,
    /// Which process layer emitted it ("client", "router", "daemon").
    pub layer: String,
    /// Operation name ("request", "proxy_attempt", "queue_wait", ...).
    pub name: String,
    /// Wall-clock start in microseconds since the Unix epoch. Wall time
    /// (not a monotonic clock) is the one clock distinct processes on the
    /// same host share, which is what cross-process waterfalls need.
    pub start_us: u64,
    /// Duration in microseconds.
    pub dur_us: u64,
    /// Free-form key=value attributes.
    pub attrs: Vec<(&'static str, String)>,
}

impl Span {
    /// Renders the span as a single JSON line (no trailing newline).
    fn to_json_line(&self) -> String {
        let mut out = String::with_capacity(160);
        out.push_str("{\"trace\":\"");
        out.push_str(&self.trace.to_hex());
        out.push_str("\",\"span\":\"");
        out.push_str(&self.id.to_hex());
        out.push_str("\",\"parent\":");
        match self.parent {
            Some(p) => {
                out.push('"');
                out.push_str(&p.to_hex());
                out.push('"');
            }
            None => out.push_str("null"),
        }
        out.push_str(",\"layer\":");
        push_json_str(&mut out, &self.layer);
        out.push_str(",\"name\":");
        push_json_str(&mut out, &self.name);
        out.push_str(",\"start_us\":");
        out.push_str(&self.start_us.to_string());
        out.push_str(",\"dur_us\":");
        out.push_str(&self.dur_us.to_string());
        if !self.attrs.is_empty() {
            out.push_str(",\"attrs\":{");
            for (i, (k, v)) in self.attrs.iter().enumerate() {
                if i > 0 {
                    out.push(',');
                }
                push_json_str(&mut out, k);
                out.push(':');
                push_json_str(&mut out, v);
            }
            out.push('}');
        }
        out.push('}');
        out
    }
}

fn push_json_str(out: &mut String, s: &str) {
    out.push('"');
    for c in s.chars() {
        match c {
            '"' => out.push_str("\\\""),
            '\\' => out.push_str("\\\\"),
            '\n' => out.push_str("\\n"),
            '\r' => out.push_str("\\r"),
            '\t' => out.push_str("\\t"),
            c if (c as u32) < 0x20 => {
                out.push_str(&format!("\\u{:04x}", c as u32));
            }
            c => out.push(c),
        }
    }
    out.push('"');
}

/// Current wall clock in microseconds since the Unix epoch.
pub fn unix_us() -> u64 {
    SystemTime::now()
        .duration_since(SystemTime::UNIX_EPOCH)
        .unwrap_or_default()
        .as_micros() as u64
}

struct SlotCell {
    /// Vyukov sequence: `ticket` when ready for a producer holding that
    /// ticket, `ticket + 1` once the producer stored, `ticket + capacity`
    /// after the consumer cleared it.
    seq: AtomicUsize,
    cell: Mutex<Option<Span>>,
}

/// Bounded multi-producer span queue with counted overflow.
///
/// A Vyukov-style ring: producers and consumers claim tickets with one
/// atomic RMW each and synchronise per-slot through a sequence number, so
/// the queue never takes a global lock and a full queue drops (and counts)
/// rather than blocks — tracing must never add backpressure to the hot
/// path. Slot payloads sit behind a per-slot `Mutex` purely to stay within
/// safe Rust; the mutex is only ever taken uncontended by the ticket
/// holder.
pub struct Collector {
    slots: Box<[SlotCell]>,
    enqueue: AtomicUsize,
    dequeue: AtomicUsize,
    dropped: AtomicU64,
}

impl std::fmt::Debug for Collector {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Collector")
            .field("capacity", &self.slots.len())
            .field("dropped", &self.dropped.load(Ordering::Relaxed))
            .finish()
    }
}

impl Collector {
    /// Creates a collector holding up to `capacity` spans (rounded up to a
    /// power of two, minimum 8).
    pub fn with_capacity(capacity: usize) -> Collector {
        let capacity = capacity.max(8).next_power_of_two();
        let slots = (0..capacity)
            .map(|i| SlotCell {
                seq: AtomicUsize::new(i),
                cell: Mutex::new(None),
            })
            .collect::<Vec<_>>()
            .into_boxed_slice();
        Collector {
            slots,
            enqueue: AtomicUsize::new(0),
            dequeue: AtomicUsize::new(0),
            dropped: AtomicU64::new(0),
        }
    }

    fn mask(&self) -> usize {
        self.slots.len() - 1
    }

    /// Pushes a span; on overflow the span is dropped and counted.
    /// Returns whether the span was accepted.
    pub fn push(&self, span: Span) -> bool {
        let mut pos = self.enqueue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask()];
            let seq = slot.seq.load(Ordering::Acquire);
            if seq == pos {
                match self.enqueue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        *slot.cell.lock().expect("slot mutex poisoned") = Some(span);
                        slot.seq.store(pos.wrapping_add(1), Ordering::Release);
                        return true;
                    }
                    Err(actual) => pos = actual,
                }
            } else if (seq as isize).wrapping_sub(pos as isize) < 0 {
                // Slot not yet freed by the consumer: the ring is full.
                self.dropped.fetch_add(1, Ordering::Relaxed);
                return false;
            } else {
                pos = self.enqueue.load(Ordering::Relaxed);
            }
        }
    }

    /// Pops one span if available.
    pub fn pop(&self) -> Option<Span> {
        let mut pos = self.dequeue.load(Ordering::Relaxed);
        loop {
            let slot = &self.slots[pos & self.mask()];
            let seq = slot.seq.load(Ordering::Acquire);
            let expected = pos.wrapping_add(1);
            if seq == expected {
                match self.dequeue.compare_exchange_weak(
                    pos,
                    pos.wrapping_add(1),
                    Ordering::Relaxed,
                    Ordering::Relaxed,
                ) {
                    Ok(_) => {
                        let span = slot.cell.lock().expect("slot mutex poisoned").take();
                        slot.seq
                            .store(pos.wrapping_add(self.slots.len()), Ordering::Release);
                        return span;
                    }
                    Err(actual) => pos = actual,
                }
            } else if (seq as isize).wrapping_sub(expected as isize) < 0 {
                return None; // empty
            } else {
                pos = self.dequeue.load(Ordering::Relaxed);
            }
        }
    }

    /// Drains every currently-queued span.
    pub fn drain(&self) -> Vec<Span> {
        let mut out = Vec::new();
        while let Some(span) = self.pop() {
            out.push(span);
        }
        out
    }

    /// Number of spans dropped on overflow since creation.
    pub fn dropped(&self) -> u64 {
        self.dropped.load(Ordering::Relaxed)
    }
}

/// How many finished span JSON lines `/trace/recent` retains.
const RECENT_CAP: usize = 512;

/// Per-process tracing front end: mints ids, collects finished spans,
/// and exports them as newline-JSON.
///
/// Always used behind an [`Arc`]; span constructors take `&Arc<Self>` so
/// the returned [`ActiveSpan`] can outlive the borrow (queue callbacks,
/// worker threads).
pub struct Tracer {
    ids: IdGen,
    collector: Collector,
    layer: String,
    recent: Mutex<VecDeque<String>>,
    sink: Mutex<Option<BufWriter<File>>>,
    stop: AtomicBool,
}

impl std::fmt::Debug for Tracer {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("Tracer")
            .field("layer", &self.layer)
            .field("collector", &self.collector)
            .finish()
    }
}

impl Tracer {
    /// Creates a tracer for the given layer ("client" / "router" /
    /// "daemon") with a deterministic id seed and no file sink.
    pub fn new(layer: &str, seed: u64) -> Arc<Tracer> {
        Arc::new(Tracer {
            ids: IdGen::with_seed(seed),
            collector: Collector::with_capacity(4096),
            layer: layer.to_string(),
            recent: Mutex::new(VecDeque::with_capacity(RECENT_CAP)),
            sink: Mutex::new(None),
            stop: AtomicBool::new(false),
        })
    }

    /// Attaches a newline-JSON file sink (truncates an existing file).
    pub fn set_file(&self, path: &Path) -> std::io::Result<()> {
        let file = File::create(path)?;
        *self.sink.lock().expect("sink mutex poisoned") = Some(BufWriter::new(file));
        Ok(())
    }

    /// The layer tag stamped on every span from this tracer.
    pub fn layer(&self) -> &str {
        &self.layer
    }

    /// Spans dropped because the collector overflowed.
    pub fn dropped(&self) -> u64 {
        self.collector.dropped()
    }

    /// Starts a new root span (fresh trace id, no parent).
    pub fn root(self: &Arc<Self>, name: &'static str) -> ActiveSpan {
        let trace = TraceId(self.ids.next_id());
        self.start(trace, None, name)
    }

    /// Starts a child span of an existing context.
    pub fn child(self: &Arc<Self>, parent: SpanContext, name: &'static str) -> ActiveSpan {
        self.start(parent.trace, Some(parent.span), name)
    }

    /// Starts a span with explicit trace and optional parent ids.
    pub fn start(
        self: &Arc<Self>,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
    ) -> ActiveSpan {
        ActiveSpan {
            tracer: Arc::clone(self),
            span: Some(Box::new(Span {
                trace,
                id: SpanId(self.ids.next_id()),
                parent,
                layer: self.layer.clone(),
                name: name.to_string(),
                start_us: unix_us(),
                dur_us: 0,
                attrs: Vec::new(),
            })),
            started: Instant::now(),
        }
    }

    /// Records an already-measured span (used when timings are known only
    /// after the fact, e.g. per-stage timings out of a batch report).
    /// Returns the minted span id so callers can chain children off it.
    pub fn emit(
        &self,
        trace: TraceId,
        parent: Option<SpanId>,
        name: &'static str,
        start_us: u64,
        dur_us: u64,
        attrs: Vec<(&'static str, String)>,
    ) -> SpanId {
        let id = SpanId(self.ids.next_id());
        self.collector.push(Span {
            trace,
            id,
            parent,
            layer: self.layer.clone(),
            name: name.to_string(),
            start_us,
            dur_us,
            attrs,
        });
        id
    }

    fn record(&self, span: Span) {
        self.collector.push(span);
    }

    /// Drains the collector into the file sink (if any) and the recent
    /// ring. Returns how many spans were flushed. Called by the flusher
    /// thread, at shutdown, and before serving `/trace/recent`.
    pub fn flush(&self) -> usize {
        let spans = self.collector.drain();
        if spans.is_empty() {
            // Still push buffered bytes out so tail -f style readers and
            // the smoke gate see lines promptly.
            if let Some(w) = self.sink.lock().expect("sink mutex poisoned").as_mut() {
                let _ = w.flush();
            }
            return 0;
        }
        let mut recent = self.recent.lock().expect("recent mutex poisoned");
        let mut sink = self.sink.lock().expect("sink mutex poisoned");
        let n = spans.len();
        for span in spans {
            let line = span.to_json_line();
            if let Some(w) = sink.as_mut() {
                let _ = writeln!(w, "{line}");
            }
            if recent.len() == RECENT_CAP {
                recent.pop_front();
            }
            recent.push_back(line);
        }
        if let Some(w) = sink.as_mut() {
            let _ = w.flush();
        }
        n
    }

    /// The most recent flushed span JSON lines, oldest first.
    pub fn recent(&self) -> Vec<String> {
        self.flush();
        self.recent
            .lock()
            .expect("recent mutex poisoned")
            .iter()
            .cloned()
            .collect()
    }

    /// Spawns a background thread that flushes every `interval` until the
    /// returned handle is dropped (which performs a final flush).
    pub fn spawn_flusher(self: &Arc<Self>, interval: Duration) -> FlusherHandle {
        let tracer = Arc::clone(self);
        let handle = std::thread::Builder::new()
            .name("fastvg-obs-flush".into())
            .spawn(move || {
                while !tracer.stop.load(Ordering::Acquire) {
                    tracer.flush();
                    std::thread::park_timeout(interval);
                }
                tracer.flush();
            })
            .expect("spawn trace flusher");
        FlusherHandle {
            tracer: Arc::clone(self),
            thread: Some(handle),
        }
    }
}

/// Owns the background flusher thread; dropping it stops the thread after
/// one final flush.
#[derive(Debug)]
pub struct FlusherHandle {
    tracer: Arc<Tracer>,
    thread: Option<std::thread::JoinHandle<()>>,
}

impl Drop for FlusherHandle {
    fn drop(&mut self) {
        self.tracer.stop.store(true, Ordering::Release);
        if let Some(thread) = self.thread.take() {
            thread.thread().unpark();
            let _ = thread.join();
        }
    }
}

/// A span that is open and timing; finish it to record.
///
/// Dropping without [`finish`](ActiveSpan::finish) records it too (with
/// the elapsed time at drop), so early returns still produce spans.
#[derive(Debug)]
pub struct ActiveSpan {
    tracer: Arc<Tracer>,
    /// `None` only after `finish`/`finish_with` consumed the span.
    span: Option<Box<Span>>,
    started: Instant,
}

impl ActiveSpan {
    fn span(&self) -> &Span {
        self.span.as_ref().expect("span taken only by finish")
    }

    fn span_mut(&mut self) -> &mut Span {
        self.span.as_mut().expect("span taken only by finish")
    }

    /// The context children (local or remote) should parent to.
    pub fn context(&self) -> SpanContext {
        SpanContext {
            trace: self.span().trace,
            span: self.span().id,
        }
    }

    /// Adds a key=value attribute.
    pub fn attr(&mut self, key: &'static str, value: impl Into<String>) {
        self.span_mut().attrs.push((key, value.into()));
    }

    /// Moves the start back to an earlier instant (for spans whose work
    /// began before the span object could be created, e.g. queue wait
    /// measured from the submit instant).
    pub fn backdate(&mut self, earlier: Instant) {
        let back = earlier.elapsed();
        self.span_mut().start_us = unix_us().saturating_sub(back.as_micros() as u64);
        self.started = earlier;
    }

    /// Finishes with elapsed-since-start duration and records the span.
    pub fn finish(self) {
        let dur = self.started.elapsed();
        self.finish_with(dur);
    }

    /// Finishes with an explicit duration and records the span.
    pub fn finish_with(mut self, dur: Duration) {
        if let Some(mut span) = self.span.take() {
            span.dur_us = dur.as_micros() as u64;
            self.tracer.record(*span);
        }
    }
}

impl Drop for ActiveSpan {
    fn drop(&mut self) {
        // Early returns / panics still record the span with elapsed time.
        if let Some(mut span) = self.span.take() {
            span.dur_us = self.started.elapsed().as_micros() as u64;
            self.tracer.record(*span);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn deterministic_ids_under_fixed_seed() {
        let a = IdGen::with_seed(42);
        let b = IdGen::with_seed(42);
        let seq_a: Vec<u64> = (0..64).map(|_| a.next_id()).collect();
        let seq_b: Vec<u64> = (0..64).map(|_| b.next_id()).collect();
        assert_eq!(seq_a, seq_b);
        let c = IdGen::with_seed(43);
        let seq_c: Vec<u64> = (0..64).map(|_| c.next_id()).collect();
        assert_ne!(seq_a, seq_c);
        let mut uniq = seq_a.clone();
        uniq.sort_unstable();
        uniq.dedup();
        assert_eq!(uniq.len(), seq_a.len(), "ids must not repeat");
        assert!(!seq_a.contains(&0), "0 is reserved for absent");
    }

    fn test_span(name: &str) -> Span {
        Span {
            trace: TraceId(1),
            id: SpanId(2),
            parent: None,
            layer: "test".into(),
            name: name.into(),
            start_us: 10,
            dur_us: 5,
            attrs: Vec::new(),
        }
    }

    #[test]
    fn collector_overflow_is_drop_counted() {
        let c = Collector::with_capacity(8);
        for i in 0..8 {
            assert!(c.push(test_span(&format!("s{i}"))));
        }
        assert!(!c.push(test_span("overflow-a")));
        assert!(!c.push(test_span("overflow-b")));
        assert_eq!(c.dropped(), 2);
        let drained = c.drain();
        assert_eq!(drained.len(), 8);
        assert_eq!(drained[0].name, "s0", "FIFO order");
        assert_eq!(drained[7].name, "s7");
        // Freed slots accept new spans again.
        assert!(c.push(test_span("after")));
        assert_eq!(c.dropped(), 2);
    }

    #[test]
    fn collector_concurrent_push_accounts_for_everything() {
        let c = Arc::new(Collector::with_capacity(64));
        let threads: Vec<_> = (0..4)
            .map(|t| {
                let c = Arc::clone(&c);
                std::thread::spawn(move || {
                    let mut accepted = 0u64;
                    for i in 0..100 {
                        if c.push(test_span(&format!("t{t}-{i}"))) {
                            accepted += 1;
                        }
                    }
                    accepted
                })
            })
            .collect();
        let accepted: u64 = threads.into_iter().map(|t| t.join().unwrap()).sum();
        assert_eq!(accepted + c.dropped(), 400);
        assert_eq!(c.drain().len() as u64, accepted);
    }

    #[test]
    fn parent_linkage_and_json_shape() {
        let tracer = Tracer::new("test", 7);
        let root = tracer.root("request");
        let ctx = root.context();
        let mut child = tracer.child(ctx, "stage");
        child.attr("stage", "acquire");
        let child_ctx = child.context();
        assert_eq!(child_ctx.trace, ctx.trace);
        assert_ne!(child_ctx.span, ctx.span);
        child.finish();
        root.finish();
        let lines = tracer.recent();
        assert_eq!(lines.len(), 2);
        // Child flushed first (finished first).
        assert!(lines[0].contains(&format!("\"parent\":\"{}\"", ctx.span.to_hex())));
        assert!(lines[0].contains("\"name\":\"stage\""));
        assert!(lines[0].contains("\"attrs\":{\"stage\":\"acquire\"}"));
        assert!(lines[1].contains("\"parent\":null"));
        assert!(lines[1].contains(&format!("\"trace\":\"{}\"", ctx.trace.to_hex())));
    }

    #[test]
    fn json_escaping() {
        let mut span = test_span("quote\"back\\slash");
        span.attrs.push(("k", "line\nbreak\ttab\u{1}".into()));
        let line = span.to_json_line();
        assert!(line.contains("quote\\\"back\\\\slash"));
        assert!(line.contains("line\\nbreak\\ttab\\u0001"));
    }

    #[test]
    fn ids_render_as_fixed_width_hex() {
        assert_eq!(TraceId(0x0123_4567_89ab_cdef).to_hex(), "0123456789abcdef");
        assert_eq!(SpanId(0x2a).to_hex(), "000000000000002a");
    }

    #[test]
    fn backdate_and_explicit_duration() {
        let tracer = Tracer::new("test", 9);
        let before = Instant::now() - Duration::from_millis(50);
        let mut span = tracer.root("queue_wait");
        span.backdate(before);
        span.finish_with(Duration::from_millis(30));
        let lines = tracer.recent();
        assert_eq!(lines.len(), 1);
        assert!(lines[0].contains("\"dur_us\":30000"));
    }

    #[test]
    fn flusher_thread_writes_file() {
        let dir = std::env::temp_dir().join(format!("fastvg-obs-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("trace.jsonl");
        let tracer = Tracer::new("test", 11);
        tracer.set_file(&path).unwrap();
        let flusher = tracer.spawn_flusher(Duration::from_millis(5));
        tracer.root("one").finish();
        tracer.root("two").finish();
        drop(flusher); // final flush
        let text = std::fs::read_to_string(&path).unwrap();
        let lines: Vec<&str> = text.lines().collect();
        assert_eq!(lines.len(), 2);
        assert!(lines.iter().all(|l| l.starts_with('{') && l.ends_with('}')));
        let _ = std::fs::remove_dir_all(&dir);
    }
}
