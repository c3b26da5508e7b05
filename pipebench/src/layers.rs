//! Layer attribution from outside the program: an in-memory span tracer
//! plus wrapper types that time the program's public extension points
//! (the `Policy` hook, observers, and the `BufRead`/`Write` ends of
//! `serve`).
//!
//! Spans carry a name, start, end, parent and — for per-slot work — the
//! slot as the shared id. Per-event observer callbacks are too many to be
//! spans; they are aggregated into a count plus summed time, charged both
//! to the aggregate and to the span that was open when they ran, so a
//! span's self time is its duration minus its children's coverage minus
//! the callbacks it enclosed.

use spes_sim::{DynObserver, EventCtx, MemoryPool, Observer, Policy, RunMeta, SimEvent};
use spes_trace::{FunctionId, Slot};
use std::cell::{Cell, RefCell};
use std::io::{BufRead, Read, Write};
use std::rc::Rc;
use std::time::Instant;

/// One recorded span. Times are nanoseconds since the tracer's epoch.
#[derive(Debug, Clone)]
pub struct Span {
    pub name: &'static str,
    pub parent: Option<usize>,
    pub slot: Option<Slot>,
    pub start_ns: u64,
    pub end_ns: u64,
    /// Aggregated callback time that ran while this span was innermost.
    pub callback_ns: u64,
}

/// Count and summed time of one kind of aggregated callback.
#[derive(Debug, Clone, Copy, Default)]
pub struct Callbacks {
    pub count: u64,
    pub ns: u64,
}

/// In-memory span recorder, written out when the benchmark ends.
#[derive(Debug)]
pub struct Tracer {
    epoch: Instant,
    spans: Vec<Span>,
    open: Vec<usize>,
    /// Observer callbacks (`on_event` and the run hooks).
    pub callbacks: Callbacks,
}

pub type SharedTracer = Rc<RefCell<Tracer>>;

impl Tracer {
    pub fn shared() -> SharedTracer {
        Rc::new(RefCell::new(Self {
            epoch: Instant::now(),
            spans: Vec::new(),
            open: Vec::new(),
            callbacks: Callbacks::default(),
        }))
    }

    fn now_ns(&self) -> u64 {
        self.epoch.elapsed().as_nanos() as u64
    }

    pub fn enter(&mut self, name: &'static str, slot: Option<Slot>) -> usize {
        let id = self.spans.len();
        let start_ns = self.now_ns();
        self.spans.push(Span {
            name,
            parent: self.open.last().copied(),
            slot,
            start_ns,
            end_ns: start_ns,
            callback_ns: 0,
        });
        self.open.push(id);
        id
    }

    pub fn exit(&mut self, id: usize) {
        let end_ns = self.now_ns();
        debug_assert_eq!(self.open.last(), Some(&id), "spans close innermost first");
        self.open.pop();
        self.spans[id].end_ns = end_ns;
    }

    /// Charges one aggregated callback of `ns` nanoseconds.
    pub fn callback(&mut self, ns: u64) {
        self.callbacks.count += 1;
        self.callbacks.ns += ns;
        if let Some(&open) = self.open.last() {
            self.spans[open].callback_ns += ns;
        }
    }

    /// Summed duration of every span called `name`, in seconds.
    pub fn total_s(&self, name: &str) -> f64 {
        let ns: u64 = self
            .spans
            .iter()
            .filter(|s| s.name == name)
            .map(|s| s.end_ns - s.start_ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Summed self time of every span called `name`, in seconds.
    pub fn self_s(&self, name: &str) -> f64 {
        let selfs = self.self_times();
        let ns: u64 = self
            .spans
            .iter()
            .zip(&selfs)
            .filter(|(s, _)| s.name == name)
            .map(|(_, &ns)| ns)
            .sum();
        ns as f64 * 1e-9
    }

    /// Self time of every span: its duration minus the union of its
    /// children's intervals minus the callbacks it enclosed directly.
    fn self_times(&self) -> Vec<u64> {
        let mut children: Vec<Vec<usize>> = vec![Vec::new(); self.spans.len()];
        for (id, span) in self.spans.iter().enumerate() {
            if let Some(parent) = span.parent {
                children[parent].push(id);
            }
        }
        self.spans
            .iter()
            .zip(&children)
            .map(|(span, kids)| {
                let mut covered = 0u64;
                let mut reach = span.start_ns;
                // Children are recorded in start order, so one sweep
                // merges overlapping intervals.
                for &kid in kids {
                    let (start, end) =
                        (self.spans[kid].start_ns.max(reach), self.spans[kid].end_ns);
                    if end > start {
                        covered += end - start;
                        reach = end;
                    }
                }
                (span.end_ns - span.start_ns).saturating_sub(covered + span.callback_ns)
            })
            .collect()
    }

    /// Writes every span (one JSON object per line, with its self time)
    /// followed by the callback aggregate.
    pub fn write_jsonl(&self, out: &mut impl Write) -> std::io::Result<()> {
        let selfs = self.self_times();
        for (id, (span, self_ns)) in self.spans.iter().zip(selfs).enumerate() {
            let parent = span.parent.map_or("null".to_owned(), |p| p.to_string());
            let slot = span.slot.map_or("null".to_owned(), |s| s.to_string());
            writeln!(
                out,
                "{{\"id\":{id},\"name\":\"{}\",\"parent\":{parent},\"slot\":{slot},\"start_ns\":{},\"end_ns\":{},\"self_ns\":{self_ns}}}",
                span.name, span.start_ns, span.end_ns
            )?;
        }
        writeln!(
            out,
            "{{\"callback\":\"observers.on_event\",\"count\":{},\"ns\":{}}}",
            self.callbacks.count, self.callbacks.ns
        )
    }
}

/// CPU time this thread has consumed, in seconds: the scheduler's on-CPU
/// time from `/proc/thread-self/schedstat`. Unlike the wall clock it
/// leaves out the time the (virtual) CPU was preempted, which on a shared
/// host is the largest source of run-to-run noise. `None` when the
/// kernel does not expose it.
pub fn thread_cpu_s() -> Option<f64> {
    let stat = std::fs::read_to_string("/proc/thread-self/schedstat").ok()?;
    let ns: u64 = stat.split_whitespace().next()?.parse().ok()?;
    Some(ns as f64 * 1e-9)
}

/// [`thread_cpu_s`], which `main` checks is available before any work.
pub fn cpu_now() -> f64 {
    thread_cpu_s().unwrap_or(0.0)
}

/// Phase timer used by both runs: measures the thread's CPU time, and
/// records a (wall-clock) span too when a tracer is attached.
#[derive(Clone, Default)]
pub struct Probe {
    tracer: Option<SharedTracer>,
}

impl Probe {
    pub fn traced(tracer: SharedTracer) -> Self {
        Self {
            tracer: Some(tracer),
        }
    }

    pub fn tracer(&self) -> Option<&SharedTracer> {
        self.tracer.as_ref()
    }

    pub fn enter(&self, name: &'static str, slot: Option<Slot>) -> Option<usize> {
        self.tracer
            .as_ref()
            .map(|t| t.borrow_mut().enter(name, slot))
    }

    pub fn exit(&self, id: Option<usize>) {
        if let (Some(t), Some(id)) = (&self.tracer, id) {
            t.borrow_mut().exit(id);
        }
    }

    /// Runs `f` inside a span called `name`; returns its value and the
    /// CPU seconds it took.
    pub fn time<T>(&self, name: &'static str, f: impl FnOnce() -> T) -> (T, f64) {
        let id = self.enter(name, None);
        let begin = cpu_now();
        let value = f();
        let secs = cpu_now() - begin;
        self.exit(id);
        (value, secs)
    }
}

/// A `Policy` that records a span around every hook call of the policy it
/// wraps.
pub struct TimedPolicy {
    inner: Box<dyn Policy>,
    tracer: SharedTracer,
}

impl TimedPolicy {
    pub fn new(inner: Box<dyn Policy>, tracer: SharedTracer) -> Self {
        Self { inner, tracer }
    }

    fn spanned<T>(
        &mut self,
        name: &'static str,
        slot: Option<Slot>,
        f: impl FnOnce(&mut dyn Policy) -> T,
    ) -> T {
        let id = self.tracer.borrow_mut().enter(name, slot);
        let value = f(self.inner.as_mut());
        self.tracer.borrow_mut().exit(id);
        value
    }
}

impl Policy for TimedPolicy {
    fn name(&self) -> &str {
        self.inner.name()
    }

    fn on_start(&mut self, start: Slot, pool: &mut MemoryPool) {
        self.spanned("hook.on_start", Some(start), |p| p.on_start(start, pool));
    }

    fn on_slot(&mut self, now: Slot, invoked: &[(FunctionId, u32)], pool: &mut MemoryPool) {
        self.spanned("hook.on_slot", Some(now), |p| p.on_slot(now, invoked, pool));
    }

    fn pick_victim(&mut self, pool: &MemoryPool) -> Option<FunctionId> {
        self.spanned("hook.pick_victim", None, |p| p.pick_victim(pool))
    }

    fn category_of(&self, f: FunctionId) -> Option<&'static str> {
        self.inner.category_of(f)
    }

    fn as_any(&self) -> Option<&dyn std::any::Any> {
        self.inner.as_any()
    }
}

/// One observer standing in for a whole observer set: every callback is
/// dispatched to each member in order, and timed once for the set.
pub struct TimedObservers {
    inner: Vec<Box<dyn DynObserver>>,
    tracer: SharedTracer,
}

impl TimedObservers {
    pub fn new(inner: Vec<Box<dyn DynObserver>>, tracer: SharedTracer) -> Self {
        Self { inner, tracer }
    }

    fn timed(&mut self, f: impl Fn(&mut dyn DynObserver)) {
        let begin = Instant::now();
        for observer in &mut self.inner {
            f(observer.as_mut());
        }
        let ns = begin.elapsed().as_nanos() as u64;
        self.tracer.borrow_mut().callback(ns);
    }
}

impl Observer for TimedObservers {
    fn on_run_start(&mut self, meta: &RunMeta<'_>, pool: &MemoryPool) {
        self.timed(|o| o.on_run_start(meta, pool));
    }

    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        self.timed(|o| o.on_event(ctx, event));
    }

    fn on_run_end(&mut self, end: Slot, pool: &MemoryPool) {
        self.timed(|o| o.on_run_end(end, pool));
    }
}

/// Deterministic per-layer counts, read from the event stream of a
/// traced run (attached untimed, so its cost is tracing overhead).
#[derive(Debug, Default)]
pub struct LayerCounts {
    pub events: u64,
    pub cold_starts: u64,
    pub demand_loads: u64,
    pub policy_loads: u64,
    pub policy_evictions: u64,
    pub capacity_evictions: u64,
    /// Policy loads that served at least one warm start before eviction.
    pub prewarm_hits: u64,
    pub slots: u64,
    pub loaded_sum: u64,
    active_in_slot: u64,
    pub active_sum: u64,
    prewarmed: Vec<bool>,
}

impl LayerCounts {
    pub fn new(n_functions: usize) -> Self {
        Self {
            prewarmed: vec![false; n_functions],
            ..Self::default()
        }
    }
}

impl Observer for LayerCounts {
    fn on_event(&mut self, ctx: &EventCtx<'_>, event: &SimEvent) {
        self.events += 1;
        match *event {
            SimEvent::ColdStart { .. } => {
                self.cold_starts += 1;
                self.active_in_slot += 1;
            }
            SimEvent::WarmStart { f, .. } => {
                self.active_in_slot += 1;
                if std::mem::take(&mut self.prewarmed[f.index()]) {
                    self.prewarm_hits += 1;
                }
            }
            SimEvent::Load { f, cause } => match cause {
                spes_sim::LoadCause::Demand => self.demand_loads += 1,
                spes_sim::LoadCause::Policy => {
                    self.policy_loads += 1;
                    self.prewarmed[f.index()] = true;
                }
            },
            SimEvent::Evict { f, cause } => {
                self.prewarmed[f.index()] = false;
                match cause {
                    spes_sim::EvictCause::Capacity => self.capacity_evictions += 1,
                    spes_sim::EvictCause::Policy => self.policy_evictions += 1,
                }
            }
            SimEvent::LoadRejected { .. } => {}
            SimEvent::SlotEnd { .. } => {
                self.slots += 1;
                self.loaded_sum += ctx.pool.loaded_count() as u64;
                self.active_sum += std::mem::take(&mut self.active_in_slot);
            }
        }
    }
}

/// The client's view of a slot's close: when `serve` was handed the line
/// that closes it. Shared between the reader and the record sink.
pub type CloseClock = Rc<Cell<Option<Instant>>>;

/// `BufRead` over pre-rendered protocol bytes. Stamps the close clock
/// when the line ending at each offset in `closes` is handed over.
pub struct LineFeed<'a> {
    data: &'a [u8],
    pos: usize,
    closes: &'a [usize],
    next_close: usize,
    clock: CloseClock,
    pub lines: u64,
}

impl<'a> LineFeed<'a> {
    pub fn new(data: &'a [u8], closes: &'a [usize], clock: CloseClock) -> Self {
        Self {
            data,
            pos: 0,
            closes,
            next_close: 0,
            clock,
            lines: 0,
        }
    }

    pub fn bytes(&self) -> usize {
        self.pos
    }
}

impl Read for LineFeed<'_> {
    fn read(&mut self, buf: &mut [u8]) -> std::io::Result<usize> {
        let n = buf.len().min(self.data.len() - self.pos);
        buf[..n].copy_from_slice(&self.data[self.pos..self.pos + n]);
        self.consume(n);
        Ok(n)
    }
}

impl BufRead for LineFeed<'_> {
    fn fill_buf(&mut self) -> std::io::Result<&[u8]> {
        Ok(&self.data[self.pos..])
    }

    fn consume(&mut self, amt: usize) {
        self.pos += amt;
        if amt > 0 && self.data[self.pos - 1] == b'\n' {
            self.lines += 1;
        }
        while self
            .closes
            .get(self.next_close)
            .is_some_and(|&end| end <= self.pos)
        {
            self.clock.set(Some(Instant::now()));
            self.next_close += 1;
        }
    }
}

/// `Write` end of `serve`: splits the output into records, times each
/// `slot` record against the close clock, and counts what arrives.
pub struct RecordSink {
    clock: CloseClock,
    line: Vec<u8>,
    time_writes: bool,
    pub write_ns: u64,
    pub bytes: u64,
    pub records: u64,
    pub error_records: u64,
    pub slot_records: u64,
    /// Slot records that arrived out of slot order or without a close.
    pub misordered: u64,
    last_slot: Option<Slot>,
    pub latencies_us: Vec<f64>,
}

const SLOT_PREFIX: &[u8] = b"{\"type\":\"slot\",\"slot\":";
const ERROR_PREFIX: &[u8] = b"{\"type\":\"error\"";

impl RecordSink {
    pub fn new(clock: CloseClock, time_writes: bool) -> Self {
        Self {
            clock,
            line: Vec::with_capacity(1 << 12),
            time_writes,
            write_ns: 0,
            bytes: 0,
            records: 0,
            error_records: 0,
            slot_records: 0,
            misordered: 0,
            last_slot: None,
            latencies_us: Vec::new(),
        }
    }

    fn record_done(&mut self) {
        self.records += 1;
        if let Some(rest) = self.line.strip_prefix(SLOT_PREFIX) {
            let received = Instant::now();
            self.slot_records += 1;
            let digits = rest.iter().take_while(|b| b.is_ascii_digit()).count();
            let slot = std::str::from_utf8(&rest[..digits])
                .ok()
                .and_then(|s| s.parse::<Slot>().ok());
            match (slot, self.clock.get()) {
                (Some(slot), Some(closed)) if self.last_slot.is_none_or(|last| slot > last) => {
                    self.last_slot = Some(slot);
                    self.latencies_us
                        .push(received.duration_since(closed).as_secs_f64() * 1e6);
                }
                _ => self.misordered += 1,
            }
        } else if self.line.starts_with(ERROR_PREFIX) {
            self.error_records += 1;
        }
        self.line.clear();
    }
}

impl Write for RecordSink {
    fn write(&mut self, buf: &[u8]) -> std::io::Result<usize> {
        let begin = self.time_writes.then(Instant::now);
        self.bytes += buf.len() as u64;
        let mut rest = buf;
        while let Some(i) = rest.iter().position(|&b| b == b'\n') {
            self.line.extend_from_slice(&rest[..i]);
            self.record_done();
            rest = &rest[i + 1..];
        }
        self.line.extend_from_slice(rest);
        if let Some(begin) = begin {
            self.write_ns += begin.elapsed().as_nanos() as u64;
        }
        Ok(buf.len())
    }

    fn flush(&mut self) -> std::io::Result<()> {
        Ok(())
    }
}
