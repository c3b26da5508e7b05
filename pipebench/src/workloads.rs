//! The three workloads. Each iteration builds its inputs from the seed,
//! runs the pipeline through the program's public API, checks the
//! outputs, and returns its end-to-end timings — plus, on a traced run,
//! the per-layer numbers.

use crate::layers::{
    cpu_now, CloseClock, LayerCounts, LineFeed, Probe, RecordSink, SharedTracer, TimedObservers,
    TimedPolicy, Tracer,
};
use spes_baselines::FixedKeepAlive;
use spes_core::categorize::categorize_deterministic;
use spes_core::forgetting::forget_and_recheck;
use spes_core::{SpesConfig, SpesFactory, SpesPolicy};
use spes_sim::{
    per_category_stats, serve, text_table, DynObserver, EvictionAudit, Fairness, FitContext,
    JournalEvent, JournalMeta, JournalReader, JournalWriter, MemoryPressure, Policy, PolicySpec,
    RunResult, ServeConfig, SimConfig, SimDriver, SimEvent, SlotOutcome, SlotSeries,
    PREMATURE_RELOAD_WINDOW,
};
use spes_trace::{synth, AppId, FunctionId, Slot, SlotBatches, SynthConfig, SynthStream, Trace};
use std::collections::BTreeMap;
use std::hint::black_box;
use std::path::Path;
use std::time::Instant;

/// The workloads, by command-line name.
pub const WORKLOADS: [&str; 3] = ["spes-paper", "scale-fixed", "serve-journal"];

/// Distinct traces one run of `workload` covers. A 2,000-function trace's
/// event count varies by ~20% between seeds, a 50,000-function one's by
/// ~1%, so the small workloads spread each run over several traces.
pub fn traces_per_run(workload: &str) -> usize {
    if workload == "scale-fixed" {
        1
    } else {
        6
    }
}

/// Population of `spes-paper` and `serve-journal`.
const PAPER_FUNCTIONS: usize = 2_000;
/// Population of `scale-fixed`.
const SCALE_FUNCTIONS: usize = 50_000;

/// Operations attempted and failed, with the failures' descriptions.
#[derive(Debug, Default)]
pub struct Ops {
    pub attempted: u64,
    pub failed: u64,
    pub failures: Vec<String>,
}

impl Ops {
    /// Counts `n` operations that succeeded.
    pub fn done(&mut self, n: u64) {
        self.attempted += n;
    }

    /// Counts one failed operation.
    pub fn fail(&mut self, what: String) {
        self.attempted += 1;
        self.failed += 1;
        if self.failures.len() < 32 {
            self.failures.push(what);
        }
    }

    /// Counts one correctness check.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        if ok {
            self.done(1);
        } else {
            self.fail(what());
        }
    }
}

/// What one iteration of a workload measured.
#[derive(Debug)]
pub struct Iteration {
    /// CPU seconds of setup + simulate/serve + report (+ journal read-back).
    pub run_s: f64,
    /// CPU seconds of generation + CSR build + fit.
    pub setup_s: f64,
    /// CPU seconds of the simulate phase (`serve()` on `serve-journal`).
    pub simulate_s: f64,
    /// Invocation events (batch entries) the simulate phase consumed.
    pub events: u64,
    /// Per-slot latency samples, microseconds.
    pub latencies_us: Vec<f64>,
    /// The simulated result, with the wall-clock `overhead_secs` zeroed.
    pub run: RunResult,
    /// Per-layer metrics (traced iterations only).
    pub layers: BTreeMap<&'static str, f64>,
}

/// Runs one iteration of `workload`. A `Some` tracer makes it the traced
/// run.
pub fn run(
    workload: &str,
    seed: u64,
    tracer: Option<SharedTracer>,
    out_dir: &Path,
    ops: &mut Ops,
) -> Iteration {
    let probe = tracer.map_or_else(Probe::default, Probe::traced);
    match workload {
        "spes-paper" => spes_paper(seed, &probe, ops),
        "scale-fixed" => scale_fixed(seed, &probe, ops),
        "serve-journal" => serve_journal(seed, &probe, out_dir, ops),
        other => unreachable!("workload {other:?} was validated by the caller"),
    }
}

fn config_of(scenario: &str, n_functions: usize, seed: u64) -> SynthConfig {
    let mut cfg = synth::scenario_config(scenario).expect("scenario is registered");
    cfg.n_functions = n_functions;
    cfg.seed = seed;
    cfg
}

/// `RunResult` minus its wall-clock field, for exact comparisons.
fn normalised(mut run: RunResult) -> RunResult {
    run.overhead_secs = 0.0;
    run
}

/// Invocations of `trace` in `[start, end)`, summed from its series.
fn trace_invocations(trace: &Trace, start: Slot, end: Slot) -> u64 {
    trace
        .function_ids()
        .flat_map(|f| trace.series_of(f).events_in(start, end))
        .map(|&(_, count)| u64::from(count))
        .sum()
}

/// Events the engine emitted during one step (every kind, `SlotEnd`
/// included).
fn events_of(outcome: &SlotOutcome<'_>) -> u64 {
    u64::from(outcome.cold_starts)
        + u64::from(outcome.warm_starts)
        + (outcome.demand_loads.len()
            + outcome.policy_loads.len()
            + outcome.policy_evictions.len()
            + outcome.capacity_evictions.len()
            + outcome.rejected_loads.len()) as u64
        + 1
}

/// Steps `driver` through `[0, n_slots)`, timing every step. Returns the
/// per-step latencies (µs) and the number of events emitted.
fn drive<'b>(
    driver: &mut SimDriver<'_, '_>,
    n_slots: Slot,
    batch: impl Fn(Slot) -> &'b [(FunctionId, u32)],
    probe: &Probe,
    ops: &mut Ops,
) -> (Vec<f64>, u64) {
    let mut latencies = Vec::with_capacity(n_slots as usize);
    let mut emitted = 0u64;
    for slot in 0..n_slots {
        let invoked = batch(slot);
        let span = probe.enter("engine.step", Some(slot));
        let begin = Instant::now();
        let stepped = driver
            .step(slot, invoked)
            .map(|outcome| events_of(&outcome));
        latencies.push(begin.elapsed().as_secs_f64() * 1e6);
        probe.exit(span);
        match stepped {
            Ok(events) => {
                emitted += events;
                ops.done(1);
            }
            Err(e) => ops.fail(format!("step {slot}: {e}")),
        }
    }
    (latencies, emitted)
}

/// The observer set as attached: as is, or — on a traced run — timed as
/// one group (when there is anything to time), with the untimed layer
/// counters beside it.
fn observed(
    observers: Vec<Box<dyn DynObserver>>,
    n_functions: usize,
    tracer: Option<&SharedTracer>,
) -> Vec<Box<dyn DynObserver>> {
    let Some(t) = tracer else {
        return observers;
    };
    let mut attached: Vec<Box<dyn DynObserver>> = Vec::new();
    if !observers.is_empty() {
        attached.push(Box::new(TimedObservers::new(observers, t.clone())));
    }
    attached.push(Box::new(LayerCounts::new(n_functions)));
    attached
}

/// Wraps `policy` for timing on a traced run.
fn hooked(policy: Box<dyn Policy>, tracer: Option<&SharedTracer>) -> Box<dyn Policy> {
    match tracer {
        Some(t) => Box::new(TimedPolicy::new(policy, t.clone())),
        None => policy,
    }
}

/// The run's report: the paper's headline numbers plus the accessors a
/// report renders (Fig. 8 CDF, Fig. 9 fractions, per-category table).
fn report(run: &RunResult, policy: Option<&dyn Policy>) -> (f64, u64) {
    let csr_p75 = run.csr_percentile(75.0).unwrap_or(0.0);
    let wmt = run.total_wmt();
    let cdf = run.csr_cdf(&[0.0, 0.05, 0.1, 0.2, 0.3, 0.5, 0.75, 1.0]);
    let categories = per_category_stats(run, |f| policy?.category_of(FunctionId(f as u32)));
    let mut rows: Vec<Vec<String>> = categories
        .iter()
        .map(|(label, s)| {
            vec![
                (*label).to_owned(),
                s.functions.to_string(),
                format!("{:.4}", s.mean_csr),
                format!("{:.4}", s.mean_wmt_ratio),
            ]
        })
        .collect();
    rows.push(vec![
        "all".to_owned(),
        run.csr_values().len().to_string(),
        format!("{:.4}", run.warm_function_fraction()),
        format!("{:.4}", run.always_cold_fraction()),
    ]);
    let table = text_table(&["category", "functions", "csr", "wmt_ratio"], &rows);
    black_box((&cdf, run.mean_loaded(), run.emcr(), &table));
    (csr_p75, wmt)
}

/// Nanoseconds per invocation event.
fn per_event_ns(secs: f64, events: u64) -> f64 {
    secs * 1e9 / events.max(1) as f64
}

/// Per-layer metrics every workload reports; layers a workload does not
/// exercise stay 0.
fn empty_layers() -> BTreeMap<&'static str, f64> {
    crate::PER_LAYER
        .iter()
        .map(|(name, _)| (*name, 0.0))
        .collect()
}

/// Engine, hook and observer layers of one driven run, from its tracer
/// and counts.
fn engine_layers(
    layers: &mut BTreeMap<&'static str, f64>,
    tracer: &SharedTracer,
    counts: &LayerCounts,
    events: u64,
) {
    let t = tracer.borrow();
    let simulate_s = t.total_s("simulate");
    let hook_s =
        t.total_s("hook.on_start") + t.total_s("hook.on_slot") + t.total_s("hook.pick_victim");
    let observers = t.callbacks;
    let step_s = t.total_s("engine.step");
    let self_s = t.self_s("engine.step");
    let slots = counts.slots.max(1) as f64;
    let mean_loaded = counts.loaded_sum as f64 / slots;
    let mean_active = counts.active_sum as f64 / slots;
    for (name, value) in [
        ("hook.s", hook_s),
        ("hook.ns_per_event", per_event_ns(hook_s, events)),
        ("hook.share", hook_s / simulate_s.max(f64::MIN_POSITIVE)),
        ("hook.policy_loads", counts.policy_loads as f64),
        ("hook.policy_evictions", counts.policy_evictions as f64),
        (
            "hook.prewarm_hit_ratio",
            counts.prewarm_hits as f64 / counts.policy_loads.max(1) as f64,
        ),
        ("engine.step_s", step_s),
        ("engine.self_s", self_s),
        ("engine.ns_per_event", per_event_ns(self_s, events)),
        ("engine.cold_starts", counts.cold_starts as f64),
        ("engine.demand_loads", counts.demand_loads as f64),
        (
            "engine.capacity_evictions",
            counts.capacity_evictions as f64,
        ),
        ("pool.mean_loaded", mean_loaded),
        ("pool.mean_active", mean_active),
        (
            "pool.loaded_per_active",
            mean_loaded / mean_active.max(f64::MIN_POSITIVE),
        ),
        ("observers.s", observers.ns as f64 * 1e-9),
        ("observers.events", counts.events as f64),
    ] {
        layers.insert(name, value);
    }
}

// ---------------------------------------------------------------------
// spes-paper: SPES fitted and run on the paper's shape
// ---------------------------------------------------------------------

fn spes_paper(seed: u64, probe: &Probe, ops: &mut Ops) -> Iteration {
    let tracer = probe.tracer();
    let begin = cpu_now();
    let workload = probe.enter("workload", None);
    let cfg = config_of("paper-default", PAPER_FUNCTIONS, seed);
    let ((data, batches, policy), setup_s) = probe.time("setup", || {
        let (data, _) = probe.time("synth", || synth::generate(&cfg));
        let trace = &data.trace;
        let (batches, _) = probe.time("csr", || trace.slot_batches(0, trace.n_slots));
        let (policy, _) = probe.time("fit", || {
            PolicySpec::new(SpesFactory::default()).build(&FitContext {
                trace,
                train_start: 0,
                train_end: data.train_end,
                prior: &[],
            })
        });
        (data, batches, policy)
    });
    let trace = &data.trace;
    let n_slots = trace.n_slots;

    // The observer set `run_suite` attaches (its `RunCollector` is the
    // driver's own).
    let suite: Vec<Box<dyn DynObserver>> = vec![
        Box::new(SlotSeries::new()),
        Box::new(EvictionAudit::new(PREMATURE_RELOAD_WINDOW)),
        Box::new(Fairness::from_trace(trace)),
        Box::new(MemoryPressure::new()),
    ];
    let observers = observed(suite, trace.n_functions(), tracer);
    let mut policy = hooked(policy, tracer);
    let window = SimConfig::new(0, n_slots).with_metrics_start(data.train_end);
    let ((latencies, run, mut observers), simulate_s) = probe.time("simulate", || {
        let mut driver = SimDriver::new(trace.n_functions(), window, policy.as_mut(), observers)
            .expect("the trace window is valid");
        let (latencies, _) = drive(&mut driver, n_slots, |t| batches.batch(t), probe, ops);
        let (run, observers) = driver.finish_with_observers();
        (latencies, run, observers)
    });
    let ((csr_p75, wmt), _) = probe.time("report", || report(&run, Some(policy.as_ref())));
    probe.exit(workload);
    let run_s = cpu_now() - begin;
    black_box((csr_p75, wmt));

    let events = batches.n_events() as u64;
    let expected = trace_invocations(trace, data.train_end, n_slots);
    ops.check(run.total_invocations() == expected, || {
        format!(
            "spes-paper: run served {} invocations, the trace holds {expected}",
            run.total_invocations()
        )
    });

    let mut layers = BTreeMap::new();
    if let Some(t) = tracer {
        layers = empty_layers();
        let spes = policy
            .as_any()
            .and_then(|a| a.downcast_ref::<SpesPolicy>())
            .expect("the spes factory builds a SpesPolicy");
        let counts: LayerCounts = observers.take().expect("attached on traced runs");
        engine_layers(&mut layers, t, &counts, events);
        let (_, categorize_s) = probe.time("fit.categorize", || {
            categorize_training(trace, data.train_end, spes.config())
        });
        let (synth_s, csr_s, fit_s, report_s) = {
            let t = t.borrow();
            (
                t.total_s("synth"),
                t.total_s("csr"),
                t.total_s("fit"),
                t.total_s("report"),
            )
        };
        let fit = spes.fit_stats();
        let online = spes.online_stats();
        for (name, value) in [
            ("synth.s", synth_s),
            ("synth.events", events as f64),
            ("csr.s", csr_s),
            ("fit.s", fit_s),
            ("fit.categorize_s", categorize_s),
            ("fit.links_s", fit_s - categorize_s),
            ("fit.correlated", fit.correlated_links as f64),
            ("fit.unseen", fit.unseen as f64),
            (
                "fit.recovered_by_forgetting",
                fit.recovered_by_forgetting as f64,
            ),
            ("hook.adjustments", online.adjustments as f64),
            ("hook.online_categorized", online.online_categorized as f64),
            ("report.s", report_s),
        ] {
            layers.insert(name, value);
        }
    }
    Iteration {
        run_s,
        setup_s,
        simulate_s,
        events,
        latencies_us: latencies,
        run: normalised(run),
        layers,
    }
}

/// Phase 1 of the SPES fit, re-run from outside through the public
/// categorisation API: deterministic categorisation of every function
/// over the training window, with the forgetting re-check on misses.
fn categorize_training(trace: &Trace, train_end: Slot, config: &SpesConfig) -> usize {
    trace
        .function_ids()
        .filter(|&f| {
            let series = trace.series_of(f);
            categorize_deterministic(series, 0, train_end, config).is_some()
                || (config.enable_forgetting
                    && forget_and_recheck(series, 0, train_end, config).is_some())
        })
        .count()
}

// ---------------------------------------------------------------------
// scale-fixed: streamed generation into a large fixed-keep-alive run
// ---------------------------------------------------------------------

fn scale_fixed(seed: u64, probe: &Probe, ops: &mut Ops) -> Iteration {
    let tracer = probe.tracer();
    let begin = cpu_now();
    let workload = probe.enter("workload", None);
    let cfg = config_of("quick", SCALE_FUNCTIONS, seed);
    let ((stream, mut policy), setup_s) = probe.time("setup", || {
        let (stream, _) = probe.time("synth", || SynthStream::build(&cfg));
        let (policy, _) = probe.time("fit", || {
            Box::new(FixedKeepAlive::paper_default(cfg.n_functions)) as Box<dyn Policy>
        });
        (stream, policy)
    });
    let stream = match stream {
        Ok(stream) => stream,
        Err(e) => panic!("scale-fixed: the quick shape always generates: {e}"),
    };
    let n_slots = stream.n_slots();
    let n_functions = stream.n_functions();
    let observers = observed(Vec::new(), n_functions, tracer);
    policy = hooked(policy, tracer);
    let window = SimConfig::new(0, n_slots).with_metrics_start(stream.train_end());
    let ((latencies, run, mut observers), simulate_s) = probe.time("simulate", || {
        let mut driver = SimDriver::new(n_functions, window, policy.as_mut(), observers)
            .expect("the stream window is valid");
        let (latencies, _) = drive(&mut driver, n_slots, |t| stream.batch(t), probe, ops);
        let (run, observers) = driver.finish_with_observers();
        (latencies, run, observers)
    });
    let ((csr_p75, wmt), _) = probe.time("report", || report(&run, Some(policy.as_ref())));
    probe.exit(workload);
    let run_s = cpu_now() - begin;
    black_box((csr_p75, wmt));

    let batches = stream.batches();
    let events = batches.n_events() as u64;
    let expected = invocations_in(batches, stream.train_end(), n_slots);
    ops.check(run.total_invocations() == expected, || {
        format!(
            "scale-fixed: run served {} invocations, the stream holds {expected}",
            run.total_invocations()
        )
    });

    let mut layers = BTreeMap::new();
    if let Some(t) = tracer {
        layers = empty_layers();
        let counts: LayerCounts = observers.take().expect("attached on traced runs");
        engine_layers(&mut layers, t, &counts, events);
        let t = t.borrow();
        // The streamed generator builds its CSR index itself, so the CSR
        // layer is inside `synth.s` here.
        for (name, value) in [
            ("synth.s", t.total_s("synth")),
            ("synth.events", events as f64),
            ("fit.s", t.total_s("fit")),
            ("report.s", t.total_s("report")),
        ] {
            layers.insert(name, value);
        }
    }
    Iteration {
        run_s,
        setup_s,
        simulate_s,
        events,
        latencies_us: latencies,
        run: normalised(run),
        layers,
    }
}

fn invocations_in(batches: &SlotBatches, start: Slot, end: Slot) -> u64 {
    (start..end)
        .flat_map(|t| batches.batch(t))
        .map(|&(_, count)| u64::from(count))
        .sum()
}

// ---------------------------------------------------------------------
// serve-journal: the line protocol with journal write-through
// ---------------------------------------------------------------------

/// Protocol bytes for a whole trace, as a client would send them: the
/// init record, one `inv` line per batch entry in slot order, and a
/// closing `tick`. Also returns the end offset of every line that closes
/// a slot (the first line of a later slot, and the final tick).
fn render_protocol(batches: &SlotBatches, apps: &[AppId], n_slots: Slot) -> (Vec<u8>, Vec<usize>) {
    use std::io::Write as _;
    let mut bytes = Vec::with_capacity(batches.n_events() * 48 + apps.len() * 6 + 64);
    let apps: Vec<String> = apps.iter().map(|a| a.0.to_string()).collect();
    writeln!(
        bytes,
        "{{\"type\":\"init\",\"functions\":{},\"apps\":[{}]}}",
        apps.len(),
        apps.join(",")
    )
    .expect("writing to a Vec cannot fail");
    let mut closes = Vec::with_capacity(n_slots as usize);
    let mut open: Slot = 0;
    for (slot, batch) in batches.iter() {
        for (i, &(f, count)) in batch.iter().enumerate() {
            writeln!(
                bytes,
                "{{\"type\":\"inv\",\"slot\":{slot},\"f\":{},\"count\":{count}}}",
                f.0
            )
            .expect("writing to a Vec cannot fail");
            if i == 0 && slot > open {
                closes.push(bytes.len());
                open = slot;
            }
        }
    }
    writeln!(bytes, "{{\"type\":\"tick\",\"slot\":{}}}", n_slots - 1)
        .expect("writing to a Vec cannot fail");
    closes.push(bytes.len());
    (bytes, closes)
}

/// serve's own observer set, for the batch replays.
fn serve_observers(apps: &[AppId]) -> Vec<Box<dyn DynObserver>> {
    vec![
        Box::new(MemoryPressure::new()),
        Box::new(Fairness::new(apps)),
        Box::new(EvictionAudit::new(PREMATURE_RELOAD_WINDOW)),
    ]
}

/// What reading the journal back found.
struct ReadBack {
    events: Vec<JournalEvent>,
    meta: Option<JournalMeta>,
    bytes: u64,
    error: Option<String>,
}

fn read_journal(path: &Path) -> ReadBack {
    let bytes = match std::fs::read(path) {
        Ok(bytes) => bytes,
        Err(e) => {
            return ReadBack {
                events: Vec::new(),
                meta: None,
                bytes: 0,
                error: Some(e.to_string()),
            }
        }
    };
    let mut back = ReadBack {
        events: Vec::new(),
        meta: None,
        bytes: bytes.len() as u64,
        error: None,
    };
    match JournalReader::new(&bytes[..]) {
        Ok(mut reader) => {
            back.meta = Some(reader.meta().clone());
            loop {
                match reader.next_event() {
                    Ok(Some(event)) => back.events.push(event),
                    Ok(None) => break,
                    Err(e) => {
                        back.error = Some(e.to_string());
                        break;
                    }
                }
            }
        }
        Err(e) => back.error = Some(e.to_string()),
    }
    back
}

fn serve_journal(seed: u64, probe: &Probe, out_dir: &Path, ops: &mut Ops) -> Iteration {
    let tracer = probe.tracer();
    let begin = cpu_now();
    let cfg = config_of("chain-heavy", PAPER_FUNCTIONS, seed);
    let ((data, batches), setup_s) = probe.time("setup", || {
        let (data, _) = probe.time("synth", || synth::generate(&cfg));
        let trace = &data.trace;
        let (batches, _) = probe.time("csr", || trace.slot_batches(0, trace.n_slots));
        (data, batches)
    });
    let trace = &data.trace;
    let n_slots = trace.n_slots;
    let apps: Vec<AppId> = trace.metas.iter().map(|m| m.app).collect();

    // The client renders its requests before the clock runs again.
    let paused = cpu_now() - begin;
    let (input, closes) = render_protocol(&batches, &apps, n_slots);
    let resumed = cpu_now();

    let journal_path = out_dir.join(format!("serve-{}.journal", std::process::id()));
    let config = ServeConfig {
        journal: Some(journal_path.clone()),
        ..ServeConfig::default()
    };
    let clock = CloseClock::default();
    let mut feed = LineFeed::new(&input, &closes, clock.clone());
    let mut sink = RecordSink::new(clock, tracer.is_some());
    let (served, serve_s) = probe.time("serve", || {
        serve(&mut feed, &mut sink, &config, |init| {
            let (policy, _) = probe.time("fit", || {
                Box::new(FixedKeepAlive::paper_default(init.functions)) as Box<dyn Policy>
            });
            Ok(hooked(policy, tracer))
        })
    });
    let summary = match served {
        Ok(summary) => summary,
        Err(e) => {
            let _ = std::fs::remove_file(&journal_path);
            ops.fail(format!("serve-journal: session failed: {e}"));
            return failed_iteration(setup_s);
        }
    };
    let ((csr_p75, wmt), _) = probe.time("report", || report(&summary.run, None));
    let (back, _) = probe.time("journal.decode", || read_journal(&journal_path));
    let run_s = paused + cpu_now() - resumed;
    black_box((csr_p75, wmt));
    // The journal is re-read below only from memory.
    let _ = std::fs::remove_file(&journal_path);

    // Protocol operations: every line handed over; rejected ones failed.
    ops.done(feed.lines - summary.rejected_lines);
    for _ in 0..summary.rejected_lines {
        ops.fail("serve-journal: a protocol line was rejected".to_owned());
    }
    ops.check(sink.error_records == summary.rejected_lines, || {
        format!(
            "serve-journal: {} error records for {} rejected lines",
            sink.error_records, summary.rejected_lines
        )
    });
    ops.check(
        sink.misordered == 0 && sink.slot_records == summary.decisions,
        || {
            format!(
                "serve-journal: {} slot records ({} out of order) for {} decisions",
                sink.slot_records, sink.misordered, summary.decisions
            )
        },
    );
    ops.done(back.events.len() as u64);
    if let Some(error) = &back.error {
        ops.fail(format!("serve-journal: journal read-back failed: {error}"));
    }

    // The batch replay of the same slots, with serve's observers.
    let ((replay_run, emitted), _) = probe.time("serve.replay", || {
        let mut policy = FixedKeepAlive::paper_default(trace.n_functions());
        let mut driver = SimDriver::new(
            trace.n_functions(),
            ServeConfig::default().sim,
            &mut policy,
            serve_observers(&apps),
        )
        .expect("the serving window is valid");
        let (_, emitted) = drive(
            &mut driver,
            n_slots,
            |t| batches.batch(t),
            &Probe::default(),
            ops,
        );
        (driver.finish(), emitted)
    });
    let run = normalised(summary.run.clone());
    ops.check(run == normalised(replay_run), || {
        "serve-journal: the served RunResult differs from the batch replay".to_owned()
    });
    ops.check(back.events.len() as u64 == emitted, || {
        format!(
            "serve-journal: journal holds {} events, the run emitted {emitted}",
            back.events.len()
        )
    });
    let journal_cold = back
        .events
        .iter()
        .filter(|e| matches!(e.event, SimEvent::ColdStart { .. }))
        .count() as u64;
    ops.check(journal_cold == run.total_cold_starts(), || {
        format!(
            "serve-journal: journal holds {journal_cold} cold starts, the run {}",
            run.total_cold_starts()
        )
    });
    let expected = trace_invocations(trace, 0, n_slots);
    ops.check(run.total_invocations() == expected, || {
        format!(
            "serve-journal: run served {} invocations, the trace holds {expected}",
            run.total_invocations()
        )
    });

    let events = batches.n_events() as u64;
    let mut layers = BTreeMap::new();
    if let Some(t) = tracer {
        layers = empty_layers();
        // Engine, hook and observer layers come from an instrumented
        // replay of the same slots: serve's own driver is internal.
        let (replay_tracer, counts) = instrumented_replay(&batches, &apps, n_slots);
        engine_layers(&mut layers, &replay_tracer, &counts, events);
        black_box(probe.time("journal.encode", || {
            let meta = back.meta.clone().expect("read back above");
            let mut writer = JournalWriter::new(Vec::new(), &meta).expect("Vec writes succeed");
            for e in &back.events {
                writer.append(e.slot, &e.event).expect("Vec writes succeed");
            }
            writer.finish().expect("Vec writes succeed").len()
        }));
        let t = t.borrow();
        let serve_s = t.total_s("serve");
        let encode_s = t.total_s("journal.encode");
        let protocol_s = serve_s - t.total_s("serve.replay") - encode_s;
        for (name, value) in [
            ("synth.s", t.total_s("synth")),
            ("synth.events", events as f64),
            ("csr.s", t.total_s("csr")),
            ("fit.s", t.total_s("fit")),
            ("serve.s", serve_s),
            ("serve.lines_in", feed.lines as f64),
            ("serve.bytes_in", feed.bytes() as f64),
            ("serve.records_out", sink.records as f64),
            ("serve.bytes_out", sink.bytes as f64),
            ("serve.rejected_lines", summary.rejected_lines as f64),
            ("serve.write_s", sink.write_ns as f64 * 1e-9),
            ("serve.protocol_s", protocol_s),
            (
                "serve.protocol_ns_per_line",
                per_event_ns(protocol_s, feed.lines),
            ),
            ("journal.encode_s", encode_s),
            ("journal.decode_s", t.total_s("journal.decode")),
            ("journal.events", back.events.len() as f64),
            ("journal.bytes", back.bytes as f64),
            (
                "journal.bytes_per_event",
                back.bytes as f64 / back.events.len().max(1) as f64,
            ),
            ("report.s", t.total_s("report")),
        ] {
            layers.insert(name, value);
        }
    }
    Iteration {
        run_s,
        setup_s,
        simulate_s: serve_s,
        events,
        latencies_us: sink.latencies_us,
        run,
        layers,
    }
}

/// The instrumented batch replay behind `serve-journal`'s engine, hook
/// and observer numbers (serve's own driver is internal to it). It has
/// its own tracer, so its spans do not nest under `serve`.
fn instrumented_replay(
    batches: &SlotBatches,
    apps: &[AppId],
    n_slots: Slot,
) -> (SharedTracer, LayerCounts) {
    let tracer = Tracer::shared();
    let probe = Probe::traced(tracer.clone());
    let observers = observed(serve_observers(apps), apps.len(), Some(&tracer));
    let mut policy = hooked(
        Box::new(FixedKeepAlive::paper_default(apps.len())),
        Some(&tracer),
    );
    let mut ops = Ops::default();
    let (mut observers, _) = probe.time("simulate", || {
        let mut driver = SimDriver::new(
            apps.len(),
            ServeConfig::default().sim,
            policy.as_mut(),
            observers,
        )
        .expect("the serving window is valid");
        drive(&mut driver, n_slots, |t| batches.batch(t), &probe, &mut ops);
        driver.finish_with_observers().1
    });
    let counts = observers.take().expect("attached above");
    (tracer, counts)
}

fn failed_iteration(setup_s: f64) -> Iteration {
    Iteration {
        run_s: setup_s,
        setup_s,
        simulate_s: 0.0,
        events: 0,
        latencies_us: Vec::new(),
        run: RunResult {
            policy_name: String::new(),
            start: 0,
            end: 0,
            invocations: Vec::new(),
            cold_starts: Vec::new(),
            wmt: Vec::new(),
            loaded_integral: 0,
            emcr_sum: 0.0,
            emcr_slots: 0,
            overhead_secs: 0.0,
            peak_loaded: 0,
        },
        layers: BTreeMap::new(),
    }
}
