//! `pipebench` — the whole-pipeline benchmark of the SPES reproduction.
//!
//! ```text
//! pipebench --workload <spes-paper|scale-fixed|serve-journal> --seed <n> --seconds <s> --trace <0|1>
//! ```
//!
//! Repeats the workload (closed loop, one in-process client) until
//! `--seconds` have passed, checks every iteration's outputs, prints each
//! metric by name with its unit and sample count, and ends with one JSON
//! line: the end-to-end metrics with `--trace 0`, the per-layer metrics
//! (from traced iterations alternated with untraced ones) with
//! `--trace 1`. Exits non-zero when any check fails. See `README.md`.

mod layers;
mod workloads;

use layers::Tracer;
use std::collections::BTreeMap;
use std::panic::AssertUnwindSafe;
use std::path::Path;
use std::process::ExitCode;
use std::time::Instant;
use workloads::{Iteration, Ops, WORKLOADS};

/// Gated end-to-end metrics: the result line of `--trace 0`.
const END_TO_END: [(&str, &str); 6] = [
    ("run_s", "s"),
    ("setup_s", "s"),
    ("ns_per_event", "ns"),
    ("slot_p50_us", "us"),
    ("peak_rss_mb", "MiB"),
    ("wasted_mem_min", "instance-min"),
];

/// End-to-end metrics that are printed with the gated ones but carried in
/// the per-layer result, because they cannot be held to a bound: see
/// `README.md`.
const UNGATED: [(&str, &str); 4] = [
    ("csr_p75", "ratio"),
    ("slot_p99_us", "us"),
    ("slot_p999_us", "us"),
    ("failed_frac", "ratio"),
];

/// Per-layer metrics, reported by the traced run.
pub const PER_LAYER: [(&str, &str); 50] = [
    ("synth.s", "s"),
    ("synth.events", "count"),
    ("csr.s", "s"),
    ("fit.s", "s"),
    ("fit.categorize_s", "s"),
    ("fit.links_s", "s"),
    ("fit.correlated", "count"),
    ("fit.unseen", "count"),
    ("fit.recovered_by_forgetting", "count"),
    ("hook.s", "s"),
    ("hook.ns_per_event", "ns"),
    ("hook.share", "ratio"),
    ("hook.policy_loads", "count"),
    ("hook.policy_evictions", "count"),
    ("hook.adjustments", "count"),
    ("hook.online_categorized", "count"),
    ("hook.prewarm_hit_ratio", "ratio"),
    ("engine.step_s", "s"),
    ("engine.self_s", "s"),
    ("engine.ns_per_event", "ns"),
    ("engine.cold_starts", "count"),
    ("engine.demand_loads", "count"),
    ("engine.capacity_evictions", "count"),
    ("pool.mean_loaded", "count"),
    ("pool.mean_active", "count"),
    ("pool.loaded_per_active", "ratio"),
    ("observers.s", "s"),
    ("observers.events", "count"),
    ("serve.s", "s"),
    ("serve.lines_in", "count"),
    ("serve.bytes_in", "bytes"),
    ("serve.records_out", "count"),
    ("serve.bytes_out", "bytes"),
    ("serve.rejected_lines", "count"),
    ("serve.write_s", "s"),
    ("serve.protocol_s", "s"),
    ("serve.protocol_ns_per_line", "ns"),
    ("journal.encode_s", "s"),
    ("journal.decode_s", "s"),
    ("journal.events", "count"),
    ("journal.bytes", "bytes"),
    ("journal.bytes_per_event", "bytes"),
    ("report.s", "s"),
    ("tracing.overhead_frac", "ratio"),
    ("csr_p75", "ratio"),
    ("slot_p99_us", "us"),
    ("slot_p999_us", "us"),
    ("failed_frac", "ratio"),
    ("slot.samples", "count"),
    ("iterations", "count"),
];

/// Generator seed of iteration `i`'s trace: a run cycles through
/// `traces` traces of its seed.
fn trace_seed(seed: u64, i: usize, traces: usize) -> u64 {
    seed.wrapping_mul(1000).wrapping_add((i % traces) as u64)
}

const USAGE: &str =
    "usage: pipebench --workload <spes-paper|scale-fixed|serve-journal> --seed <n> --seconds <s> --trace <0|1>";

struct Args {
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut it = std::env::args().skip(1);
    while let Some(flag) = it.next() {
        let value = it.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--workload" => {
                if !WORKLOADS.contains(&value.as_str()) {
                    return Err(format!(
                        "unknown workload {value:?}; known: {}",
                        WORKLOADS.join(", ")
                    ));
                }
                workload = Some(value);
            }
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => {
                let s: f64 = value.parse().map_err(|e| format!("--seconds: {e}"))?;
                if !(s.is_finite() && s > 0.0) {
                    return Err("--seconds must be positive".to_owned());
                }
                seconds = Some(s);
            }
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".to_owned()),
                });
            }
            other => return Err(format!("unknown flag {other:?}")),
        }
    }
    Ok(Args {
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds: seconds.ok_or("--seconds is required")?,
        trace: trace.ok_or("--trace is required")?,
    })
}

fn median(values: &[f64]) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let n = sorted.len();
    match n {
        0 => 0.0,
        _ if n % 2 == 1 => sorted[n / 2],
        _ => (sorted[n / 2 - 1] + sorted[n / 2]) / 2.0,
    }
}

/// Nearest-rank percentile of `values` (`q` in [0, 1]).
fn percentile(values: &[f64], q: f64) -> f64 {
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = ((q * sorted.len() as f64).ceil() as usize).clamp(1, sorted.len().max(1));
    sorted.get(rank - 1).copied().unwrap_or(0.0)
}

/// Peak resident set of this process (`VmHWM`), in MiB.
fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|line| line.strip_prefix("VmHWM:"))
                .and_then(|rest| {
                    rest.trim()
                        .trim_end_matches("kB")
                        .trim()
                        .parse::<f64>()
                        .ok()
                })
        })
        .map_or(0.0, |kib| kib / 1024.0)
}

/// One user-facing metric of the untraced iterations.
struct Reported {
    name: &'static str,
    unit: &'static str,
    value: f64,
    note: String,
}

/// Every end-to-end metric, gated or not, from the untraced iterations:
/// host times are medians over iterations, the simulated metrics (exact
/// per trace) means over the run's distinct traces.
fn user_metrics(plain: &[Iteration], peaks: &[f64], traces: usize, ops: &Ops) -> Vec<Reported> {
    let distinct = &plain[..traces.min(plain.len())];
    let samples = plain
        .iter()
        .map(|it| it.latencies_us.len())
        .min()
        .unwrap_or(0);
    let tail = |q: f64| samples - (q * samples as f64).ceil() as usize;
    let median_of = |values: Vec<f64>, note: &str| {
        let lo = values.iter().copied().fold(f64::INFINITY, f64::min);
        let hi = values.iter().copied().fold(f64::NEG_INFINITY, f64::max);
        let note = format!(
            "median of {} iterations, range {lo:.6} .. {hi:.6}{note}",
            values.len()
        );
        (median(&values), note)
    };
    let per_iteration =
        |f: &dyn Fn(&Iteration) -> f64, note: &str| median_of(plain.iter().map(f).collect(), note);
    let per_trace = |f: &dyn Fn(&Iteration) -> f64| {
        let values: Vec<f64> = distinct.iter().map(f).collect();
        let mean = values.iter().sum::<f64>() / values.len().max(1) as f64;
        (
            mean,
            format!("mean over {} traces: {values:?}", values.len()),
        )
    };
    let latency = |q: f64| {
        per_iteration(
            &|it| percentile(&it.latencies_us, q),
            &format!("; {samples} slots per iteration, {} beyond", tail(q)),
        )
    };
    let rows = [
        ("run_s", "s", per_iteration(&|it| it.run_s, "")),
        ("setup_s", "s", per_iteration(&|it| it.setup_s, "")),
        (
            "ns_per_event",
            "ns",
            per_iteration(&|it| it.simulate_s * 1e9 / it.events.max(1) as f64, ""),
        ),
        ("slot_p50_us", "us", latency(0.5)),
        ("slot_p99_us", "us", latency(0.99)),
        ("slot_p999_us", "us", latency(0.999)),
        (
            "peak_rss_mb",
            "MiB",
            (
                peaks.first().copied().unwrap_or(0.0),
                "VmHWM after the first iteration, which starts from a fresh heap".to_owned(),
            ),
        ),
        (
            "csr_p75",
            "ratio",
            per_trace(&|it| it.run.csr_percentile(75.0).unwrap_or(0.0)),
        ),
        (
            "wasted_mem_min",
            "instance-min",
            per_trace(&|it| it.run.total_wmt() as f64),
        ),
        (
            "failed_frac",
            "ratio",
            (
                ops.failed as f64 / ops.attempted.max(1) as f64,
                format!("{} failed of {} attempted", ops.failed, ops.attempted),
            ),
        ),
    ];
    rows.into_iter()
        .map(|(name, unit, (value, note))| Reported {
            name,
            unit,
            value,
            note,
        })
        .collect()
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "0".to_owned()
    }
}

fn main() -> ExitCode {
    let args = match parse_args() {
        Ok(args) => args,
        Err(e) => {
            eprintln!("error: {e}\n{USAGE}");
            return ExitCode::from(2);
        }
    };
    let out_dir = Path::new(env!("CARGO_MANIFEST_DIR")).join("out");
    if let Err(e) = std::fs::create_dir_all(&out_dir) {
        eprintln!("error: cannot create {}: {e}", out_dir.display());
        return ExitCode::from(2);
    }

    if layers::thread_cpu_s().is_none() {
        eprintln!(
            "error: /proc/thread-self/schedstat is unreadable; pipebench times host CPU with it"
        );
        return ExitCode::from(2);
    }

    let traces = workloads::traces_per_run(&args.workload);
    let mut ops = Ops::default();
    let started = Instant::now();
    let mut plain: Vec<Iteration> = Vec::new();
    let mut peaks: Vec<f64> = Vec::new();
    let mut walls: Vec<f64> = Vec::new();
    let mut traced: Vec<Iteration> = Vec::new();
    let mut last_tracer = None;
    // The untraced run covers every trace of the run at least once; the
    // traced run alternates with it for as long as time allows. A panic
    // in the program ends the run as a failed operation.
    let min_iterations = if args.trace { 1 } else { traces };
    while plain.len() < min_iterations || started.elapsed().as_secs_f64() < args.seconds {
        let i = plain.len();
        let seed = trace_seed(args.seed, i, traces);
        let tracer = args.trace.then(Tracer::shared);
        let outcome = std::panic::catch_unwind(AssertUnwindSafe(|| {
            let wall = Instant::now();
            let it = workloads::run(&args.workload, seed, None, &out_dir, &mut ops);
            walls.push(wall.elapsed().as_secs_f64());
            peaks.push(peak_rss_mb());
            let traced_it = tracer
                .clone()
                .map(|t| workloads::run(&args.workload, seed, Some(t), &out_dir, &mut ops));
            (it, traced_it)
        }));
        match outcome {
            Ok((it, traced_it)) => {
                plain.push(it);
                traced.extend(traced_it);
                last_tracer = tracer.or(last_tracer);
            }
            Err(panic) => {
                let message = panic
                    .downcast_ref::<String>()
                    .map(String::as_str)
                    .or_else(|| panic.downcast_ref::<&str>().copied())
                    .unwrap_or("non-string panic payload");
                ops.fail(format!(
                    "iteration {i} (trace seed {seed}) panicked: {message}"
                ));
                break;
            }
        }
    }

    // A trace simulates to the same result every time, traced or not.
    for (i, it) in plain.iter().enumerate().skip(traces) {
        ops.check(it.run == plain[i - traces].run, || {
            format!("untraced iteration {i} differs from its trace's first run")
        });
    }
    for (i, (it, untraced)) in traced.iter().zip(&plain).enumerate() {
        ops.check(it.run == untraced.run, || {
            format!("traced iteration {i} differs from the untraced run of its trace")
        });
    }

    println!(
        "pipebench {} seed={} iterations={} traced={} traces={traces} ({:.1} s)",
        args.workload,
        args.seed,
        plain.len(),
        traced.len(),
        started.elapsed().as_secs_f64()
    );
    let user = user_metrics(&plain, &peaks, traces, &ops);
    let user_value = |name: &str| {
        user.iter()
            .find(|r| r.name == name)
            .map_or(0.0, |r| r.value)
    };
    let mut metrics: Vec<(&str, &str, f64)> = Vec::new();
    if args.trace {
        let mut layers: BTreeMap<&str, Vec<f64>> = BTreeMap::new();
        for it in &traced {
            for (&name, &value) in &it.layers {
                layers.entry(name).or_default().push(value);
            }
        }
        let run_s = |its: &[Iteration]| median(&its.iter().map(|it| it.run_s).collect::<Vec<_>>());
        for (name, unit) in PER_LAYER {
            let value = match name {
                "tracing.overhead_frac" => run_s(&traced) / run_s(&plain) - 1.0,
                "slot.samples" => plain
                    .iter()
                    .map(|it| it.latencies_us.len())
                    .min()
                    .unwrap_or(0) as f64,
                "iterations" => traced.len() as f64,
                _ if UNGATED.iter().any(|(n, _)| *n == name) => user_value(name),
                _ => layers.get(name).map_or(0.0, |values| median(values)),
            };
            metrics.push((name, unit, value));
        }
        for (name, unit, value) in &metrics {
            println!("  {name:<28} {value:>16.6} {unit}");
        }
        if let Some(tracer) = &last_tracer {
            let path = out_dir.join(format!("spans-{}-seed{}.jsonl", args.workload, args.seed));
            let written = std::fs::File::create(&path).and_then(|file| {
                let mut out = std::io::BufWriter::new(file);
                tracer.borrow().write_jsonl(&mut out)?;
                std::io::Write::flush(&mut out)
            });
            match written {
                Ok(()) => println!("  spans of the last traced iteration: {}", path.display()),
                Err(e) => ops.fail(format!("writing spans to {}: {e}", path.display())),
            }
        }
    } else {
        for (i, it) in plain.iter().enumerate() {
            println!(
                "  iteration {i}: wall_s={:.3} vm_hwm_mb={:.3} run_s={:.6} setup_s={:.6} ns_per_event={:.3} slot_p50_us={:.3} slot_p99_us={:.3} slot_p999_us={:.3}",
                walls[i],
                peaks[i],
                it.run_s,
                it.setup_s,
                it.simulate_s * 1e9 / it.events.max(1) as f64,
                percentile(&it.latencies_us, 0.5),
                percentile(&it.latencies_us, 0.99),
                percentile(&it.latencies_us, 0.999),
            );
        }
        for r in &user {
            let gated = if END_TO_END.iter().any(|(n, _)| *n == r.name) {
                ""
            } else {
                "; not gated, in the --trace 1 result"
            };
            println!(
                "  {:<16} {:>16.6} {}  ({}{gated})",
                r.name, r.value, r.unit, r.note
            );
        }
        metrics = END_TO_END
            .iter()
            .map(|&(name, unit)| (name, unit, user_value(name)))
            .collect();
    }
    for failure in &ops.failures {
        println!("  FAILED: {failure}");
    }

    let correct = ops.failed == 0;
    let body: Vec<String> = metrics
        .iter()
        .map(|(name, unit, value)| {
            format!(
                "\"{name}\": {{\"value\": {}, \"unit\": \"{unit}\"}}",
                json_number(*value)
            )
        })
        .collect();
    println!(
        "{{\"correct\": {correct}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        ops.attempted,
        ops.failed,
        body.join(", ")
    );
    if correct {
        ExitCode::SUCCESS
    } else {
        ExitCode::FAILURE
    }
}
