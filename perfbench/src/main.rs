//! `perfbench`: the loopback benchmark of the `serve` binary.
//!
//! ```text
//! perfbench --serve PATH --workload NAME --seed N --seconds S --trace 0|1
//! ```
//!
//! With `--trace 0` it starts the server (several times, for `setup_s`),
//! alternates closed-loop rounds (`throughput_rps`) with open-loop rounds
//! (`p50_ms`; the p99 goes into the record), verifies every response, and
//! prints the end-to-end metrics. With `--trace 1` it runs a shorter
//! loopback phase for the server-side counters and replays the workload
//! in-process with spans around every layer, and prints the per-layer
//! metrics. The last line of stdout is always the result object;
//! `perfbench/LAYERS.md` says what each metric measures and which
//! end-to-end metric it should move.

mod client;
mod load;
mod server;
mod stats;
mod trace;
mod workload;

use load::{Cursor, LaneStats};
use server::{metric_sum, Server};
use std::fmt::Write as _;
use std::path::{Path, PathBuf};
use std::time::{Duration, Instant};

/// Server starts per untraced run; `setup_s` is their median.
const SETUP_STARTS: usize = 25;

struct Args {
    serve: PathBuf,
    workload: String,
    seed: u64,
    seconds: f64,
    trace: bool,
}

fn parse_args() -> Result<Args, String> {
    let mut serve = None;
    let mut workload = None;
    let mut seed = None;
    let mut seconds = None;
    let mut trace = None;
    let mut args = std::env::args().skip(1);
    while let Some(flag) = args.next() {
        let value = args.next().ok_or_else(|| format!("{flag} needs a value"))?;
        match flag.as_str() {
            "--serve" => serve = Some(PathBuf::from(value)),
            "--workload" => workload = Some(value),
            "--seed" => seed = Some(value.parse().map_err(|e| format!("--seed: {e}"))?),
            "--seconds" => seconds = Some(value.parse().map_err(|e| format!("--seconds: {e}"))?),
            "--trace" => {
                trace = Some(match value.as_str() {
                    "0" => false,
                    "1" => true,
                    _ => return Err("--trace takes 0 or 1".into()),
                });
            }
            other => return Err(format!("unknown flag {other}")),
        }
    }
    let seconds: f64 = seconds.ok_or("--seconds is required")?;
    if !seconds.is_finite() || seconds <= 0.0 {
        return Err("--seconds must be a positive number".into());
    }
    Ok(Args {
        serve: serve.ok_or("--serve is required")?,
        workload: workload.ok_or("--workload is required")?,
        seed: seed.ok_or("--seed is required")?,
        seconds,
        trace: trace.ok_or("--trace is required")?,
    })
}

/// One reported metric.
struct Metric {
    name: &'static str,
    value: f64,
    unit: &'static str,
}

impl Metric {
    fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Metric { name, value, unit }
    }
}

/// What a run prints and records.
struct Outcome {
    correct: bool,
    attempted: u64,
    failed: u64,
    metrics: Vec<Metric>,
    /// Extra facts recorded next to the result (JSON object members).
    details: Vec<(String, String)>,
}

fn json_number(value: f64) -> String {
    if value.is_finite() {
        format!("{value}")
    } else {
        "null".to_owned()
    }
}

fn json_string(s: &str) -> String {
    serde_json::to_string(&s.to_owned()).expect("strings serialize")
}

fn host_fingerprint(lanes: usize) -> String {
    let cpu = std::fs::read_to_string("/proc/cpuinfo")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("model name"))
                .map(|v| v.trim_start_matches([' ', '\t', ':']).to_owned())
        })
        .unwrap_or_else(|| "unknown".to_owned());
    let kernel = std::fs::read_to_string("/proc/sys/kernel/osrelease")
        .map(|s| s.trim().to_owned())
        .unwrap_or_else(|_| "unknown".to_owned());
    let rustc = std::process::Command::new("rustc")
        .arg("--version")
        .output()
        .ok()
        .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
        .unwrap_or_else(|| "unknown".to_owned());
    format!(
        "{{\"nproc\":{lanes},\"cpu\":{},\"rustc\":{},\"kernel\":{}}}",
        json_string(&cpu),
        json_string(&rustc),
        json_string(&kernel)
    )
}

/// `(steal, total)` jiffies of the whole host from `/proc/stat`: time the
/// hypervisor ran something else on this machine's virtual CPUs.
fn host_cpu_ticks() -> (u64, u64) {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let fields: Vec<u64> = stat
        .lines()
        .next()
        .unwrap_or_default()
        .split_whitespace()
        .skip(1)
        .filter_map(|f| f.parse().ok())
        .collect();
    (fields.get(7).copied().unwrap_or(0), fields.iter().sum())
}

fn steal_share(before: (u64, u64), after: (u64, u64)) -> f64 {
    let total = after.1.saturating_sub(before.1);
    if total == 0 {
        0.0
    } else {
        after.0.saturating_sub(before.0) as f64 / total as f64
    }
}

fn lane_cursors(lanes: usize, jobs: bool) -> Vec<Cursor> {
    (0..lanes)
        .map(|lane| Cursor {
            lane,
            next: 0,
            jobs,
        })
        .collect()
}

/// The largest of `values` at the positions `keep` marks.
fn timed_max(values: &[f64], keep: &[bool]) -> f64 {
    values
        .iter()
        .zip(keep)
        .filter(|(_, &k)| k)
        .fold(0.0, |max, (&v, _)| max.max(v))
}

/// Runs a closed-loop phase on every lane.
fn closed_phase(
    server: &Server,
    w: &workload::Workload,
    cursors: &mut [Cursor],
    secs: f64,
) -> (LaneStats, usize) {
    let (lanes, threads) = load::on_lanes(cursors, |cursor| {
        load::closed_lane(server.addr, w, cursor, Duration::from_secs_f64(secs))
    });
    (LaneStats::merge(lanes), threads)
}

fn end_to_end(
    args: &Args,
    w: &workload::Workload,
    out: &Path,
    lanes: usize,
) -> Result<Outcome, String> {
    let mut setups = Vec::new();
    let mut server = None;
    for i in 0..SETUP_STARTS {
        let started = Server::start(
            &args.serve,
            out.join(format!("jobs-{}-{i}", std::process::id())),
        )?;
        setups.push(started.setup.as_secs_f64());
        server = Some(started);
    }
    let server = server.expect("at least one start");
    let mut cursors = lane_cursors(lanes, false);
    let warm_s = (args.seconds * 0.1).clamp(0.5, 2.0);
    let (warm, mut threads) = closed_phase(&server, w, &mut cursors, warm_s);
    // Closed and open loop alternate in short rounds. Steal time on a
    // shared host comes in bursts, and each stolen slice delays every
    // request due during it. So of the rounds made, only the segments of
    // each kind with the least steal are timed (`stats::calm`). Every
    // segment's operations still count as attempted and verified.
    let rate = workload::open_loop_rate(w.name);
    let segments = workload::segments(w.name);
    let closed_s = args.seconds * 0.3 / segments.timed as f64;
    let open_s = args.seconds * 0.7 / segments.timed as f64;
    let run_ticks = host_cpu_ticks();
    let mut closed_rounds = Vec::new();
    let mut open_rounds = Vec::new();
    let mut closed_steal = Vec::new();
    let mut open_steal = Vec::new();
    let mut closed_elapsed = Vec::new();
    for _ in 0..segments.run {
        let ticks = host_cpu_ticks();
        let began = Instant::now();
        let (closed, closed_threads) = closed_phase(&server, w, &mut cursors, closed_s);
        closed_elapsed.push(began.elapsed().as_secs_f64());
        let mid = host_cpu_ticks();
        let start = Instant::now() + Duration::from_millis(20);
        let open = load::open_loop(
            server.addr,
            w,
            &mut cursors,
            start,
            Duration::from_secs_f64(open_s),
            rate,
        );
        threads = threads.max(closed_threads).max(load::process_threads());
        closed_steal.push(steal_share(ticks, mid));
        open_steal.push(steal_share(mid, host_cpu_ticks()));
        closed_rounds.push(closed);
        open_rounds.push(open);
    }
    let steal = steal_share(run_ticks, host_cpu_ticks());
    let rss_mb = server.peak_rss_mb()?;
    let metrics_text = server.metrics()?;
    drop(server);

    let closed_calm = stats::calm(&closed_steal, segments.timed);
    let open_calm = stats::calm(&open_steal, segments.timed);
    // Verified operations over the time they took, summed over the timed
    // segments: operation costs vary a lot within `simulate_mix` and
    // `sweep_jobs`, so short windows would each see a different mix.
    let (mut timed_ops, mut timed_s) = (0usize, 0.0);
    for ((closed, elapsed), _) in closed_rounds
        .iter()
        .zip(&closed_elapsed)
        .zip(&closed_calm)
        .filter(|(_, &keep)| keep)
    {
        timed_ops += closed.completions_s.len();
        timed_s += elapsed;
    }
    let calm_open = LaneStats::merge(
        open_rounds
            .iter()
            .zip(&open_calm)
            .filter(|(_, &keep)| keep)
            .map(|(open, _)| open.clone())
            .collect(),
    );
    let segment_tails: Vec<f64> = open_rounds
        .iter()
        .zip(&open_calm)
        .filter(|(_, &keep)| keep)
        .map(|(open, _)| stats::tail(&stats::sorted(open.latencies_us.clone()), 99.0).value / 1e3)
        .collect();
    let closed = LaneStats::merge(closed_rounds);
    let open = LaneStats::merge(open_rounds);
    let throughput = timed_ops as f64 / timed_s;
    let latency = stats::pooled_latency(&calm_open.latencies_us);
    let lateness = stats::sorted(open.lateness_us.clone());
    let late_p50_ms = stats::percentile(&lateness, 50.0) / 1e3;
    let late_p99_ms = stats::percentile(&lateness, 99.0) / 1e3;
    let late_max_ms = lateness.last().copied().unwrap_or(0.0) / 1e3;
    let connections = client::peak_connections();

    let attempted = warm.attempted + closed.attempted + open.attempted;
    let failed = warm.failed + closed.failed + open.failed;
    let mismatches = warm.mismatches + closed.mismatches + open.mismatches;
    let first_error = warm.first_error.or(closed.first_error).or(open.first_error);

    // A generator that fell behind its schedule, or ran more threads or
    // connections than the host has cores, measured itself: refuse it.
    let mut invalid = Vec::new();
    if threads > lanes {
        invalid.push(format!("generator ran {threads} threads on {lanes} cores"));
    }
    if connections > lanes {
        invalid.push(format!(
            "generator held {connections} connections on {lanes} cores"
        ));
    }
    if late_p50_ms > MAX_LATE_P50_MS || late_max_ms > MAX_LATE_MS {
        invalid.push(format!(
            "generator fell behind its schedule (p50 {late_p50_ms:.3} ms, max {late_max_ms:.3} ms late)"
        ));
    }
    if !invalid.is_empty() {
        return Err(format!("run invalid: {}", invalid.join("; ")));
    }

    let error_rate = failed as f64 / attempted.max(1) as f64;
    let details = vec![
        ("error_rate".to_owned(), json_number(error_rate)),
        ("mismatches".to_owned(), mismatches.to_string()),
        (
            "first_error".to_owned(),
            first_error
                .as_deref()
                .map_or("null".to_owned(), json_string),
        ),
        ("setup_samples_s".to_owned(), format!("{setups:?}")),
        (
            "closed_ops".to_owned(),
            closed.completions_s.len().to_string(),
        ),
        ("open_ops".to_owned(), open.latencies_us.len().to_string()),
        ("open_rate_per_s".to_owned(), json_number(rate)),
        ("latency_samples".to_owned(), latency.samples.to_string()),
        ("p99_ms".to_owned(), json_number(latency.tail_us / 1e3)),
        (
            "tail_percentile".to_owned(),
            json_number(latency.tail_percentile),
        ),
        (
            "tail_samples_beyond".to_owned(),
            latency.tail_beyond.to_string(),
        ),
        ("lateness_p50_ms".to_owned(), json_number(late_p50_ms)),
        ("lateness_p99_ms".to_owned(), json_number(late_p99_ms)),
        ("lateness_max_ms".to_owned(), json_number(late_max_ms)),
        (
            "open_segment_tail_ms".to_owned(),
            format!("{segment_tails:?}"),
        ),
        ("steal_pct".to_owned(), json_number(steal * 100.0)),
        (
            "timed_steal_max_pct".to_owned(),
            format!(
                "{{\"closed\":{},\"open\":{},\"rounds\":{}}}",
                json_number(100.0 * timed_max(&closed_steal, &closed_calm)),
                json_number(100.0 * timed_max(&open_steal, &open_calm)),
                segments.run,
            ),
        ),
        ("generator_threads".to_owned(), threads.to_string()),
        ("generator_connections".to_owned(), connections.to_string()),
        (
            "server_shed".to_owned(),
            json_number(metric_sum(&metrics_text, "arrayflex_serve_shed_total", "")),
        ),
    ];
    Ok(Outcome {
        correct: mismatches == 0 && failed == 0,
        attempted,
        failed,
        metrics: vec![
            Metric::new("throughput_rps", throughput, "1/s"),
            Metric::new("p50_ms", latency.p50_us / 1e3, "ms"),
            Metric::new("rss_mb", rss_mb, "MiB"),
            Metric::new("setup_s", stats::median(&setups), "s"),
        ],
        details,
    })
}

/// Generator lateness beyond which an open-loop run is refused: a typical
/// write this late means the generator could not keep its schedule, and
/// one this late means it stalled. Single late writes from scheduler
/// hiccups on a shared host are expected; latency counts them from the
/// due time anyway.
const MAX_LATE_P50_MS: f64 = 5.0;
const MAX_LATE_MS: f64 = 1000.0;

fn per_layer(
    args: &Args,
    w: &workload::Workload,
    out: &Path,
    lanes: usize,
) -> Result<Outcome, String> {
    let server = Server::start(
        &args.serve,
        out.join(format!("jobs-{}-trace", std::process::id())),
    )?;
    let mut cursors = lane_cursors(lanes, false);
    let warm_s = (args.seconds * 0.1).clamp(0.5, 2.0);
    let (warm, _) = closed_phase(&server, w, &mut cursors, warm_s);
    let before = server.metrics()?;
    let cpu_before = server.cpu_ms()?;
    let (closed, threads) = closed_phase(&server, w, &mut cursors, (args.seconds * 0.4).max(1.0));
    let cpu_after = server.cpu_ms()?;
    let after = server.metrics()?;
    // Jobs run only here: their checkpoint path (a rewrite plus fsync per
    // point) made the end-to-end tail of `sweep_jobs` unsteady.
    let (jobs, job_threads) = if w.job_lanes.is_empty() {
        (LaneStats::default(), 0)
    } else {
        let mut job_cursors = lane_cursors(lanes, true);
        closed_phase(&server, w, &mut job_cursors, (args.seconds * 0.2).max(1.0))
    };
    drop(server);
    if threads.max(job_threads) > lanes || client::peak_connections() > lanes {
        return Err("run invalid: generator exceeded its thread or connection budget".into());
    }
    let delta = |family: &str, label: &str| {
        metric_sum(&after, family, label) - metric_sum(&before, family, label)
    };
    let plan_requests = delta("arrayflex_serve_requests_total", "route=\"/v1/plan\"");
    let memo_hit_ratio = if plan_requests > 0.0 {
        delta("arrayflex_serve_rendered_hits_total", "") / plan_requests
    } else {
        0.0
    };
    let ops = closed.completions_s.len().max(1) as f64;

    let report = trace::replay(w);
    let c = &report.counters;
    let n = c.ops.max(1) as f64;
    let us = |layer: &str| report.self_ns.get(layer).copied().unwrap_or(0) as f64 / 1e3 / n;
    let handle_p50 = stats::percentile(&stats::sorted(report.handle_us.clone()), 50.0);
    let loopback_p50 = stats::percentile(&stats::sorted(closed.latencies_us.clone()), 50.0);
    let per_s = |cycles: u64, ns: u64| {
        if ns == 0 {
            0.0
        } else {
            cycles as f64 / (ns as f64 / 1e9)
        }
    };
    let lookups = (c.cache_hits + c.cache_misses).max(1) as f64;
    let median_or_zero = |v: &[f64]| if v.is_empty() { 0.0 } else { stats::median(v) };
    let metrics = vec![
        Metric::new("conn.parse_us", us("conn.parse"), "us"),
        Metric::new("json.decode_us", us("json.decode"), "us"),
        Metric::new("json.encode_us", us("json.encode"), "us"),
        Metric::new("json.encode_bytes", c.encode_bytes as f64 / n, "bytes"),
        Metric::new("plankey.canon_us", us("plankey.canon"), "us"),
        Metric::new("plancache.probe_us", us("plancache.probe"), "us"),
        Metric::new(
            "plancache.hit_ratio",
            c.cache_hits as f64 / lookups,
            "ratio",
        ),
        Metric::new("plancache.evictions", c.cache_evictions as f64, "count"),
        Metric::new("memo.hit_ratio", memo_hit_ratio, "ratio"),
        Metric::new("planner.plan_us", us("planner.plan"), "us"),
        Metric::new("planner.calls", c.planner_calls as f64, "count"),
        Metric::new("api.handle_us", handle_p50, "us"),
        Metric::new("server.transport_us", loopback_p50 - handle_p50, "us"),
        Metric::new("sim.kernel_us", us("sim.kernel"), "us"),
        Metric::new(
            "sim.ws.cycles_per_s",
            per_s(c.cycles[0], report.kernel_ns[0]),
            "1/s",
        ),
        Metric::new(
            "sim.os.cycles_per_s",
            per_s(c.cycles[1], report.kernel_ns[1]),
            "1/s",
        ),
        Metric::new("sim.cycles", (c.cycles[0] + c.cycles[1]) as f64, "count"),
        Metric::new("sim.tiles", c.tiles as f64, "count"),
        Metric::new("gemm.reference_us", us("gemm.reference"), "us"),
        Metric::new("gemm.operands_us", us("gemm.operands"), "us"),
        Metric::new("model.predict_us", us("model.predict"), "us"),
        Metric::new("comparison.build_us", us("comparison.build"), "us"),
        Metric::new("jobs.submit_ms", median_or_zero(&jobs.job_submit_ms), "ms"),
        Metric::new(
            "jobs.turnaround_ms",
            median_or_zero(&jobs.job_turnaround_ms),
            "ms",
        ),
        Metric::new(
            "jobs.poll_useful_ratio",
            if jobs.polls == 0 {
                0.0
            } else {
                jobs.useful_polls as f64 / jobs.polls as f64
            },
            "ratio",
        ),
        Metric::new(
            "admission.shed",
            delta("arrayflex_serve_shed_total", ""),
            "count",
        ),
        Metric::new(
            "admission.coalesced",
            delta("arrayflex_serve_coalesced_requests_total", ""),
            "count",
        ),
        Metric::new("server.cpu_ms_per_op", (cpu_after - cpu_before) / ops, "ms"),
        Metric::new(
            "trace.overhead_pct",
            (report.traced_s / report.untraced_s - 1.0) * 100.0,
            "%",
        ),
    ];

    // Share of traced handler time per layer (self time over the summed
    // `request` span durations), recorded for the interaction map.
    let total_ns: u64 = report
        .spans
        .iter()
        .filter(|s| s.parent.is_none())
        .map(|s| s.end_ns - s.start_ns)
        .sum();
    let mut shares = String::from("{");
    for (i, (layer, ns)) in report.self_ns.iter().enumerate() {
        let sep = if i == 0 { "" } else { "," };
        let _ = write!(
            shares,
            "{sep}{}:{}",
            json_string(layer),
            json_number(*ns as f64 / total_ns.max(1) as f64)
        );
    }
    shares.push('}');
    write_spans(out, w.name, &report.spans)?;

    let loopback_failed = warm.failed + closed.failed + jobs.failed;
    let mismatches =
        warm.mismatches + closed.mismatches + jobs.mismatches + c.failed + report.handle_failed;
    let first_error = warm
        .first_error
        .or(closed.first_error)
        .or(jobs.first_error)
        .or(c.first_error.clone());
    Ok(Outcome {
        correct: mismatches == 0 && loopback_failed == 0,
        attempted: warm.attempted + closed.attempted + jobs.attempted + 2 * c.ops,
        failed: loopback_failed + c.failed + report.handle_failed,
        metrics,
        details: vec![
            ("layer_share".to_owned(), shares),
            ("replay_ops".to_owned(), c.ops.to_string()),
            (
                "loopback_ops".to_owned(),
                closed.completions_s.len().to_string(),
            ),
            ("job_ops".to_owned(), jobs.completions_s.len().to_string()),
            ("loopback_p50_us".to_owned(), json_number(loopback_p50)),
            (
                "untraced_replay_s".to_owned(),
                json_number(report.untraced_s),
            ),
            ("traced_replay_s".to_owned(), json_number(report.traced_s)),
            (
                "first_error".to_owned(),
                first_error
                    .as_deref()
                    .map_or("null".to_owned(), json_string),
            ),
        ],
    })
}

/// Writes the traced pass's spans, one JSON object a line.
fn write_spans(out: &Path, workload: &str, spans: &[trace::Span]) -> Result<(), String> {
    let mut text = String::with_capacity(spans.len() * 96);
    for s in spans {
        let parent = s.parent.map_or("null".to_owned(), |p| p.to_string());
        let _ = writeln!(
            text,
            "{{\"name\":\"{}\",\"request\":{},\"parent\":{parent},\"start_ns\":{},\"end_ns\":{}}}",
            s.name, s.request, s.start_ns, s.end_ns
        );
    }
    let path = out.join(format!("{workload}-spans.jsonl"));
    std::fs::write(&path, text).map_err(|e| format!("{}: {e}", path.display()))
}

fn render(outcome: &Outcome) -> String {
    let mut metrics = String::new();
    for (i, m) in outcome.metrics.iter().enumerate() {
        let sep = if i == 0 { "" } else { ", " };
        let _ = write!(
            metrics,
            "{sep}\"{}\": {{\"value\": {}, \"unit\": \"{}\"}}",
            m.name,
            json_number(m.value),
            m.unit
        );
    }
    format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{metrics}}}}}",
        outcome.correct, outcome.attempted, outcome.failed
    )
}

fn run() -> Result<String, String> {
    let args = parse_args()?;
    let lanes = std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get);
    let out = PathBuf::from(".bench_build").join("perfbench-out");
    std::fs::create_dir_all(&out).map_err(|e| format!("{}: {e}", out.display()))?;
    let prepared = Instant::now();
    let w = workload::build(&args.workload, args.seed, lanes)?;
    let prepare_s = prepared.elapsed().as_secs_f64();
    let outcome = if args.trace {
        per_layer(&args, &w, &out, lanes)?
    } else {
        end_to_end(&args, &w, &out, lanes)?
    };
    let result = render(&outcome);
    let mut record = format!(
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{},\"prepare_s\":{}",
        json_string(&args.workload),
        args.seed,
        json_number(args.seconds),
        args.trace,
        host_fingerprint(lanes),
        json_number(prepare_s),
    );
    for (key, value) in &outcome.details {
        let _ = write!(record, ",{}:{value}", json_string(key));
    }
    let _ = write!(record, ",\"result\":{result}}}");
    let path = out.join(format!(
        "{}-seed{}-trace{}.json",
        args.workload,
        args.seed,
        u8::from(args.trace)
    ));
    std::fs::write(&path, &record).map_err(|e| format!("{}: {e}", path.display()))?;
    println!("{record}");
    Ok(result)
}

fn main() {
    match run() {
        Ok(result) => println!("{result}"),
        Err(e) => {
            eprintln!("perfbench: {e}");
            std::process::exit(1);
        }
    }
}
