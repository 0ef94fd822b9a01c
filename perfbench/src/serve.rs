//! The serving workload: one loopback connection in a closed loop against
//! a spawned `sge-serve`.  The loop sends buffered count queries with
//! `sched=auto`, so routing is measured.  Every workload reports every
//! end-to-end metric, so between two half-second loop windows the same
//! connection sends one medium query pinned to `sched=seq` and one pinned
//! to `sched=ws:<nproc>` (`seq_s`, `ws_s`).  The traced run sends complete
//! streamed queries there instead, and checks every row they deliver.

use crate::client::{Conn, Server};
use crate::host::Reference;
use crate::inputs::{Instance, Pattern};
use crate::json::{self, Json};
use crate::library::{self, Tally};
use crate::stats::{geomean, interquartile_mean, mean, median, miss_factor, ratio};
use crate::trace::Tracer;
use crate::window::{p50_ms, pooled, sample_note, Window};
use crate::{Report, Run};
use sge::graph::Graph;
use std::io;
use std::path::PathBuf;
use std::time::{Duration, Instant};

/// `kernel_usage` keys of an `EXPLAIN ANALYZE` reply and the per-layer
/// metric each feeds (a mean per distinct pattern).  A key the reply no
/// longer carries reads 0.
const KERNEL_USAGE: [(&str, &str); 4] = [
    ("bitmap", "ri.kernel.bitmap"),
    ("gallop", "ri.kernel.gallop"),
    ("merge", "ri.kernel.merge"),
    ("prefilter_rejected", "ri.prefilter_rejected"),
];

pub struct Request {
    pub line: String,
    bytes: Vec<u8>,
    pattern: usize,
    stream: bool,
    /// Matches of a buffered query, rows of a streamed one.
    expected: u64,
}

impl Request {
    fn new(line: String, pattern: usize, stream: bool, expected: u64) -> Request {
        Request {
            bytes: format!("{line}\n").into_bytes(),
            line,
            pattern,
            stream,
            expected,
        }
    }
}

/// A buffered count query, planner-routed, optionally capped by `max=`.
pub fn buffered_line(target: &str, inline: &str, max: Option<u64>) -> String {
    let max = max.map(|m| format!(" max={m}")).unwrap_or_default();
    format!("QUERY target={target} sched=auto{max} pattern={inline}")
}

/// A streamed query pinned to `seq` and capped at `cap` rows.
pub fn streamed_line(target: &str, inline: &str, cap: u64) -> String {
    format!("QUERY target={target} sched=seq emit=stream max={cap} pattern={inline}")
}

/// A workload's target, patterns and request cycles.
pub struct Mix {
    pub instance: Instance,
    pub target_name: &'static str,
    pub target_path: PathBuf,
    /// The loop's buffered requests, one per pattern.
    pub requests: Vec<Request>,
    /// The requests between two loop windows: complete streams (traced
    /// runs) or the medium query pinned to each scheduler (`seq_s`, `ws_s`).
    pub side: Vec<Request>,
    pub stream_cap: u64,
    /// Length of one loop window, and the least length of the requests
    /// between two (at least one pass over `side`), in seconds.
    pub window_s: f64,
    pub side_s: f64,
}

impl Mix {
    /// The loop takes the patterns in order.  The order is fixed: the
    /// router's cost model learns one correction per target from the
    /// queries before, so a seed-shuffled order could route the same
    /// pattern differently from seed to seed.  A `buffered_max` caps the
    /// buffered queries.
    pub fn new(
        instance: Instance,
        target_name: &'static str,
        target_path: PathBuf,
        buffered_max: Option<u64>,
        window_s: f64,
    ) -> Mix {
        let requests = instance
            .patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                let expected = buffered_max.map_or(p.expected, |m| p.expected.min(m));
                Request::new(
                    buffered_line(target_name, &p.inline, buffered_max),
                    i,
                    false,
                    expected,
                )
            })
            .collect();
        Mix {
            instance,
            target_name,
            target_path,
            requests,
            side: Vec::new(),
            stream_cap: 0,
            window_s,
            side_s: 0.0,
        }
    }

    /// Between loop windows: `side_s` seconds of complete streamed queries,
    /// each pattern in turn, capped at `cap` rows.
    pub fn with_streams(mut self, cap: u64, side_s: f64) -> Mix {
        self.side = self
            .instance
            .patterns
            .iter()
            .enumerate()
            .map(|(i, p)| {
                Request::new(
                    streamed_line(self.target_name, &p.inline, cap),
                    i,
                    true,
                    p.expected.min(cap),
                )
            })
            .collect();
        (self.stream_cap, self.side_s) = (cap, side_s);
        self
    }

    /// Between loop windows: one buffered query of `pattern` pinned to each
    /// of `scheds`, in order.  `pattern` joins the instance's patterns.
    pub fn with_pinned(mut self, pattern: Pattern, scheds: &[String]) -> Mix {
        let index = self.instance.patterns.len();
        self.side = scheds
            .iter()
            .map(|sched| {
                let line = format!(
                    "QUERY target={} sched={sched} pattern={}",
                    self.target_name, pattern.inline
                );
                Request::new(line, index, false, pattern.expected)
            })
            .collect();
        self.instance.patterns.push(pattern);
        (self.stream_cap, self.side_s) = (0, 0.0);
        self
    }

    fn patterns(&self) -> Vec<&Pattern> {
        self.instance.patterns.iter().collect()
    }

    /// Every distinct request: the loop's, then the side ones (the
    /// patterns are distinct, so each line appears once).
    fn distinct(&self) -> Vec<&Request> {
        self.requests.iter().chain(&self.side).collect()
    }
}

/// `true` when every row of `frames` is an embedding of `pattern` in
/// `target`: one distinct target node per pattern node, labels equal, and
/// every pattern edge present with its label.
fn valid_rows(frames: &[String], pattern: &Graph, target: &Graph) -> bool {
    frames.iter().all(|frame| {
        json::frame_mappings(frame).is_ok_and(|rows| {
            rows.iter().all(|row| {
                let mut used = row.clone();
                used.sort_unstable();
                used.dedup();
                row.len() == pattern.num_nodes()
                    && used.len() == row.len()
                    && row.iter().all(|&v| (v as usize) < target.num_nodes())
                    && pattern
                        .nodes()
                        .all(|p| pattern.label(p) == target.label(row[p as usize]))
                    && pattern.edges().all(|(u, v, l)| {
                        target.edge_label(row[u as usize], row[v as usize]) == Some(l)
                    })
            })
        })
    })
}

/// Sends one request and checks its reply; returns its client-observed
/// time.  Traced, a buffered reply's service latency and size go into
/// `window`.
fn execute(
    conn: &mut Conn,
    mix: &Mix,
    request: &Request,
    line: &mut String,
    window: &mut Window,
    tally: &mut Tally,
    tracer: Option<&mut Tracer>,
) -> io::Result<Duration> {
    let started = Instant::now();
    let tracing = tracer.is_some();
    if request.stream {
        let reply = conn.stream(&request.bytes, started, tracing, line)?;
        let elapsed = started.elapsed();
        let footer = &reply.footer;
        let mut ok = json::ok_line(footer)
            && json::field_u64(footer, "rows_sent") == Some(request.expected)
            && json::field_bool(footer, "cancelled") == Some(false)
            && reply.rows == request.expected;
        if tracing {
            let pattern = &mix.instance.patterns[request.pattern].graph;
            ok &= valid_rows(&reply.frames, pattern, &mix.instance.target);
        }
        tally.check(ok);
        if let Some(tracer) = tracer {
            let id = tracer.record("request.stream", 0, started, started + elapsed);
            if let Some(first) = reply.first_row {
                tracer.record("first_row", id, started, started + first);
            }
        }
        return Ok(elapsed);
    }
    conn.send(&request.bytes)?;
    conn.read_line(line)?;
    let elapsed = started.elapsed();
    tally.check(json::ok_line(line) && json::field_u64(line, "matches") == Some(request.expected));
    if let Some(tracer) = tracer {
        tracer.record("request.buffered", 0, started, started + elapsed);
        window
            .service_ms
            .push(json::field_f64(line, "latency_seconds").unwrap_or(f64::NAN) * 1e3);
        window.response_bytes.push(line.len() as f64 + 1.0);
    }
    Ok(elapsed)
}

/// What a closed loop observed.
#[derive(Default)]
struct Timed {
    /// The loop windows of buffered queries.
    windows: Vec<Window>,
    /// Client-observed seconds of each side request, by its place in
    /// `Mix::side`.
    side_s: Vec<Vec<f64>>,
}

/// Runs loop windows for about `seconds` in all (at least one), each
/// followed by the side requests (see [`Mix::side`]) and then `between`.
/// A dropped or timed-out connection, or a failed `between`, counts as one
/// failed operation and ends the loop.
fn closed_loop(
    conn: &mut Conn,
    mix: &Mix,
    seconds: f64,
    tally: &mut Tally,
    mut tracer: Option<&mut Tracer>,
    between: &mut dyn FnMut() -> io::Result<()>,
) -> Timed {
    let mut timed = Timed {
        side_s: vec![Vec::new(); mix.side.len()],
        ..Timed::default()
    };
    let mut line = String::new();
    let started = Instant::now();
    let mut cycle = 0.0;
    while timed.windows.is_empty() || started.elapsed().as_secs_f64() + cycle <= seconds {
        let cycle_started = Instant::now();
        let mut window = Window::default();
        let mut sent = Ok(());
        for request in mix.requests.iter().cycle() {
            if cycle_started.elapsed().as_secs_f64() >= mix.window_s {
                break;
            }
            let tracer = tracer.as_deref_mut();
            match execute(conn, mix, request, &mut line, &mut window, tally, tracer) {
                Ok(elapsed) => {
                    window.ops += 1;
                    window.wall += elapsed.as_secs_f64();
                    window.latency_ms.push(elapsed.as_secs_f64() * 1e3);
                }
                Err(err) => {
                    sent = Err(err);
                    break;
                }
            }
        }
        timed.windows.push(window);
        let side_started = Instant::now();
        let mut passes = 0;
        while sent.is_ok() && (passes == 0 || side_started.elapsed().as_secs_f64() < mix.side_s) {
            for (request, times) in mix.side.iter().zip(&mut timed.side_s) {
                let tracer = tracer.as_deref_mut();
                let mut unused = Window::default();
                match execute(conn, mix, request, &mut line, &mut unused, tally, tracer) {
                    Ok(elapsed) => times.push(elapsed.as_secs_f64()),
                    Err(err) => {
                        sent = Err(err);
                        break;
                    }
                }
            }
            passes += 1;
        }
        if let Err(err) = sent.and_then(|()| between()) {
            eprintln!("perfbench: serving loop stopped: {err}");
            tally.check(false);
            break;
        }
        cycle = cycle_started.elapsed().as_secs_f64();
    }
    timed
}

struct Setup {
    seconds: f64,
    load_ms: f64,
    bitmap_bytes: f64,
}

/// One fresh set-up: spawn `sge-serve`, LOAD the target, answer every
/// distinct request once (warming the prepared cache and cost model).
fn set_up(run: &Run, mix: &Mix, tally: &mut Tally) -> io::Result<(Server, Conn, Setup)> {
    let started = Instant::now();
    let server = Server::spawn(&run.serve_bin)?;
    let mut conn = Conn::open(server.addr)?;
    let load_started = Instant::now();
    let load = conn.call_json(&format!(
        "LOAD {} {}",
        mix.target_name,
        mix.target_path.display()
    ))?;
    let load_ms = load_started.elapsed().as_secs_f64() * 1e3;
    let mut line = String::new();
    for request in mix.distinct() {
        execute(
            &mut conn,
            mix,
            request,
            &mut line,
            &mut Window::default(),
            tally,
            None,
        )?;
    }
    tally.check(load.num("nodes") as usize == mix.instance.target.num_nodes());
    let setup = Setup {
        seconds: started.elapsed().as_secs_f64(),
        load_ms,
        bitmap_bytes: load.num("bitmap_bytes"),
    };
    Ok((server, conn, setup))
}

/// Fresh set-ups between loop windows: each spawns its own `sge-serve`,
/// sets it up and shuts it down, while the loop's server idles.  Spread over
/// the run, their median does not hang on the host's state at its start.
struct FreshSetups<'a> {
    run: &'a Run,
    mix: &'a Mix,
    setups: Vec<Setup>,
    tally: Tally,
}

impl FreshSetups<'_> {
    fn one(&mut self) -> io::Result<()> {
        let (server, conn, setup) = set_up(self.run, self.mix, &mut self.tally)?;
        self.setups.push(setup);
        server.shutdown(conn)
    }

    fn median(&self, field: fn(&Setup) -> f64) -> f64 {
        median(&self.setups.iter().map(field).collect::<Vec<_>>())
    }
}

/// The serving workload, untraced: end-to-end metrics.  The side requests
/// are the medium query pinned to `seq` and to `ws:<nproc>`; `seq_s` and
/// `ws_s` are the interquartile means of their client-observed times.
/// Between loop windows come a sample of the host-speed reference, which
/// corrects every timing, and after every other window a fresh set-up.
pub fn measure(run: &Run, mix: &Mix, report: &mut Report) -> io::Result<()> {
    let (server, mut conn, first) = set_up(run, mix, &mut report.tally)?;
    let mut fresh = FreshSetups {
        run,
        mix,
        setups: vec![first],
        tally: Tally::default(),
    };
    let mut reference = Reference::new();
    let mut windows = 0;
    let timed = closed_loop(
        &mut conn,
        mix,
        run.seconds,
        &mut report.tally,
        None,
        &mut || {
            reference.sample();
            windows += 1;
            // A set-up costs a quarter of a loop window: one every other
            // window keeps the loop at three quarters of the run.
            match windows % 2 {
                0 => fresh.one(),
                _ => Ok(()),
            }
        },
    );
    report.tally.add(fresh.tally);
    let side = |i: usize| interquartile_mean(timed.side_s.get(i).map_or(&[], Vec::as_slice));
    let raw = [
        ("setup_s", fresh.median(|s| s.seconds)),
        ("p50_ms", p50_ms(&timed.windows)),
        ("seq_s", side(0)),
        ("ws_s", side(1)),
    ];
    report.corrected(&raw, &reference);
    report.note(format!(
        "{} setups; loop: {}; {} medium queries per scheduler",
        fresh.setups.len(),
        sample_note(&timed.windows),
        timed.side_s.first().map_or(0, Vec::len)
    ));
    report.set("rss_mb", server.peak_rss_mib().unwrap_or(f64::NAN));
    server.shutdown(conn)
}

/// METRICS and STATS, one snapshot.
fn snapshot(conn: &mut Conn) -> io::Result<(Json, Json)> {
    let metrics = conn.call_json("METRICS")?;
    let stats = conn.call_json("STATS")?;
    Ok((metrics, stats))
}

/// The serving workload, traced: the untraced loop, then the same request
/// sequence again with spans, METRICS/STATS snapshots around it, EXPLAIN
/// ANALYZE once per distinct pattern (kernel and state counts, plan error,
/// service spans), and the in-process layer probes on the same inputs.
/// `loop_seconds` is the length of each loop.
pub fn measure_layers(
    run: &Run,
    mix: &Mix,
    loop_seconds: f64,
    library_budget: f64,
    tracer: &mut Tracer,
    report: &mut Report,
) -> io::Result<()> {
    let patterns = mix.patterns();
    let lines: Vec<String> = mix.distinct().iter().map(|r| r.line.clone()).collect();
    if library_budget > 0.0 {
        let layers = library::layers(
            &mix.instance.target,
            &patterns,
            &lines,
            mix.stream_cap,
            library_budget,
            run.nproc,
            run.seed,
            tracer,
            &mut report.tally,
        );
        for (name, value) in layers.metrics() {
            report.set(name, value);
        }
    }

    let (server, mut conn, first) = set_up(run, mix, &mut report.tally)?;
    report.set("graph.bitmap_bytes", first.bitmap_bytes);
    let mut fresh = FreshSetups {
        run,
        mix,
        setups: vec![first],
        tally: Tally::default(),
    };
    let tally = &mut report.tally;
    let untraced = closed_loop(&mut conn, mix, loop_seconds, tally, None, &mut || {
        fresh.one()
    });
    let (metrics_before, stats_before) = snapshot(&mut conn)?;
    let traced = closed_loop(
        &mut conn,
        mix,
        loop_seconds,
        tally,
        Some(&mut *tracer),
        &mut || fresh.one(),
    );
    let (untraced, traced) = (untraced.windows, traced.windows);
    report.tally.add(fresh.tally);
    report.set("graph.load_ms", fresh.median(|s| s.load_ms));
    let (metrics_after, stats_after) = snapshot(&mut conn)?;

    let delta = |before: &Json, after: &Json, key: &str| after.num(key) - before.num(key);
    let (mb, ma) = (
        metrics_before.get("metrics").unwrap_or(&Json::Null),
        metrics_after.get("metrics").unwrap_or(&Json::Null),
    );
    let ws = delta(mb, ma, "engine.dispatch.work_stealing");
    let seq = delta(mb, ma, "engine.dispatch.sequential");
    report.set("plan.ws_route_share", ratio(ws, ws + seq));
    let hits = delta(mb, ma, "cache.hits");
    let misses = delta(mb, ma, "cache.misses");
    report.set("service.cache_hit_ratio", ratio(hits, hits + misses));
    let waited = delta(&stats_before, &stats_after, "admission_wait_seconds");
    let admissions = delta(&stats_before, &stats_after, "admissions");
    report.set("service.admission_wait_ms", ratio(waited * 1e3, admissions));

    let service_p50 = median(&pooled(&traced, |w| &w.service_ms));
    report.set("service.latency_p50_ms", service_p50);
    report.set("front.overhead_ms", p50_ms(&traced) - service_p50);
    report.set(
        "wire.response_bytes",
        mean(&pooled(&traced, |w| &w.response_bytes)),
    );
    report.set(
        "bench.trace_overhead",
        ratio(p50_ms(&traced), p50_ms(&untraced)),
    );

    // EXPLAIN ANALYZE once per distinct pattern, uncapped and sequential:
    // the kernel counts it reports repeat exactly only then.
    let mut misses = Vec::new();
    let mut spans: [Vec<f64>; 3] = Default::default();
    let mut kernels = [0.0; KERNEL_USAGE.len()];
    for pattern in &mix.instance.patterns {
        let started = Instant::now();
        let analyze = conn.call_json(&format!(
            "EXPLAIN ANALYZE target={} sched=seq pattern={}",
            mix.target_name, pattern.inline
        ))?;
        tracer.record("explain_analyze", 0, started, Instant::now());
        report
            .tally
            .check(analyze.num("matches") as u64 == pattern.expected);
        let usage = analyze.get("kernel_usage").unwrap_or(&Json::Null);
        for (total, (key, _)) in kernels.iter_mut().zip(KERNEL_USAGE) {
            *total += usage.num(key);
        }
        let sum = |key: &str| -> f64 {
            analyze
                .get(key)
                .and_then(Json::as_arr)
                .map_or(0.0, |v| v.iter().filter_map(Json::as_f64).sum())
        };
        misses.push(miss_factor(sum("observed_states"), sum("est_states")));
        for span in analyze.get("spans").and_then(Json::as_arr).unwrap_or(&[]) {
            let slot = match span.get("name").and_then(Json::as_str) {
                Some("plan") => 0,
                Some("admission_wait") => 1,
                Some("enumeration") => 2,
                _ => continue,
            };
            spans[slot].push(span.num("duration_seconds") * 1e3);
        }
    }
    report.set("plan.est_error", geomean(&misses));
    let n = mix.instance.patterns.len() as f64;
    for (total, (_, name)) in kernels.iter().zip(KERNEL_USAGE) {
        report.set(name, total / n);
    }
    for (name, values) in [
        "service.span.plan_ms",
        "service.span.admission_wait_ms",
        "service.span.enumeration_ms",
    ]
    .into_iter()
    .zip(&spans)
    {
        report.set(name, mean(values));
    }
    report.attach("metrics_before", metrics_before);
    report.attach("metrics_after", metrics_after);
    report.attach("stats_before", stats_before);
    report.attach("stats_after", stats_after);
    server.shutdown(conn)
}
