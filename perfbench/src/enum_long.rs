//! `enum_long`: the paper's experiment.  One RI-DS-SI-FC instance on the
//! PPIS32-like target, run count-only in-process under `Sequential` and
//! `work_stealing(nproc)` alternately on one prepared engine.
//!
//! The timed part runs in a child process (`perfbench enum-runner`) that
//! only reads the instance files, so its peak resident set (`rss_mb`)
//! excludes input generation.  `seq_s` and `ws_s` are wall times around
//! `Engine::run`.  Every workload reports every end-to-end metric, so after
//! each long run the child issues a burst of short library-path queries on
//! the same target, complete counts of the `serve_ppi` patterns; the bursts
//! give `p50_ms` and stay outside the long-run timings.

use crate::host::Reference;
use crate::inputs::{self, Instance, Pattern};
use crate::library::{self, complete, Prepared, Tally};
use crate::serve::{self, Mix};
use crate::stats::{interquartile_mean, median, ratio};
use crate::trace::Tracer;
use crate::window::{p50_ms, sample_note, Window};
use crate::{Report, Run};
use sge::plan::Algorithm;
use sge::{Engine, RunConfig, Scheduler};
use std::collections::HashMap;
use std::io;
use std::path::PathBuf;
use std::process::{Command, Stdio};
use std::time::Instant;

/// Fresh set-ups (read files + prepare) after each burst; `setup_s` is the
/// median of all of them.  Spread over the run, it does not hang on the
/// host's state at its start.
const SETUPS_PER_BURST: usize = 2;
/// Embeddings a buffered query of the traced serving pass stops at.
const COUNT_CAP: u64 = 1_000;
/// Rows a streamed query of the traced serving pass delivers.
const STREAM_CAP: u64 = 2_000;
/// Seconds of short queries after each long run.
const BURST_SECONDS: f64 = 0.5;
/// Registry name of the target when served (traced run only).
const TARGET: &str = "ppi";

/// Parent side: builds the instance, runs the child, and in the traced run
/// adds the serving-side layer figures for the same target and pattern.
pub fn measure(run: &Run, tracer: &mut Tracer, report: &mut Report) -> io::Result<()> {
    let base = inputs::ppi_base_target();
    let (pattern_text, expected) = inputs::select_pattern(
        &base,
        inputs::LONG_BAND,
        &run.work_dir.join("enum_long-selection.txt"),
    );
    let dir = run.work_dir.join("enum_long");
    std::fs::create_dir_all(&dir)?;
    let target_path = dir.join("target.gfd");
    let pattern_path = dir.join("pattern.gfd");
    let short_path = dir.join("short.counts");
    let short = inputs::ppi_serving(&base, run.seed);
    std::fs::write(&target_path, &short.target_text)?;
    std::fs::write(&pattern_path, &pattern_text)?;
    let mut counts = String::new();
    for (i, pattern) in short.patterns.iter().enumerate() {
        std::fs::write(dir.join(format!("short-{i}.gfd")), &pattern.text)?;
        counts.push_str(&format!("{}\n", pattern.expected));
    }
    std::fs::write(&short_path, counts)?;
    report.note(format!(
        "instance: {} nodes / {} edges target, {}-edge pattern, {expected} embeddings",
        base.num_nodes(),
        base.num_edges(),
        inputs::SELECTED_EDGES
    ));

    if run.trace {
        let mut instance = Instance::new(short.target_text);
        let pattern = instance.pattern(pattern_text, expected);
        instance.patterns.push(pattern);
        let mix = Mix::new(instance, TARGET, target_path.clone(), Some(COUNT_CAP), 0.5)
            .with_streams(STREAM_CAP, 0.5);
        serve::measure_layers(run, &mix, 1.5, 0.0, tracer, report)?;
    }

    let output = Command::new(std::env::current_exe()?)
        .arg("enum-runner")
        .args(["--target", &target_path.display().to_string()])
        .args(["--pattern", &pattern_path.display().to_string()])
        .args(["--expected", &expected.to_string()])
        .args(["--short", &short_path.display().to_string()])
        .args(["--seed", &run.seed.to_string()])
        .args(["--seconds", &run.seconds.to_string()])
        .args(["--trace", if run.trace { "1" } else { "0" }])
        .args([
            "--spans",
            &run.output_path("runner.spans.jsonl").display().to_string(),
        ])
        .stdin(Stdio::null())
        .stderr(Stdio::inherit())
        .output()?;
    if !output.status.success() {
        return Err(io::Error::other(format!("enum-runner {}", output.status)));
    }
    for line in String::from_utf8_lossy(&output.stdout).lines() {
        let Some((name, value)) = line.split_once(' ') else {
            continue;
        };
        if name == "note" {
            report.note(value.to_string());
            continue;
        }
        let value: f64 = value.parse().map_err(io::Error::other)?;
        match name {
            "attempted" => report.tally.attempted += value as u64,
            "failed" => report.tally.failed += value as u64,
            _ => report.set(name, value),
        }
    }
    Ok(())
}

struct RunnerArgs {
    target: PathBuf,
    pattern: PathBuf,
    expected: u64,
    /// Embedding counts of the short patterns, one per line; pattern `i`
    /// is `short-<i>.gfd` beside it.
    short: PathBuf,
    seed: u64,
    seconds: f64,
    trace: bool,
    spans: PathBuf,
}

fn runner_args(argv: &[String]) -> Result<RunnerArgs, String> {
    let mut flags = HashMap::new();
    for pair in argv.chunks(2) {
        match pair {
            [flag, value] => flags.insert(flag.trim_start_matches('-'), value.as_str()),
            _ => return Err(format!("flag without value: {pair:?}")),
        };
    }
    let get = |name: &str| {
        flags
            .get(name)
            .copied()
            .ok_or_else(|| format!("missing --{name}"))
    };
    let number = |name: &str| {
        get(name)?
            .parse::<f64>()
            .map_err(|e| format!("--{name}: {e}"))
    };
    Ok(RunnerArgs {
        target: get("target")?.into(),
        pattern: get("pattern")?.into(),
        expected: number("expected")? as u64,
        short: get("short")?.into(),
        seed: number("seed")? as u64,
        seconds: number("seconds")?,
        trace: get("trace")? == "1",
        spans: get("spans")?.into(),
    })
}

/// Reads the instance files and prepares the engine's inputs.
fn read_instance(args: &RunnerArgs) -> io::Result<Instance> {
    let mut instance = Instance::new(std::fs::read_to_string(&args.target)?);
    let pattern = instance.pattern(std::fs::read_to_string(&args.pattern)?, args.expected);
    instance.patterns.push(pattern);
    Ok(instance)
}

/// One fresh set-up, its time pushed to `times`: read the instance files,
/// then `Engine::prepare`.
fn set_up(args: &RunnerArgs, times: &mut Vec<f64>) -> io::Result<Instance> {
    let started = Instant::now();
    let fresh = read_instance(args)?;
    let engine = Engine::prepare(&fresh.patterns[0].graph, &fresh.target, Algorithm::RiDsSiFc);
    times.push(started.elapsed().as_secs_f64());
    drop(engine);
    Ok(fresh)
}

/// The short patterns, parsed against the instance's labels.
fn read_short(args: &RunnerArgs, instance: &mut Instance) -> io::Result<Vec<Pattern>> {
    let dir = args.short.parent().unwrap_or(std::path::Path::new("."));
    std::fs::read_to_string(&args.short)?
        .lines()
        .enumerate()
        .map(|(i, count)| {
            let text = std::fs::read_to_string(dir.join(format!("short-{i}.gfd")))?;
            let expected = count.parse().map_err(io::Error::other)?;
            Ok(instance.pattern(text, expected))
        })
        .collect()
}

/// One burst of short queries for [`BURST_SECONDS`]: the short patterns in
/// turn, each counted completely.
fn burst(short: &Prepared<'_>, next: &mut usize, tally: &mut Tally) -> Window {
    let config = RunConfig::new(Scheduler::Sequential);
    let mut window = Window::default();
    let started = Instant::now();
    while started.elapsed().as_secs_f64() < BURST_SECONDS {
        let (engine, expected) = &short.engines[*next % short.engines.len()];
        *next += 1;
        let t0 = Instant::now();
        let outcome = engine.run(&config);
        let elapsed = t0.elapsed().as_secs_f64();
        window.ops += 1;
        window.wall += elapsed;
        window.latency_ms.push(elapsed * 1e3);
        tally.check(complete(&outcome, *expected));
    }
    window
}

/// Child side (`perfbench enum-runner ...`): prints `name value` lines.
pub fn runner(argv: &[String]) -> i32 {
    let args = match runner_args(argv) {
        Ok(args) => args,
        Err(err) => {
            eprintln!("enum-runner: {err}");
            return 2;
        }
    };
    match run_child(&args) {
        Ok(lines) => {
            for line in lines {
                println!("{line}");
            }
            0
        }
        Err(err) => {
            eprintln!("enum-runner: {err}");
            1
        }
    }
}

/// The timed part: `name value` lines, and `note <text>` lines.
fn run_child(args: &RunnerArgs) -> io::Result<Vec<String>> {
    let mut tally = Tally::default();
    let mut out: Vec<String> = Vec::new();
    let mut setup_s = Vec::new();
    let mut instance = set_up(args, &mut setup_s)?;
    let short_patterns = read_short(args, &mut instance)?;
    let short = Prepared::new(&instance.target, &short_patterns.iter().collect::<Vec<_>>());
    let mut next_short = 0;
    let pattern: &Pattern = &instance.patterns[0];
    let engine = Engine::prepare(&pattern.graph, &instance.target, Algorithm::RiDsSiFc);
    let nproc = crate::host::nproc();

    // Long runs alternate schedulers, with short operations in between, so
    // host drift hits both alike.
    let seq = RunConfig::new(Scheduler::Sequential);
    let ws = RunConfig::new(Scheduler::work_stealing(nproc)).with_seed(args.seed);
    let loop_seconds = if args.trace {
        args.seconds / 2.0
    } else {
        args.seconds
    };
    let (mut seq_s, mut ws_s, mut bursts) = (Vec::new(), Vec::new(), Vec::new());
    let mut reference = Reference::new();
    // Peak RSS once every kind of operation has run once: later rounds
    // only add allocator noise (the peak grew 10.0 -> 11.3 MiB with the
    // number of work-stealing runs, which varies with host speed).
    let mut rss_mb = None;
    let started = Instant::now();
    let mut last_round = 0.0;
    while seq_s.is_empty() || started.elapsed().as_secs_f64() + last_round <= loop_seconds {
        let round = Instant::now();
        for (config, times) in [(&seq, &mut seq_s), (&ws, &mut ws_s)] {
            let t0 = Instant::now();
            let outcome = engine.run(config);
            times.push(t0.elapsed().as_secs_f64());
            tally.check(complete(&outcome, args.expected));
            reference.sample();
            bursts.push(burst(&short, &mut next_short, &mut tally));
            reference.sample();
            for _ in 0..SETUPS_PER_BURST {
                set_up(args, &mut setup_s)?;
            }
        }
        rss_mb.get_or_insert_with(|| crate::client::peak_rss_mib("/proc/self/status"));
        last_round = round.elapsed().as_secs_f64();
    }
    if args.trace {
        let mut tracer = Tracer::default();
        let lines = vec![
            serve::buffered_line(TARGET, &pattern.inline, Some(COUNT_CAP)),
            serve::streamed_line(TARGET, &pattern.inline, STREAM_CAP),
        ];
        let layers = library::layers(
            &instance.target,
            &[pattern],
            &lines,
            STREAM_CAP,
            0.0,
            nproc,
            args.seed,
            &mut tracer,
            &mut tally,
        );
        for (name, value) in layers.metrics() {
            out.push(format!("{name} {value}"));
        }
        let overhead = ratio(layers.traced_s, median(&seq_s));
        out.push(format!("bench.trace_overhead {overhead}"));
        std::fs::write(&args.spans, tracer.to_jsonl())?;
    } else {
        let rss_mb = rss_mb.flatten().unwrap_or(f64::NAN);
        let (corrected, note) = reference.correct(&[
            ("setup_s", median(&setup_s)),
            ("seq_s", interquartile_mean(&seq_s)),
            ("ws_s", interquartile_mean(&ws_s)),
            ("p50_ms", p50_ms(&bursts)),
        ]);
        for (name, value) in corrected {
            out.push(format!("{name} {value}"));
        }
        out.push(format!("note {note}"));
        out.push(format!("rss_mb {rss_mb}"));
        out.push(format!(
            "note {} setups; {} seq and {} ws runs (fastest {:.4} s and {:.4} s); bursts: {}",
            setup_s.len(),
            seq_s.len(),
            ws_s.len(),
            seq_s.iter().copied().fold(f64::INFINITY, f64::min),
            ws_s.iter().copied().fold(f64::INFINITY, f64::min),
            sample_note(&bursts)
        ));
    }
    out.push(format!("attempted {}", tally.attempted));
    out.push(format!("failed {}", tally.failed));
    Ok(out)
}
