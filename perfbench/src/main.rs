//! `perfbench`: the repository benchmark.
//!
//! ```text
//! perfbench --workload <enum_long|serve_ppi> --seed <n>
//!           --seconds <s> --trace <0|1> --serve-bin <path> --work-dir <dir>
//! ```
//!
//! Generates the workload's inputs from the seed, measures for `--seconds`,
//! checks every output, prints each metric with its unit (and, traced, the
//! layer that owns it and the end-to-end metric it should move), and ends
//! with one JSON line: `correct`, `attempted`, `failed` and `metrics`.
//! `perfbench/run.py` builds this binary and `sge-serve`, then runs it.
//! See `perfbench/NOTES.md` for why each workload and metric exists.

mod catalog;
mod client;
mod enum_long;
mod host;
mod inputs;
mod json;
mod library;
mod serve;
mod stats;
mod trace;
mod window;

use json::Json;
use library::Tally;
use std::collections::BTreeMap;
use std::fmt::Write as _;
use std::path::PathBuf;
use trace::Tracer;

/// The workloads, in `BENCHMARK.json` order.
pub const WORKLOADS: [&str; 2] = ["enum_long", "serve_ppi"];

const USAGE: &str = "usage: perfbench --workload <enum_long|serve_ppi> \
    --seed <n> --seconds <s> --trace <0|1> --serve-bin <path> --work-dir <dir>";

/// One invocation's settings.
pub struct Run {
    pub workload: String,
    pub seed: u64,
    pub seconds: f64,
    pub trace: bool,
    pub serve_bin: PathBuf,
    pub work_dir: PathBuf,
    pub nproc: usize,
}

impl Run {
    fn parse(argv: &[String]) -> Result<Run, String> {
        let mut values = BTreeMap::new();
        let mut rest = argv.iter();
        while let Some(flag) = rest.next() {
            let name = flag
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected argument '{flag}'"))?;
            let value = rest.next().ok_or_else(|| format!("{flag} needs a value"))?;
            values.insert(name.to_string(), value.clone());
        }
        let get = |name: &str| {
            values
                .get(name)
                .cloned()
                .ok_or_else(|| format!("missing --{name}"))
        };
        let workload = get("workload")?;
        if !WORKLOADS.contains(&workload.as_str()) {
            return Err(format!("unknown workload '{workload}'"));
        }
        let seconds: f64 = get("seconds")?
            .parse()
            .map_err(|e| format!("--seconds: {e}"))?;
        if seconds.is_nan() || seconds <= 0.0 {
            return Err("--seconds must be positive".into());
        }
        Ok(Run {
            workload,
            seed: get("seed")?.parse().map_err(|e| format!("--seed: {e}"))?,
            seconds,
            trace: match get("trace")?.as_str() {
                "0" => false,
                "1" => true,
                other => return Err(format!("--trace must be 0 or 1, got '{other}'")),
            },
            serve_bin: get("serve-bin")?.into(),
            work_dir: get("work-dir")?.into(),
            nproc: host::nproc(),
        })
    }

    /// A per-run output file in the work directory.
    pub fn output_path(&self, suffix: &str) -> PathBuf {
        self.work_dir.join(format!(
            "{}-seed{}-trace{}.{suffix}",
            self.workload, self.seed, self.trace as u8
        ))
    }
}

/// What a run measured.
#[derive(Default)]
pub struct Report {
    values: BTreeMap<String, f64>,
    notes: Vec<String>,
    attachments: Vec<(&'static str, Json)>,
    pub tally: Tally,
}

impl Report {
    pub fn set(&mut self, name: &str, value: f64) {
        self.values.insert(name.to_string(), value);
    }

    pub fn note(&mut self, note: String) {
        self.notes.push(note);
    }

    /// Keeps a server reply (METRICS/STATS snapshot) for the results file.
    pub fn attach(&mut self, name: &'static str, reply: Json) {
        self.attachments.push((name, reply));
    }

    /// Sets each timing corrected to the nominal host speed (see
    /// [`host::Reference`]) and notes the wall-clock values.
    pub fn corrected(&mut self, timings: &[(&'static str, f64)], reference: &host::Reference) {
        let (corrected, note) = reference.correct(timings);
        for (name, value) in corrected {
            self.set(name, value);
        }
        self.note(note);
    }

    fn get(&self, name: &str) -> Option<f64> {
        self.values.get(name).copied().filter(|v| v.is_finite())
    }
}

fn json_string(text: &str) -> String {
    format!("{text:?}")
}

fn render(value: &Json) -> String {
    match value {
        Json::Null => "null".into(),
        Json::Bool(b) => b.to_string(),
        Json::Num(n) if n.is_finite() => n.to_string(),
        Json::Num(_) => "null".into(),
        Json::Str(s) => json_string(s),
        Json::Arr(items) => format!(
            "[{}]",
            items.iter().map(render).collect::<Vec<_>>().join(",")
        ),
        Json::Obj(members) => format!(
            "{{{}}}",
            members
                .iter()
                .map(|(k, v)| format!("{}:{}", json_string(k), render(v)))
                .collect::<Vec<_>>()
                .join(",")
        ),
    }
}

fn measure(run: &Run, tracer: &mut Tracer, report: &mut Report) -> std::io::Result<()> {
    std::fs::create_dir_all(&run.work_dir)?;
    if run.workload == "enum_long" {
        return enum_long::measure(run, tracer, report);
    }
    let base = inputs::ppi_base_target();
    let mut instance = inputs::ppi_serving(&base, run.seed);
    let target_path = run.work_dir.join(format!("{}-target.gfd", run.workload));
    std::fs::write(&target_path, &instance.target_text)?;
    let target_path = std::fs::canonicalize(target_path)?;
    if run.trace {
        let mix = serve::Mix::new(instance, "ppi", target_path, None, 0.5)
            .with_streams(inputs::PPI_MAX_MATCHES, 0.1);
        let budget = (run.seconds * 0.25).clamp(0.5, 5.0);
        return serve::measure_layers(run, &mix, run.seconds / 2.0, budget, tracer, report);
    }
    let (text, expected) = inputs::select_pattern(
        &base,
        inputs::MEDIUM_BAND,
        &run.work_dir.join("serve_ppi-selection.txt"),
    );
    let medium = instance.pattern(text, expected);
    report.note(format!(
        "medium query: {}-edge pattern, {expected} embeddings",
        medium.graph.num_edges()
    ));
    let scheds = ["seq".to_string(), format!("ws:{}", run.nproc)];
    let mix = serve::Mix::new(instance, "ppi", target_path, None, 1.0).with_pinned(medium, &scheds);
    serve::measure(run, &mix, report)
}

fn main() {
    let argv: Vec<String> = std::env::args().skip(1).collect();
    if argv.first().map(String::as_str) == Some("enum-runner") {
        std::process::exit(enum_long::runner(&argv[1..]));
    }
    let run = match Run::parse(&argv) {
        Ok(run) => run,
        Err(err) => {
            eprintln!("perfbench: {err}\n{USAGE}");
            std::process::exit(2);
        }
    };
    println!(
        "perfbench workload={} seed={} seconds={} trace={}",
        run.workload, run.seed, run.seconds, run.trace as u8
    );
    let host = host::fingerprint();
    println!("{}", host.line());

    let mut report = Report::default();
    let mut tracer = Tracer::default();
    let (started, steal_before) = (std::time::Instant::now(), host::steal_seconds());
    if let Err(err) = measure(&run, &mut tracer, &mut report) {
        eprintln!("perfbench: {} failed: {err}", run.workload);
        report.tally.check(false);
    }
    if let (Some(before), Some(after)) = (steal_before, host::steal_seconds()) {
        let cpu_seconds = started.elapsed().as_secs_f64() * run.nproc as f64;
        report.note(format!(
            "host steal: {:.2}% of CPU time during the run",
            100.0 * (after - before) / cpu_seconds
        ));
    }
    if run.trace {
        report.set("host.read_scaling_private", host.read_scaling_private);
        report.set("host.read_scaling_shared", host.read_scaling_shared);
    }

    for note in &report.notes {
        println!("note {note}");
    }
    let mut metrics = Vec::new();
    for metric in catalog::for_mode(run.trace) {
        let value = report.get(metric.name);
        if value.is_none() {
            eprintln!("perfbench: no value for {}", metric.name);
            report.tally.check(false);
        }
        let value = value.unwrap_or(0.0);
        if run.trace {
            println!(
                "metric {} = {value:.6} {} ({} is better)  [{}; moves {}]",
                metric.name, metric.unit, metric.better, metric.layer, metric.moves
            );
        } else {
            println!(
                "metric {} = {value:.6} {} ({} is better)",
                metric.name, metric.unit, metric.better
            );
        }
        metrics.push(format!(
            "{}: {{\"value\": {value}, \"unit\": {}}}",
            json_string(metric.name),
            json_string(metric.unit)
        ));
    }
    let tally = report.tally;
    let result = format!(
        "{{\"correct\": {}, \"attempted\": {}, \"failed\": {}, \"metrics\": {{{}}}}}",
        tally.failed == 0,
        tally.attempted.max(1),
        tally.failed,
        metrics.join(", ")
    );

    let mut record = String::new();
    let _ = write!(
        record,
        "{{\"workload\":{},\"seed\":{},\"seconds\":{},\"trace\":{},\"host\":{{\"nproc\":{},\
         \"cpu_model\":{},\"l2_bytes\":{},\"rustc\":{},\"git_rev\":{},\
         \"read_scaling_private\":{},\"read_scaling_shared\":{}}},\"notes\":[{}],\"result\":{}",
        json_string(&run.workload),
        run.seed,
        run.seconds,
        run.trace,
        host.nproc,
        json_string(&host.cpu_model),
        host.l2_bytes,
        json_string(&host.rustc),
        json_string(&host.git_rev),
        host.read_scaling_private,
        host.read_scaling_shared,
        report
            .notes
            .iter()
            .map(|n| json_string(n))
            .collect::<Vec<_>>()
            .join(","),
        result
    );
    for (name, reply) in &report.attachments {
        let _ = write!(record, ",{}:{}", json_string(name), render(reply));
    }
    record.push_str("}\n");
    let written = std::fs::write(run.output_path("json"), record).and_then(|()| {
        if run.trace {
            std::fs::write(run.output_path("spans.jsonl"), tracer.to_jsonl())
        } else {
            Ok(())
        }
    });
    if let Err(err) = written {
        eprintln!("perfbench: cannot write results: {err}");
    }
    println!("{result}");
}
