//! Harness settings and the command line that fills them.

use crate::bench_report::{figure, FigureFn, FIGURES};
use sge::Strategy;
use sge_util::pool::max_workers;
use std::time::Duration;

/// Knobs shared by every figure.
#[derive(Clone, Debug)]
pub struct Settings {
    /// Scale factor applied to the synthetic collections' node counts
    /// (1.0 ≈ laptop-sized; the paper's originals are 10–30x larger).
    pub scale: f64,
    /// Master seed for dataset generation.
    pub seed: u64,
    /// Worker counts swept by the parallel experiments (the paper uses
    /// 1, 2, 4, 8, 16).
    pub workers: Vec<usize>,
    /// Task-group sizes swept by the coalescing experiment (Fig. 4).
    pub task_group_sizes: Vec<usize>,
    /// Per-instance time limit (the paper uses 180 s; scaled down here).
    pub time_limit: Duration,
    /// Threshold separating "short" from "long" instances, in seconds of
    /// single-worker total time (1 s in the paper).
    pub long_threshold_secs: f64,
    /// Optional cap on instances per collection, to bound harness runtime.
    pub max_instances: Option<usize>,
    /// Ordering strategy every experiment prepares its engines with
    /// (RI-greedy — the paper's heuristic — by default).
    pub strategy: Strategy,
    /// Wall-time samples per timed case (the figures report the median).
    pub repeats: usize,
    /// Shrink the record figures' workloads to CI-smoke size.
    pub smoke: bool,
}

impl Default for Settings {
    fn default() -> Self {
        Settings {
            scale: 0.25,
            seed: 20170525, // the paper's arXiv submission date
            workers: vec![1, 2, 4, 8, 16],
            task_group_sizes: vec![1, 2, 4, 8, 16],
            time_limit: Duration::from_secs(5),
            long_threshold_secs: 0.05,
            max_instances: Some(24),
            strategy: Strategy::default(),
            repeats: 5,
            smoke: false,
        }
    }
}

impl Settings {
    /// A very small configuration used by unit tests and CI's smoke run so
    /// every figure finishes in seconds.
    pub fn smoke() -> Self {
        Settings {
            scale: 0.1,
            seed: 7,
            workers: vec![1, 2],
            task_group_sizes: vec![1, 4],
            time_limit: Duration::from_millis(500),
            long_threshold_secs: 0.005,
            max_instances: Some(4),
            smoke: true,
            ..Settings::default()
        }
    }
}

/// One parsed `bench-report` command line.
pub struct Invocation {
    /// Settings every figure runs with.
    pub settings: Settings,
    /// Figures to run: the named ones, or every registered figure.
    pub figures: Vec<(&'static str, FigureFn)>,
    /// Where to write the record of every figure.
    pub out: Option<String>,
    /// A record to check instead of running anything.
    pub validate: Option<String>,
}

/// Parses `bench-report [FIGURE ...] [flags]`.  `--smoke` selects the smoke
/// preset wherever it appears; every other flag overrides one field of it.
/// Any malformed or out-of-range value is an `Err`, never a panic.
pub fn parse_args(args: &[String]) -> Result<Invocation, String> {
    let mut invocation = Invocation {
        settings: if args.iter().any(|arg| arg == "--smoke") {
            Settings::smoke()
        } else {
            Settings::default()
        },
        figures: Vec::new(),
        out: None,
        validate: None,
    };
    let settings = &mut invocation.settings;
    let mut iter = args.iter().map(String::as_str);
    while let Some(flag) = iter.next() {
        let mut value = || iter.next().ok_or(format!("missing value for {flag}"));
        match flag {
            "--smoke" => {}
            "--scale" => {
                settings.scale = checked(flag, value()?, |x: &f64| x.is_finite() && *x > 0.0)?
            }
            "--seed" => settings.seed = checked(flag, value()?, |_| true)?,
            "--workers" => {
                settings.workers = list(flag, value()?, |n| (1..=max_workers()).contains(&n))?
            }
            "--group-sizes" => settings.task_group_sizes = list(flag, value()?, |n| n >= 1)?,
            "--time-limit-secs" => {
                let text = value()?;
                settings.time_limit = Duration::try_from_secs_f64(checked(flag, text, |_| true)?)
                    .map_err(|_| format!("invalid value '{text}' for {flag}"))?
            }
            "--long-threshold" => {
                settings.long_threshold_secs =
                    checked(flag, value()?, |x: &f64| x.is_finite() && *x >= 0.0)?
            }
            "--max-instances" => settings.max_instances = Some(checked(flag, value()?, |_| true)?),
            "--strategy" => settings.strategy = checked(flag, value()?, |_| true)?,
            "--repeats" => settings.repeats = checked(flag, value()?, |&n| n > 0)?,
            "--out" => invocation.out = Some(value()?.to_string()),
            "--validate" => invocation.validate = Some(value()?.to_string()),
            name => invocation
                .figures
                .push(figure(name).ok_or(format!("unknown figure or flag '{name}'"))?),
        }
    }
    let named = !invocation.figures.is_empty();
    if !named {
        invocation.figures = FIGURES.to_vec();
    }
    if named && invocation.out.is_some() {
        return Err("--out records every figure; name no figures with it".to_string());
    }
    if invocation.validate.is_some() && (named || invocation.out.is_some()) {
        return Err("--validate takes no figures and no --out".to_string());
    }
    Ok(invocation)
}

/// Parses `text` as the value of `flag`, accepting it only if `valid`.
fn checked<T: std::str::FromStr>(
    flag: &str,
    text: &str,
    valid: impl Fn(&T) -> bool,
) -> Result<T, String> {
    match text.trim().parse() {
        Ok(value) if valid(&value) => Ok(value),
        _ => Err(format!("invalid value '{text}' for {flag}")),
    }
}

/// Parses a non-empty comma-separated list whose every entry is `valid`.
fn list(flag: &str, text: &str, valid: impl Fn(usize) -> bool) -> Result<Vec<usize>, String> {
    let values = text
        .split(',')
        .filter(|s| !s.trim().is_empty())
        .map(|s| checked(flag, s, |&n| valid(n)))
        .collect::<Result<Vec<usize>, String>>()?;
    if values.is_empty() {
        return Err(format!("empty list for {flag}"));
    }
    Ok(values)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(args: &[&str]) -> Result<Invocation, String> {
        parse_args(&args.iter().map(|a| a.to_string()).collect::<Vec<_>>())
    }

    #[test]
    fn defaults_are_sane() {
        let config = Settings::default();
        assert!(config.scale > 0.0);
        assert!(!config.workers.is_empty());
        assert_eq!(config.workers.iter().max(), Some(&16));
        assert!(config.long_threshold_secs > 0.0);
        assert!(config.repeats > 0 && !config.smoke);
    }

    #[test]
    fn smoke_config_is_smaller() {
        let smoke = Settings::smoke();
        let full = Settings::default();
        assert!(smoke.scale < full.scale);
        assert!(smoke.workers.iter().max() < full.workers.iter().max());
        assert!(smoke.smoke);
    }

    #[test]
    fn only_an_explicit_out_writes_a_record() {
        let all = parse(&[]).expect("no arguments");
        assert!(all.out.is_none() && all.validate.is_none());
        assert_eq!(all.figures.len(), FIGURES.len());
        let named = parse(&["table1", "fig8", "--scale", "0.1"]).expect("figure names");
        assert!(named.out.is_none());
        let names: Vec<&str> = named.figures.iter().map(|(name, _)| *name).collect();
        assert_eq!(names, ["table1", "fig8"]);
        assert_eq!(named.settings.scale, 0.1);
        let record = parse(&["--out", "r.json", "--smoke"]).expect("--out");
        assert_eq!(record.out.as_deref(), Some("r.json"));
        assert_eq!(record.figures.len(), FIGURES.len());
        assert!(record.settings.smoke);
        assert_eq!(record.settings.scale, Settings::smoke().scale);
    }

    #[test]
    fn malformed_arguments_are_errors() {
        let too_many_workers = format!("1,{}", max_workers() + 1);
        let bad: [&[&str]; 24] = [
            &["nonsense"],
            &["--bogus"],
            &["--scale"],
            &["--scale", "-1"],
            &["--scale", "0"],
            &["--scale", "nan"],
            &["--scale", "inf"],
            &["--seed", "-3"],
            &["--workers", "abc"],
            &["--workers", "0"],
            &["--workers", ""],
            &["--workers", too_many_workers.as_str()],
            &["--group-sizes", "0,4"],
            &["--time-limit-secs", "-1"],
            &["--time-limit-secs", "nan"],
            &["--time-limit-secs", "inf"],
            &["--time-limit-secs", "1e30"],
            &["--long-threshold", "-0.5"],
            &["--long-threshold", "nan"],
            &["--max-instances", "-1"],
            &["--strategy", "random"],
            &["--repeats", "0"],
            &["table1", "--out", "r.json"],
            &["--validate", "r.json", "--out", "s.json"],
        ];
        for args in bad {
            assert!(parse(args).is_err(), "{args:?} must be rejected");
        }
    }
}
