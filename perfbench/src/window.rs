//! Windows of a timed loop and the figures taken from them.
//!
//! A loop runs in windows (a second of requests, one burst of short
//! queries) with other timed operations between them.  Every figure pools
//! the samples of the whole run: a stall anywhere in it moves the figure.

use crate::stats::{median, ratio, tail_percentile};

/// What the operations of one window observed.
#[derive(Default)]
pub struct Window {
    /// Count-only (buffered) operations completed, and the time spent in
    /// them, in seconds.
    pub ops: u64,
    pub wall: f64,
    /// Latency of each count-only operation.
    pub latency_ms: Vec<f64>,
    /// Traced serving loops only: each response's `latency_seconds` (ms)
    /// and size in bytes.
    pub service_ms: Vec<f64>,
    pub response_bytes: Vec<f64>,
}

/// `p50_ms`: the median latency of every count-only operation of the run.
pub fn p50_ms(windows: &[Window]) -> f64 {
    median(&pooled(windows, |w| &w.latency_ms))
}

/// One line on the loop: windows, count-only samples, and throughput and
/// tail percentiles over the whole loop.
pub fn sample_note(windows: &[Window]) -> String {
    let latency = pooled(windows, |w| &w.latency_ms);
    let ops: u64 = windows.iter().map(|w| w.ops).sum();
    let wall: f64 = windows.iter().map(|w| w.wall).sum();
    let tail = |q: f64| {
        tail_percentile(&latency, q).map_or("-".into(), |(value, rank)| {
            format!("{value:.4} (percentile {:.2})", rank * 100.0)
        })
    };
    format!(
        "{} windows, {} count-only samples: qps {:.1}, p50_ms {:.4}, p90_ms {}, p99_ms {}",
        windows.len(),
        latency.len(),
        ratio(ops as f64, wall),
        median(&latency),
        tail(0.90),
        tail(0.99)
    )
}

/// One field of every window, pooled.
pub fn pooled(windows: &[Window], field: fn(&Window) -> &[f64]) -> Vec<f64> {
    windows
        .iter()
        .flat_map(|w| field(w).iter().copied())
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    fn window(latency_ms: &[f64]) -> Window {
        Window {
            ops: latency_ms.len() as u64,
            wall: latency_ms.iter().sum::<f64>() / 1e3,
            latency_ms: latency_ms.to_vec(),
            ..Window::default()
        }
    }

    #[test]
    fn p50_pools_every_window() {
        // A slow window moves the figure: 300 samples at 1 ms, 200 at 3 ms.
        let windows = [window(&[1.0; 300]), window(&[3.0; 200])];
        assert_eq!(p50_ms(&windows), 1.0);
        let windows = [window(&[1.0; 200]), window(&[3.0; 300])];
        assert_eq!(p50_ms(&windows), 3.0);
        // Windows without samples are skipped; none at all gives no figure.
        assert_eq!(p50_ms(&[Window::default(), window(&[2.0; 5])]), 2.0);
        assert!(p50_ms(&[Window::default()]).is_nan());
    }

    #[test]
    fn the_note_pools_the_whole_loop() {
        let steady = window(&[1.0; 500]);
        let mut stalled = vec![1.0; 480];
        stalled.extend([40.0; 20]);
        let note = sample_note(&[steady, window(&stalled)]);
        assert!(
            note.contains("2 windows, 1000 count-only samples"),
            "{note}"
        );
        // 1000 samples: p99 is rank 990, inside the 20 stalled ones.
        assert!(note.contains("p99_ms 40.0000 (percentile 99.00)"), "{note}");
        assert!(note.contains("p90_ms 1.0000 (percentile 90.00)"), "{note}");
        // 1000 operations in 0.5 + 1.28 s.
        assert!(note.contains("qps 561.8"), "{note}");
        assert!(sample_note(&[Window::default()]).contains("p99_ms -"));
    }
}
