//! Sample statistics, goodput accounting and process memory — the parts
//! of the benchmark that turn raw observations into reported numbers.

use lira_core::telemetry::json::Json;
use lira_core::telemetry::TelemetrySnapshot;

/// Median of `values` (mean of the two middle values for an even count).
/// Panics on an empty slice: every caller measures at least one sample.
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// The 1-based nearest rank of quantile `q` ∈ (0, 1] among `n` samples
/// (the tolerance keeps 0.9 × 100 from rounding up to 91).
fn nearest_rank(n: usize, q: f64) -> usize {
    ((q * n as f64 - 1e-9).ceil() as usize).clamp(1, n)
}

/// Nearest-rank quantile `q` ∈ (0, 1] of `values`.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    assert!(!values.is_empty(), "quantile of no samples");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    v[nearest_rank(v.len(), q) - 1]
}

/// The percentiles worth printing for `n` samples, with their labels:
/// the median always, and each tail percentile only when at least ten
/// samples lie beyond it.
pub fn reportable_percentiles(n: usize) -> Vec<(f64, &'static str)> {
    let tails = [(0.9, "p90"), (0.99, "p99"), (0.999, "p99_9")];
    let mut out = vec![(0.5, "p50")];
    out.extend(
        tails
            .into_iter()
            .filter(|&(q, _)| n > 0 && n - nearest_rank(n, q) >= 10),
    );
    out
}

/// One human-readable line per reportable percentile of a latency sample
/// set, each with the sample count it rests on.
pub fn percentile_lines(name: &str, unit: &str, samples: &[f64]) -> Vec<String> {
    if samples.is_empty() {
        return vec![format!("{name}: no samples")];
    }
    reportable_percentiles(samples.len())
        .into_iter()
        .map(|(q, label)| {
            let v = if q == 0.5 {
                median(samples)
            } else {
                quantile(samples, q)
            };
            format!("{name}_{label} = {v:.3} {unit} (n={})", samples.len())
        })
        .collect()
}

/// The admission counters of a session's deterministic report — the
/// server's own account of what it absorbed, as opposed to what the
/// client put on the wire.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct Admission {
    /// Updates the session received in `Batch` frames.
    pub received: u64,
    /// Updates admitted to the bounded shard queues (each one later
    /// ingested by the engine).
    pub admitted: u64,
    /// Updates dropped at full shard queues.
    pub dropped: u64,
    /// Protocol and semantic errors charged by the session.
    pub protocol_errors: u64,
}

impl Admission {
    /// Reads the counters from a deterministic report core (the JSON
    /// object `SessionCore::deterministic_json` produces).
    pub fn from_core(core: &str) -> Result<Self, String> {
        let json = Json::parse(core).map_err(|e| format!("report core does not parse: {e:?}"))?;
        let field = |key: &str| {
            json.get(key)
                .and_then(Json::as_u64)
                .ok_or_else(|| format!("report core lacks `{key}`"))
        };
        Ok(Admission {
            received: field("updates_rx")?,
            admitted: field("updates_admitted")?,
            dropped: field("updates_dropped")?,
            protocol_errors: field("protocol_errors")?,
        })
    }

    /// Updates the engine absorbed per wall-second.
    pub fn ingest_ups(&self, wall_s: f64) -> f64 {
        self.admitted as f64 / wall_s
    }

    /// Updates lost between the wire and the engine — dropped at the
    /// queues, plus one per protocol error — as a share of those sent.
    pub fn drop_frac(&self, sent: u64) -> f64 {
        (self.dropped + self.protocol_errors) as f64 / sent.max(1) as f64
    }

    /// Share of received updates the queues admitted.
    pub fn admit_ratio(&self) -> f64 {
        self.admitted as f64 / self.received.max(1) as f64
    }

    /// Every received update was either admitted or dropped, and the
    /// session received exactly what the client sent.
    pub fn balances(&self, sent: u64) -> bool {
        self.received == sent && self.admitted + self.dropped == self.received
    }
}

/// The exact sum (converted from µs to s) and sample count of the
/// histogram `name` in `snapshot`, never its quantiles; zeros when the
/// histogram is absent.
pub fn hist_sum_s(snapshot: &TelemetrySnapshot, name: &str) -> (f64, u64) {
    snapshot
        .histograms
        .iter()
        .find(|h| h.name == name)
        .map_or((0.0, 0), |h| (h.sum as f64 / 1e6, h.count))
}

/// Peak resident set size of this process in MiB (`VmHWM`), or `None`
/// where `/proc` is unavailable.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kib: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kib / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A report core as `SessionCore::deterministic_json` emits it for
    /// 1M nodes after a prime that overflowed the queues.
    const CANNED_CORE: &str = r#"{"protocol_version":1,"slices":64,"shards":2,"queue_capacity":100000,"frames_rx":140,"batches_rx":120,"updates_rx":3885268,"updates_admitted":600000,"updates_dropped":3285268,"eval_rounds":10,"last_results":10000,"digest":"00000000deadbeef","windows":10,"z":1,"plan_epoch":10,"plan_broadcasts":10,"plan_bytes":40960,"plan_regions":250,"registered_queries":10000,"slice_rewrites":0,"protocol_errors":0,"connections":[]}"#;

    #[test]
    fn goodput_counts_admitted_updates_not_wire_sends() {
        let a = Admission::from_core(CANNED_CORE).unwrap();
        assert_eq!(a.admitted, 600_000);
        assert!(a.balances(3_885_268));
        // 600k admitted over 4 s is 150k ups, although 3.9M went out.
        assert_eq!(a.ingest_ups(4.0), 150_000.0);
        let drop = a.drop_frac(3_885_268);
        assert!((drop - 3_285_268.0 / 3_885_268.0).abs() < 1e-15);
        assert!((0.845..0.846).contains(&drop), "{drop}");
        assert!((a.admit_ratio() - 600_000.0 / 3_885_268.0).abs() < 1e-15);
    }

    #[test]
    fn protocol_errors_count_as_lost_updates() {
        let core = CANNED_CORE.replace(r#""protocol_errors":0"#, r#""protocol_errors":5"#);
        let a = Admission::from_core(&core).unwrap();
        assert_eq!(a.drop_frac(100), (3_285_268.0 + 5.0) / 100.0);
    }

    #[test]
    fn unbalanced_or_truncated_reports_are_caught() {
        let a = Admission::from_core(CANNED_CORE).unwrap();
        assert!(!a.balances(3_885_269), "a lost update must not balance");
        assert!(Admission::from_core(r#"{"updates_rx":1}"#).is_err());
        assert!(Admission::from_core("not json").is_err());
    }

    #[test]
    fn tail_percentiles_need_ten_samples_beyond() {
        let labels =
            |n| -> Vec<&str> { reportable_percentiles(n).into_iter().map(|x| x.1).collect() };
        assert_eq!(labels(99), ["p50"]);
        assert_eq!(labels(100), ["p50", "p90"]);
        assert_eq!(labels(1000), ["p50", "p90", "p99"]);
        assert_eq!(labels(10_000), ["p50", "p90", "p99", "p99_9"]);
        let samples: Vec<f64> = (1..=100).map(f64::from).collect();
        let lines = percentile_lines("eval_ms", "ms", &samples);
        assert_eq!(lines.len(), 2);
        assert_eq!(lines[0], "eval_ms_p50 = 50.500 ms (n=100)");
        assert_eq!(lines[1], "eval_ms_p90 = 90.000 ms (n=100)");
    }

    #[test]
    fn median_and_quantile() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 2.0, 3.0]), 2.5);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 0.75), 3.0);
        assert_eq!(quantile(&[1.0, 2.0, 3.0, 4.0], 1.0), 4.0);
    }
}
