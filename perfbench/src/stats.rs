//! Sample statistics, host memory, layer spans, failure tally and the
//! result line.

use std::collections::BTreeMap;
use std::time::{Duration, Instant};

use px_util::Json;

/// Linearly interpolated quantile (`q` in `[0, 1]`) of `values`; 0 when
/// there are none.
#[must_use]
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q.clamp(0.0, 1.0) * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

/// Harrell–Davis estimate of the `q` quantile of `values`: a weighted mean
/// of every order statistic, the `i`-th of `n` weighted by the mass of
/// Beta((n+1)q, (n+1)(1-q)) over `[(i-1)/n, i/n]`. A single order statistic
/// jumps when the few values next to it change; this estimate moves
/// smoothly, which keeps the latency quantiles of a seed-drawn operation set
/// steady from seed to seed. 0 when there are none.
#[must_use]
pub fn hd_quantile(values: &[f64], q: f64) -> f64 {
    let n = values.len();
    if n < 2 {
        return values.first().copied().unwrap_or(0.0);
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let q = q.clamp(1e-3, 1.0 - 1e-3);
    let (a, b) = ((n + 1) as f64 * q, (n + 1) as f64 * (1.0 - q));
    // Midpoint rule on the log density, normalised by the total so the Beta
    // function itself is never needed.
    let steps = (8192 / n).max(32);
    let h = 1.0 / (n * steps) as f64;
    let log_pdf: Vec<f64> = (0..n * steps)
        .map(|k| {
            let x = (k as f64 + 0.5) * h;
            (a - 1.0) * x.ln() + (b - 1.0) * (1.0 - x).ln()
        })
        .collect();
    let peak = log_pdf.iter().copied().fold(f64::NEG_INFINITY, f64::max);
    let mut weights = vec![0.0; n];
    for (k, l) in log_pdf.iter().enumerate() {
        weights[k / steps] += (l - peak).exp();
    }
    let total: f64 = weights.iter().sum();
    v.iter().zip(&weights).map(|(x, w)| x * w).sum::<f64>() / total
}

/// Median of `values`; 0 when there are none.
#[must_use]
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// `part / whole`, 0 when `whole` is 0.
#[must_use]
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole == 0.0 {
        0.0
    } else {
        part / whole
    }
}

/// Peak resident set size of this process (`VmHWM`), in MiB.
#[must_use]
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| {
            s.lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Leaf spans recorded around calls into the workspace's layers: total host
/// time and call count per span name. Spans never nest, so their sum is the
/// share of a traced interval attributed to some layer.
#[derive(Debug, Default)]
pub struct Spans {
    totals: BTreeMap<&'static str, (Duration, u64)>,
}

impl Spans {
    /// Runs `f` inside the span `name`.
    pub fn time<R>(&mut self, name: &'static str, f: impl FnOnce() -> R) -> R {
        let start = Instant::now();
        let r = f();
        self.add(name, start.elapsed());
        r
    }

    /// Adds an externally timed interval to the span `name`.
    pub fn add(&mut self, name: &'static str, d: Duration) {
        let e = self.totals.entry(name).or_default();
        e.0 += d;
        e.1 += 1;
    }

    /// Total milliseconds recorded under `name`.
    #[must_use]
    pub fn ms(&self, name: &str) -> f64 {
        self.totals
            .get(name)
            .map_or(0.0, |(d, _)| d.as_secs_f64() * 1e3)
    }

    /// Writes `<span>_ms` for every front-end and px-analyze span of set-up.
    pub fn put_setup(&self, v: &mut Values) {
        for (span, metric) in [
            ("isa.assemble", "isa.assemble_ms"),
            ("lang.compile", "lang.compile_ms"),
            ("workloads.generate", "workloads.generate_ms"),
            ("isa.decode", "isa.decode_ms"),
            ("analyze.analysis", "analyze.analysis_ms"),
            ("analyze.prime_paths", "analyze.prime_paths_ms"),
        ] {
            v.insert(metric, self.ms(span));
        }
    }

    /// Total milliseconds over every span.
    #[must_use]
    pub fn total_ms(&self) -> f64 {
        self.totals
            .values()
            .map(|(d, _)| d.as_secs_f64() * 1e3)
            .sum()
    }
}

/// Operations attempted and failed, with the first few failure messages.
#[derive(Debug, Default)]
pub struct Tally {
    pub attempted: u64,
    pub failed: u64,
}

impl Tally {
    /// Counts one operation; `ok == false` counts it as failed and reports
    /// `what` on standard error.
    pub fn check(&mut self, ok: bool, what: impl FnOnce() -> String) {
        self.count(1, u64::from(!ok), what);
    }

    /// Counts `attempted` operations of which `failed` failed; the first
    /// ten failure reports go to standard error.
    pub fn count(&mut self, attempted: u64, failed: u64, what: impl FnOnce() -> String) {
        self.attempted += attempted;
        if failed > 0 {
            if self.failed < 10 {
                eprintln!("perfbench: FAILED: {}", what());
            }
            self.failed += failed;
        }
    }
}

/// Metric values by name, as a workload measured them.
pub type Values = BTreeMap<&'static str, f64>;

/// The result line: `correct`, `attempted`, `failed` and every metric of
/// `table` (`(name, unit)`) with its value; a metric the workload did not
/// measure, because its layer does no work there, reads 0.
#[must_use]
pub fn result_line(tally: &Tally, table: &[(&'static str, &'static str)], v: &Values) -> String {
    Json::obj([
        ("correct", Json::Bool(tally.failed == 0)),
        ("attempted", Json::UInt(tally.attempted.max(1))),
        ("failed", Json::UInt(tally.failed)),
        (
            "metrics",
            Json::obj(table.iter().map(|&(name, unit)| {
                let value = v.get(name).copied().filter(|x| x.is_finite());
                (
                    name,
                    Json::obj([
                        ("value", Json::Float(value.unwrap_or(0.0))),
                        ("unit", Json::Str(unit.to_owned())),
                    ]),
                )
            })),
        ),
    ])
    .dump()
}

#[cfg(test)]
mod tests {
    use super::hd_quantile;

    #[test]
    fn harrell_davis_is_a_weighted_mean_of_the_order_statistics() {
        assert_eq!(hd_quantile(&[], 0.9), 0.0);
        assert_eq!(hd_quantile(&[4.0], 0.9), 4.0);
        assert!((hd_quantile(&[3.0; 50], 0.9) - 3.0).abs() < 1e-12);
        // Symmetric weights: the median of 1..=n is (n + 1) / 2.
        let ramp: Vec<f64> = (1..=101).rev().map(f64::from).collect();
        assert!((hd_quantile(&ramp, 0.5) - 51.0).abs() < 1e-6);
        // Near the order statistic at rank (n + 1) q, and rising with q.
        let p90 = hd_quantile(&ramp, 0.9);
        assert!((p90 - 91.8).abs() < 0.5, "{p90}");
        assert!(hd_quantile(&ramp, 0.5) < p90 && p90 < hd_quantile(&ramp, 0.99));
    }
}
