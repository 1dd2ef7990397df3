//! A self-timing bench harness: warmup, then median-of-N samples, with
//! human-readable and JSON-lines output.
//!
//! Mirrors the slice of the `criterion` API the bench targets used
//! (`benchmark_group`, `sample_size`, `throughput`, `bench_function`), so
//! `cargo bench` keeps working with `harness = false` targets whose `main`
//! is generated by [`px_bench_main!`](crate::px_bench_main).

use std::time::Instant;

use crate::json::{Json, ToJson};

/// Units the per-iteration throughput is reported in.
#[derive(Debug, Clone, Copy)]
pub enum Throughput {
    /// Items processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// One finished measurement.
#[derive(Debug, Clone)]
pub struct Summary {
    /// `group/function` identifier.
    pub id: String,
    /// Samples taken (after warmup).
    pub samples: u32,
    /// Median nanoseconds per iteration.
    pub median_ns: u64,
    /// Fastest sample.
    pub min_ns: u64,
    /// Slowest sample.
    pub max_ns: u64,
    /// Declared per-iteration workload, if any.
    pub throughput: Option<Throughput>,
}

impl Summary {
    /// Work units per second at the median, if a throughput was declared.
    #[must_use]
    pub fn per_second(&self) -> Option<f64> {
        let units = match self.throughput? {
            Throughput::Elements(n) | Throughput::Bytes(n) => n,
        };
        (self.median_ns > 0).then(|| units as f64 * 1e9 / self.median_ns as f64)
    }
}

impl ToJson for Summary {
    fn to_json(&self) -> Json {
        let (unit, units) = match self.throughput {
            Some(Throughput::Elements(n)) => ("elements", Some(n)),
            Some(Throughput::Bytes(n)) => ("bytes", Some(n)),
            None => ("none", None),
        };
        Json::obj([
            ("id", self.id.to_json()),
            ("samples", self.samples.to_json()),
            ("median_ns", self.median_ns.to_json()),
            ("min_ns", self.min_ns.to_json()),
            ("max_ns", self.max_ns.to_json()),
            ("throughput_unit", unit.to_json()),
            ("throughput_per_iter", units.to_json()),
            ("per_second", self.per_second().to_json()),
        ])
    }
}

/// The timing loop handed to each bench body.
pub struct Bencher {
    warmup: u32,
    samples: u32,
    collected: Vec<u64>,
}

impl Bencher {
    /// Runs `f` for warmup, then `samples` timed iterations.
    pub fn iter<R>(&mut self, mut f: impl FnMut() -> R) {
        for _ in 0..self.warmup {
            std::hint::black_box(f());
        }
        self.collected = (0..self.samples)
            .map(|_| {
                let start = Instant::now();
                std::hint::black_box(f());
                u64::try_from(start.elapsed().as_nanos()).unwrap_or(u64::MAX)
            })
            .collect();
    }
}

/// Collects measurements; the replacement for `criterion::Criterion`.
#[derive(Debug, Default)]
pub struct Bench {
    results: Vec<Summary>,
}

impl Bench {
    /// A fresh harness (any CLI arguments `cargo bench` forwards are
    /// accepted and ignored).
    #[must_use]
    pub fn new() -> Bench {
        Bench::default()
    }

    /// Opens a named group of measurements.
    pub fn benchmark_group(&mut self, name: &str) -> Group<'_> {
        Group {
            bench: self,
            name: name.to_owned(),
            sample_size: 20,
            throughput: None,
        }
    }

    /// Measures one ungrouped function with default settings.
    pub fn bench_function(&mut self, id: &str, body: impl FnMut(&mut Bencher)) -> &mut Bench {
        self.record(id.to_owned(), 20, None, body);
        self
    }

    fn record(
        &mut self,
        id: String,
        samples: u32,
        throughput: Option<Throughput>,
        mut body: impl FnMut(&mut Bencher),
    ) {
        let mut bencher = Bencher {
            warmup: (samples / 4).clamp(1, 5),
            samples,
            collected: Vec::new(),
        };
        body(&mut bencher);
        assert!(
            !bencher.collected.is_empty(),
            "bench body for `{id}` never called Bencher::iter"
        );
        let mut sorted = bencher.collected;
        sorted.sort_unstable();
        self.results.push(Summary {
            id,
            samples,
            median_ns: sorted[sorted.len() / 2],
            min_ns: sorted[0],
            max_ns: *sorted.last().expect("nonempty"),
            throughput,
        });
    }

    /// Prints every summary (human table + JSON lines) and returns them.
    pub fn finish(self) -> Vec<Summary> {
        let width = self.results.iter().map(|r| r.id.len()).max().unwrap_or(4);
        for r in &self.results {
            let rate = r.per_second().map_or(String::new(), |p| {
                let unit = match r.throughput {
                    Some(Throughput::Bytes(_)) => "B/s",
                    _ => "elem/s",
                };
                format!("  ({p:.3e} {unit})")
            });
            println!(
                "{:width$}  median {}  [{} .. {}]{rate}",
                r.id,
                fmt_ns(r.median_ns),
                fmt_ns(r.min_ns),
                fmt_ns(r.max_ns),
            );
        }
        print!("{}", crate::json::to_json_lines(&self.results));
        self.results
    }
}

/// A named group sharing sample-size and throughput settings.
pub struct Group<'a> {
    bench: &'a mut Bench,
    name: String,
    sample_size: u32,
    throughput: Option<Throughput>,
}

impl Group<'_> {
    /// Sets the number of timed samples per function.
    pub fn sample_size(&mut self, n: u32) -> &mut Self {
        self.sample_size = n.max(1);
        self
    }

    /// Declares the per-iteration workload for rate reporting.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Measures one function in this group.
    pub fn bench_function(&mut self, id: &str, body: impl FnMut(&mut Bencher)) -> &mut Self {
        self.bench.record(
            format!("{}/{id}", self.name),
            self.sample_size,
            self.throughput,
            body,
        );
        self
    }

    /// Ends the group (kept for criterion API parity; dropping works too).
    pub fn finish(self) {}
}

fn fmt_ns(ns: u64) -> String {
    if ns >= 1_000_000_000 {
        format!("{:.3}s", ns as f64 / 1e9)
    } else if ns >= 1_000_000 {
        format!("{:.3}ms", ns as f64 / 1e6)
    } else if ns >= 1_000 {
        format!("{:.3}us", ns as f64 / 1e3)
    } else {
        format!("{ns}ns")
    }
}

/// Generates `fn main()` for a `harness = false` bench target: runs every
/// listed `fn(&mut Bench)` and prints the collected summaries.
#[macro_export]
macro_rules! px_bench_main {
    ($($f:ident),+ $(,)?) => {
        fn main() {
            let mut harness = $crate::bench::Bench::new();
            $( $f(&mut harness); )+
            harness.finish();
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn measures_and_summarizes() {
        let mut c = Bench::new();
        let mut group = c.benchmark_group("g");
        group.sample_size(5);
        group.throughput(Throughput::Elements(100));
        group.bench_function("busy", |b| b.iter(|| (0..1000u64).sum::<u64>()));
        group.finish();
        c.bench_function("top", |b| b.iter(|| 1 + 1));
        let results = c.finish();
        assert_eq!(results.len(), 2);
        assert_eq!(results[0].id, "g/busy");
        assert_eq!(results[0].samples, 5);
        assert!(results[0].min_ns <= results[0].median_ns);
        assert!(results[0].median_ns <= results[0].max_ns);
        assert!(results[0].per_second().is_some());
        assert_eq!(results[1].id, "top");
        assert!(results[1].per_second().is_none());
    }

    #[test]
    fn summary_json_row_shape() {
        let s = Summary {
            id: "g/f".into(),
            samples: 10,
            median_ns: 1500,
            min_ns: 1000,
            max_ns: 2000,
            throughput: Some(Throughput::Bytes(3000)),
        };
        let dumped = s.to_json().dump();
        assert!(
            dumped.starts_with(r#"{"id":"g/f","samples":10,"median_ns":1500"#),
            "{dumped}"
        );
        assert!(dumped.contains(r#""throughput_unit":"bytes""#), "{dumped}");
    }

    #[test]
    fn ns_formatting() {
        assert_eq!(fmt_ns(12), "12ns");
        assert_eq!(fmt_ns(1_500), "1.500us");
        assert_eq!(fmt_ns(2_500_000), "2.500ms");
        assert_eq!(fmt_ns(3_000_000_000), "3.000s");
    }
}
