//! Offline stand-in for the `criterion` benchmark harness.
//!
//! Provides the subset of the API the workspace's benches use —
//! [`Criterion`], [`BenchmarkGroup`], [`BenchmarkId`], [`Bencher`],
//! [`Throughput`] and the [`criterion_group!`] / [`criterion_main!`]
//! macros — with a simple warm-up + sampling timing loop instead of
//! criterion's statistics machinery. Results are printed one line per
//! benchmark:
//!
//! ```text
//! group/function/param  time: 1.2345 ms/iter  (12 samples)  8.1e4 elem/s
//! ```
//!
//! The numbers are honest wall-clock means, good enough to track the
//! perf trajectory PR over PR; swap the real criterion back in when the
//! build environment gains registry access.

use std::fmt::Display;
use std::time::{Duration, Instant};

/// Throughput annotation for a benchmark group.
#[derive(Clone, Copy, Debug)]
pub enum Throughput {
    /// Elements processed per iteration.
    Elements(u64),
    /// Bytes processed per iteration.
    Bytes(u64),
}

/// Identifier of one benchmark within a group: `function/parameter`.
pub struct BenchmarkId {
    id: String,
}

impl BenchmarkId {
    /// Builds an id from a function name and a parameter value.
    pub fn new<S: Into<String>, P: Display>(function_name: S, parameter: P) -> BenchmarkId {
        BenchmarkId {
            id: format!("{}/{}", function_name.into(), parameter),
        }
    }
}

/// The timing loop handed to each benchmark closure.
pub struct Bencher<'a> {
    samples: usize,
    measurement_time: Duration,
    warm_up_time: Duration,
    /// Mean nanoseconds per iteration, filled in by [`Bencher::iter`].
    result_ns: &'a mut f64,
    sampled: &'a mut usize,
}

impl Bencher<'_> {
    /// Times `f`, storing the mean time per iteration.
    pub fn iter<O, F: FnMut() -> O>(&mut self, mut f: F) {
        // warm-up: run until the warm-up budget is spent (at least once)
        let warm_start = Instant::now();
        loop {
            std::hint::black_box(f());
            if warm_start.elapsed() >= self.warm_up_time {
                break;
            }
        }
        // measurement: up to `samples` timed runs within the time budget
        let mut total = Duration::ZERO;
        let mut runs = 0usize;
        while runs < self.samples && (runs == 0 || total < self.measurement_time) {
            let t0 = Instant::now();
            std::hint::black_box(f());
            total += t0.elapsed();
            runs += 1;
        }
        *self.result_ns = total.as_nanos() as f64 / runs as f64;
        *self.sampled = runs;
    }
}

/// A named collection of related benchmarks.
pub struct BenchmarkGroup<'a> {
    name: String,
    samples: usize,
    warm_up_time: Duration,
    measurement_time: Duration,
    throughput: Option<Throughput>,
    _criterion: &'a mut Criterion,
}

impl BenchmarkGroup<'_> {
    /// Number of timed samples per benchmark.
    pub fn sample_size(&mut self, n: usize) -> &mut Self {
        self.samples = n;
        self
    }

    /// Warm-up budget before sampling starts.
    pub fn warm_up_time(&mut self, d: Duration) -> &mut Self {
        self.warm_up_time = d;
        self
    }

    /// Total sampling budget per benchmark.
    pub fn measurement_time(&mut self, d: Duration) -> &mut Self {
        self.measurement_time = d;
        self
    }

    /// Annotates subsequent benchmarks with a throughput, reported as
    /// elements (or bytes) per second next to the timing.
    pub fn throughput(&mut self, t: Throughput) -> &mut Self {
        self.throughput = Some(t);
        self
    }

    /// Runs one benchmark with an explicit input value.
    pub fn bench_with_input<I: ?Sized, F>(
        &mut self,
        id: BenchmarkId,
        input: &I,
        mut f: F,
    ) -> &mut Self
    where
        F: FnMut(&mut Bencher<'_>, &I),
    {
        let mut ns = f64::NAN;
        let mut sampled = 0usize;
        let mut b = Bencher {
            samples: self.samples,
            measurement_time: self.measurement_time,
            warm_up_time: self.warm_up_time,
            result_ns: &mut ns,
            sampled: &mut sampled,
        };
        f(&mut b, input);
        self.report(&id.id, ns, sampled);
        self
    }

    fn report(&self, id: &str, ns: f64, sampled: usize) {
        let time = if ns >= 1e9 {
            format!("{:.4} s/iter", ns / 1e9)
        } else if ns >= 1e6 {
            format!("{:.4} ms/iter", ns / 1e6)
        } else if ns >= 1e3 {
            format!("{:.4} us/iter", ns / 1e3)
        } else {
            format!("{ns:.1} ns/iter")
        };
        let rate = match self.throughput {
            Some(Throughput::Elements(n)) => {
                format!("  {:.3e} elem/s", n as f64 / (ns / 1e9))
            }
            Some(Throughput::Bytes(n)) => {
                format!("  {:.3e} B/s", n as f64 / (ns / 1e9))
            }
            None => String::new(),
        };
        println!(
            "{}/{id}  time: {time}  ({sampled} samples){rate}",
            self.name
        );
    }

    /// Ends the group (kept for API compatibility; reporting is eager).
    pub fn finish(self) {}
}

/// Entry point mirroring `criterion::Criterion`.
#[derive(Default)]
pub struct Criterion {}

impl Criterion {
    /// Starts a named benchmark group.
    pub fn benchmark_group<S: Into<String>>(&mut self, name: S) -> BenchmarkGroup<'_> {
        BenchmarkGroup {
            name: name.into(),
            samples: 20,
            warm_up_time: Duration::from_millis(300),
            measurement_time: Duration::from_millis(1500),
            throughput: None,
            _criterion: self,
        }
    }
}

/// Declares a benchmark group function, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_group {
    ($name:ident, $($target:path),+ $(,)?) => {
        pub fn $name() {
            let mut criterion = $crate::Criterion::default();
            $($target(&mut criterion);)+
        }
    };
}

/// Declares the bench binary's `main`, mirroring criterion's macro.
#[macro_export]
macro_rules! criterion_main {
    ($($group:path),+ $(,)?) => {
        fn main() {
            $($group();)+
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bencher_reports_positive_time() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("shim");
        g.sample_size(3)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(5));
        let mut ns = f64::NAN;
        let mut sampled = 0;
        let mut b = Bencher {
            samples: 3,
            measurement_time: Duration::from_millis(5),
            warm_up_time: Duration::from_millis(1),
            result_ns: &mut ns,
            sampled: &mut sampled,
        };
        b.iter(|| (0..1000u64).sum::<u64>());
        assert!(ns > 0.0);
        assert!(sampled >= 1);
        g.finish();
    }

    #[test]
    fn group_runs_benchmarks() {
        let mut c = Criterion::default();
        let mut g = c.benchmark_group("g");
        g.sample_size(2)
            .warm_up_time(Duration::from_millis(1))
            .measurement_time(Duration::from_millis(2))
            .throughput(Throughput::Elements(10));
        let input = vec![1u64, 2, 3];
        let mut ran = false;
        g.bench_with_input(BenchmarkId::new("sum", 3), &input, |b, v| {
            b.iter(|| v.iter().sum::<u64>());
            ran = true;
        });
        assert!(ran);
        g.finish();
    }
}
