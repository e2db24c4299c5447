//! Host clocks, min-of-K bookkeeping and the result line.

use std::time::Instant;
use vmcu_bench::json::Json;

/// A CPU-time clock: the time a thread or the process actually ran.
/// Time spent waiting for a CPU that another process holds is not
/// counted, which takes the largest part of a shared host's noise out of
/// single-threaded timings.
#[derive(Debug, Clone, Copy)]
pub enum CpuClock {
    /// `CLOCK_PROCESS_CPUTIME_ID`: every thread of the process.
    Process = 2,
    /// `CLOCK_THREAD_CPUTIME_ID`: the calling thread.
    Thread = 3,
}

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, ts: *mut Timespec) -> i32;
}

impl CpuClock {
    /// CPU seconds counted so far.
    pub fn now_s(self) -> f64 {
        let mut ts = Timespec {
            tv_sec: 0,
            tv_nsec: 0,
        };
        // SAFETY: `ts` is a valid, writable timespec, and the clock ids
        // are Linux's constants for the two CPU-time clocks.
        unsafe { clock_gettime(self as i32, &mut ts) };
        ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
    }
}

/// Runs `f` and returns its result with the CPU seconds `clock` counted.
pub fn cpu_timed<T>(clock: CpuClock, f: impl FnOnce() -> T) -> (T, f64) {
    let start = clock.now_s();
    let out = f();
    (out, clock.now_s() - start)
}

/// Runs `f` and returns its result with the wall-clock seconds it took.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t = Instant::now();
    let out = f();
    (out, t.elapsed().as_secs_f64())
}

/// Builds the workload's inputs `k` times, appending the process CPU
/// seconds of each build to `times`, and returns the last build. The
/// builds are deterministic, so the spread between them is host noise:
/// `setup_s` is the median of every build of a run.
pub fn repeated_setup<T>(k: usize, times: &mut Vec<f64>, mut build: impl FnMut() -> T) -> T {
    let mut last = None;
    for _ in 0..k.max(1) {
        drop(last.take());
        let (built, secs) = cpu_timed(CpuClock::Process, &mut build);
        times.push(secs);
        last = Some(built);
    }
    last.expect("at least one build")
}

/// The fastest time seen for each item of a fixed list, over interleaved
/// passes through the list.
#[derive(Debug, Clone)]
pub struct MinTimes(Vec<f64>);

impl MinTimes {
    /// A slot per item, none measured yet.
    pub fn new(items: usize) -> Self {
        Self(vec![f64::INFINITY; items])
    }

    /// Records one timing of item `i`.
    pub fn record(&mut self, i: usize, secs: f64) {
        self.0[i] = self.0[i].min(secs);
    }

    /// The per-item minima.
    pub fn values(&self) -> &[f64] {
        &self.0
    }

    /// Sum of the per-item minima over measured items, seconds.
    pub fn sum(&self) -> f64 {
        self.0.iter().filter(|t| t.is_finite()).sum()
    }

    /// Median over items measured in both of each item's minimum here
    /// over its minimum in `base`.
    pub fn median_ratio(&self, base: &MinTimes) -> f64 {
        let ratios: Vec<f64> = self
            .0
            .iter()
            .zip(&base.0)
            .filter(|(t, b)| t.is_finite() && b.is_finite())
            .map(|(t, b)| t / b)
            .collect();
        median(&ratios)
    }

    /// Median of the per-item minima over measured items, seconds.
    pub fn median(&self) -> f64 {
        let measured: Vec<f64> = self.0.iter().copied().filter(|t| t.is_finite()).collect();
        median(&measured)
    }
}

/// Median of a sample (mean of the two middle values for even sizes).
pub fn median(values: &[f64]) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        (v[n / 2 - 1] + v[n / 2]) / 2.0
    }
}

/// Geometric mean of positive values.
pub fn geomean(values: impl IntoIterator<Item = f64>) -> f64 {
    let (sum, n) = values
        .into_iter()
        .fold((0.0, 0usize), |(s, n), v| (s + v.ln(), n + 1));
    (sum / n as f64).exp()
}

/// Peak resident set size of this process so far (`VmHWM`), MB.
pub fn peak_rss_mb() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|status| {
            status
                .lines()
                .find_map(|l| l.strip_prefix("VmHWM:"))
                .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        })
        .map_or(f64::NAN, |kb| kb / 1024.0)
}

/// A seed for sub-input `tag` of a run seeded with `seed` (SplitMix64).
pub fn derive_seed(seed: u64, tag: u64) -> u64 {
    let mut z = seed ^ tag.wrapping_mul(0x9E37_79B9_7F4A_7C15);
    z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
    z ^ (z >> 31)
}

/// FNV-1a digest of a string: a compact bit-exact witness of a result's
/// `Debug` rendering (which prints every `f64` in round-trip form).
pub fn digest(text: &str) -> u64 {
    text.bytes().fold(0xCBF2_9CE4_8422_2325, |h, b| {
        (h ^ u64::from(b)).wrapping_mul(0x0100_0000_01B3)
    })
}

/// One reported metric.
#[derive(Debug, Clone)]
pub struct Metric {
    /// Metric name as listed in `BENCHMARK.json`.
    pub name: String,
    /// Unit string.
    pub unit: &'static str,
    /// Measured value.
    pub value: f64,
}

/// What a workload run produced: operation counts and metrics.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Operations attempted.
    pub attempted: u64,
    /// Operations whose output failed a correctness check.
    pub failed: u64,
    /// Metrics in report order.
    pub metrics: Vec<Metric>,
    /// Why failed operations failed (first few), for the log.
    pub errors: Vec<String>,
}

impl Outcome {
    /// Adds a metric; a value that is not a finite number fails the run.
    pub fn metric(&mut self, name: impl Into<String>, unit: &'static str, value: f64) {
        let name = name.into();
        if !value.is_finite() {
            self.check(Err(format!("metric {name} is not a finite number")));
        }
        self.metrics.push(Metric {
            name,
            unit,
            value: if value.is_finite() { value } else { 0.0 },
        });
    }

    /// Counts one checked operation; `Err` marks it failed.
    pub fn check(&mut self, result: Result<(), String>) {
        self.attempted += 1;
        if let Err(why) = result {
            self.failed += 1;
            if self.errors.len() < 20 {
                self.errors.push(why);
            }
        }
    }

    /// The single-line JSON result.
    pub fn result_line(&self) -> String {
        let metrics = self
            .metrics
            .iter()
            .map(|m| {
                (
                    m.name.clone(),
                    Json::Object(vec![
                        ("value".into(), Json::Num(m.value)),
                        ("unit".into(), Json::str(m.unit)),
                    ]),
                )
            })
            .collect();
        let doc = Json::Object(vec![
            ("correct".into(), Json::Bool(self.failed == 0)),
            ("attempted".into(), Json::from(self.attempted)),
            ("failed".into(), Json::from(self.failed)),
            ("metrics".into(), Json::Object(metrics)),
        ]);
        // One line: the pretty printer's newlines and indentation go.
        doc.to_string_pretty()
            .lines()
            .map(str::trim)
            .collect::<Vec<_>>()
            .join(" ")
    }
}
