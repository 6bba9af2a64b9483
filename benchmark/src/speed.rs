//! The speed of the CPU the program runs on, measured with a fixed
//! reference kernel between operations, so timings can be reported at a
//! reference speed.
//!
//! On the shared 2-core box where the benchmark was written, the same
//! `cfd discover` took 110 ms in one minute and 180 ms in the next, and
//! each core slowed on its own: other tenants' traffic on the same
//! physical core slows whatever runs on it, for seconds to minutes at a
//! time, often longer than a run. With the benchmark and the program on
//! one core, a hash-map build of a few MiB, its pages faulted in afresh
//! as a new process's are, slowed with `cfd discover` (correlation 0.8
//! over 300 pairs): over 15 stretches of 5 s the program's time spread
//! by 0.33 (inter-quartile distance ÷ median) and its ratio to the
//! kernel's by 0.05. Unpinned, the two ran on different cores and did not
//! correlate at all. So a workload whose program is single-threaded runs
//! on one CPU ([`OneCpu`]) and runs the kernel between operations, at
//! most once a second, and each timing is divided by the slowdown the
//! latest kernel run measured against [`REF_MS`]. The kernel is the
//! benchmark's own code and uses none of the repository's, so no change
//! under test can move it.
//!
//! Over ten seeds the medians of `mine`, `bulk` and `watch` so
//! normalized spread by 0.081, 0.041 and 0.042, against 0.24, 0.25 and
//! 0.34 as measured on the same core. Dividing a whole run's timings by
//! its median kernel time instead left 0.11, 0.063 and 0.11: the speed
//! moves within a run.

use crate::Res;
use std::collections::hash_map::DefaultHasher;
use std::collections::HashMap;
use std::hash::BuildHasherDefault;
use std::time::{Duration, Instant};

/// The kernel's time at reference speed, in ms: about its median on the
/// 2-core box where the benchmark was written, in a quiet stretch.
pub const REF_MS: f64 = 45.0;
/// The kernel's three parts: register-only steps, a hash map of a few
/// MiB built by random inserts (`INSERTS` over `KEYS` distinct keys),
/// and sequential passes over `SCAN_WORDS` words. Stretches of the box
/// slowed each of the program's paths by a different mix of the three;
/// their sum tracked all four one-shot commands about as well as the
/// best single part did for each.
const REG_STEPS: u64 = 2_500_000;
const INSERTS: u32 = 300_000;
const KEYS: u64 = 200_000;
const SCAN_WORDS: u64 = 2_000_000;
const SCANS: usize = 3;
/// Least time between two samples taken by [`Speed::tick`], so sampling
/// costs a few percent of a segment.
const EVERY: Duration = Duration::from_secs(1);

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// One run of the reference kernel, in ms: the same work every time.
fn kernel_ms() -> f64 {
    // hand the previous run's pages back, so every run faults its memory
    // in as a freshly started program does
    crate::proc::shrink_self();
    let t = Instant::now();
    let mut x = 0x9e37_79b9_7f4a_7c15u64;
    let mut acc = 0u64;
    for _ in 0..REG_STEPS {
        acc = acc.wrapping_add(xorshift(&mut x));
    }
    // fixed hash keys: the map's layout, hence its work, never varies
    let mut m: HashMap<u64, u32, BuildHasherDefault<DefaultHasher>> = HashMap::default();
    for i in 0..INSERTS {
        *m.entry(xorshift(&mut x) % KEYS).or_default() += i;
    }
    let words: Vec<u64> = (0..SCAN_WORDS).map(|i| i ^ acc).collect();
    for _ in 0..SCANS {
        acc = words.iter().fold(acc, |a, w| a.wrapping_add(*w));
    }
    std::hint::black_box((acc, m.len()));
    drop((m, words));
    t.elapsed().as_secs_f64() * 1e3
}

/// Kernel runs of one stretch of a run.
#[derive(Default)]
pub struct Speed {
    samples: Vec<f64>,
    last: Option<Instant>,
}

impl Speed {
    /// Runs the kernel once.
    pub fn sample(&mut self) {
        self.samples.push(kernel_ms());
        self.last = Some(Instant::now());
    }

    /// Runs the kernel if [`EVERY`] has passed since the last run.
    pub fn tick(&mut self) {
        if self.last.is_none_or(|t| t.elapsed() >= EVERY) {
            self.sample();
        }
    }

    pub fn samples(&self) -> &[f64] {
        &self.samples
    }

    /// How much slower than the reference the latest kernel run went: a
    /// time divided by it is the time at reference speed. 1 before any
    /// run, so timings taken without one stand as measured.
    pub fn slowdown(&self) -> f64 {
        self.samples.last().map_or(1.0, |k| k / REF_MS)
    }
}

/// Timings of one stretch of a run (its set-ups, or its measured
/// window), each kept with the slowdown measured just before it.
#[derive(Default)]
pub struct Timings {
    pub speed: Speed,
    wall: Vec<f64>,
    slowdown: Vec<f64>,
}

impl Timings {
    pub fn push(&mut self, wall: f64) {
        self.wall.push(wall);
        self.slowdown.push(self.speed.slowdown());
    }

    /// The timings as measured.
    pub fn wall(&self) -> &[f64] {
        &self.wall
    }

    /// The timings at reference speed.
    pub fn at_ref(&self) -> Vec<f64> {
        self.wall
            .iter()
            .zip(&self.slowdown)
            .map(|(w, s)| w / s)
            .collect()
    }
}

/// `cpu_set_t`: a bit per CPU, 1024 of them.
type CpuSet = [u64; 16];

#[cfg(target_os = "linux")]
mod affinity {
    use super::CpuSet;
    use std::ffi::c_int;

    extern "C" {
        fn sched_getaffinity(pid: c_int, size: usize, mask: *mut CpuSet) -> c_int;
        fn sched_setaffinity(pid: c_int, size: usize, mask: *const CpuSet) -> c_int;
    }

    pub fn get() -> std::io::Result<CpuSet> {
        let mut set = [0; 16];
        // SAFETY: pid 0 is the calling thread, and `set` is a writable
        // buffer of exactly the size passed.
        let r = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) };
        if r == 0 {
            Ok(set)
        } else {
            Err(std::io::Error::last_os_error())
        }
    }

    pub fn set(set: &CpuSet) -> std::io::Result<()> {
        // SAFETY: pid 0 is the calling thread; the kernel only reads the
        // `size` bytes of `set`.
        let r = unsafe { sched_setaffinity(0, std::mem::size_of::<CpuSet>(), set) };
        if r == 0 {
            Ok(())
        } else {
            Err(std::io::Error::last_os_error())
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod affinity {
    use super::CpuSet;

    fn unsupported() -> std::io::Error {
        std::io::Error::new(
            std::io::ErrorKind::Unsupported,
            "pinning to one CPU needs sched_setaffinity(2) on Linux",
        )
    }

    pub fn get() -> std::io::Result<CpuSet> {
        Err(unsupported())
    }

    pub fn set(_: &CpuSet) -> std::io::Result<()> {
        Err(unsupported())
    }
}

/// Confines the calling thread, and every process it starts, to the
/// highest-numbered CPU it may use, until dropped: then the kernel
/// samples the speed of the core the program runs on.
pub struct OneCpu {
    original: CpuSet,
}

impl OneCpu {
    pub fn pin() -> Res<OneCpu> {
        let original = affinity::get()?;
        let cpu = (0..original.len() * 64)
            .rev()
            .find(|&c| original[c / 64] & (1 << (c % 64)) != 0)
            .ok_or("the thread may run on no CPU")?;
        let mut one = [0; 16];
        one[cpu / 64] = 1 << (cpu % 64);
        affinity::set(&one)?;
        Ok(OneCpu { original })
    }
}

impl Drop for OneCpu {
    fn drop(&mut self) {
        let _ = affinity::set(&self.original);
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn timings_take_the_latest_slowdown() {
        let mut t = Timings::default();
        t.push(10.0);
        t.speed.tick();
        t.speed.tick();
        assert_eq!(t.speed.samples().len(), 1, "one run per interval");
        t.push(10.0);
        let slowdown = t.speed.samples()[0] / REF_MS;
        assert_eq!(t.wall(), [10.0, 10.0]);
        assert_eq!(
            t.at_ref(),
            [10.0, 10.0 / slowdown],
            "stands as measured before any run"
        );
    }

    #[test]
    fn pinning_confines_to_one_cpu_and_restores() {
        let before = affinity::get().unwrap();
        {
            let _pin = OneCpu::pin().unwrap();
            let ones: u32 = affinity::get()
                .unwrap()
                .iter()
                .map(|w| w.count_ones())
                .sum();
            assert_eq!(ones, 1);
        }
        assert_eq!(affinity::get().unwrap(), before);
    }
}
