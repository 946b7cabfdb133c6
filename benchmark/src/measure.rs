//! Metric records, order statistics, the measured loop and host facts.

use std::time::Instant;

/// One reported number.
#[derive(Debug, Clone)]
pub struct Metric {
    pub name: &'static str,
    pub value: f64,
    pub unit: &'static str,
    /// Samples behind a median or percentile; `None` for counts and
    /// single measurements.
    pub samples: Option<usize>,
}

impl Metric {
    pub fn new(name: &'static str, value: f64, unit: &'static str) -> Self {
        Self {
            name,
            value,
            unit,
            samples: None,
        }
    }

    pub fn sampled(name: &'static str, value: f64, unit: &'static str, samples: usize) -> Self {
        Self {
            name,
            value,
            unit,
            samples: Some(samples),
        }
    }
}

/// What one workload run produced.
#[derive(Debug, Default)]
pub struct Outcome {
    /// Every output check passed.
    pub correct: bool,
    /// Checked operations attempted, and those whose output was wrong:
    /// replays of a cluster workload, requests of the live one.
    pub attempted: u64,
    pub failed: u64,
    /// `moe-par` workers the measured work ran on.
    pub workers: usize,
    pub metrics: Vec<Metric>,
    /// Output-check findings and run facts, printed before the metrics.
    pub notes: Vec<String>,
}

impl Outcome {
    pub fn check(&mut self, ok: bool, what: &str) {
        self.notes.push(format!(
            "check {}: {what}",
            if ok { "ok" } else { "FAILED" }
        ));
        self.correct &= ok;
    }

    /// Count `attempted` checked operations of which `failed` produced
    /// wrong output, and record the check.
    pub fn operations(&mut self, attempted: u64, failed: u64, what: &str) {
        self.attempted += attempted;
        self.failed += failed;
        self.check(
            failed == 0,
            &format!("{} of {attempted} {what}", attempted - failed),
        );
    }
}

/// Nearest-rank percentile (`p` in 0..=100) of unsorted samples; 0 when
/// empty.
pub fn percentile(samples: &[f64], p: f64) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let rank = ((p / 100.0) * v.len() as f64).ceil() as usize;
    v[rank.clamp(1, v.len()) - 1]
}

pub fn median(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        return 0.0;
    }
    let mut v = samples.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    }
}

pub fn mean(samples: &[f64]) -> f64 {
    if samples.is_empty() {
        0.0
    } else {
        samples.iter().sum::<f64>() / samples.len() as f64
    }
}

/// `part / whole`, 0 when `whole` is 0.
pub fn ratio(part: f64, whole: f64) -> f64 {
    if whole > 0.0 {
        part / whole
    } else {
        0.0
    }
}

/// Host seconds `f` takes, with its result.
pub fn timed<T>(f: impl FnOnce() -> T) -> (T, f64) {
    let t0 = Instant::now();
    let out = f();
    (out, t0.elapsed().as_secs_f64())
}

/// The calibration kernel's median time on the host the bounds were
/// tuned on (a 2-vCPU Xeon VM at 2.0 GHz).
pub const CALIBRATION_REF_S: f64 = 0.008;

/// A fixed workload owned by the benchmark, independent of the program
/// under test: sort 150k pseudo-random words, then sweep an 8 MB buffer
/// twice with a stride. Its time tracks how fast the shared host runs
/// right now.
fn calibration_kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut words: Vec<u64> = (0..150_000)
        .map(|_| {
            x ^= x << 13;
            x ^= x >> 7;
            x ^= x << 17;
            x
        })
        .collect();
    words.sort_unstable();
    let buf: Vec<u64> = (0..1_000_000).collect();
    let mut acc = 0u64;
    for _ in 0..2 {
        for (i, b) in buf.iter().enumerate().step_by(7) {
            acc = acc.wrapping_add(b ^ words[i % words.len()]);
        }
    }
    std::hint::black_box(acc)
}

/// Host seconds of one calibration-kernel run on each of `threads`
/// threads at once: the slowest, as for work forked across them.
fn calibrate(threads: usize) -> f64 {
    timed(|| {
        std::thread::scope(|scope| {
            for _ in 1..threads {
                scope.spawn(calibration_kernel);
            }
            calibration_kernel()
        })
    })
    .1
}

/// One measured interval: its host wall seconds and the mean time of
/// the calibration kernel run just before and just after it.
#[derive(Debug, Clone, Copy)]
pub struct Sample {
    pub wall_s: f64,
    pub cal_s: f64,
}

impl Sample {
    /// Host seconds rescaled to the reference host.
    fn scaled_s(&self) -> f64 {
        ratio(self.wall_s, self.cal_s) * CALIBRATION_REF_S
    }
}

/// Time `f`, bracketed by the calibration kernel on `threads` threads.
fn bracketed<T>(threads: usize, f: impl FnOnce() -> T) -> (T, Sample) {
    let before = calibrate(threads);
    let (out, wall_s) = timed(f);
    let after = calibrate(threads);
    let cal_s = 0.5 * (before + after);
    (out, Sample { wall_s, cal_s })
}

/// Run `body` repeatedly until the measured iterations add up to
/// `seconds` (and at least `min_iters` ran), bracketing each with the
/// calibration kernel on the `threads` threads the body keeps busy.
/// Each call gets a fresh `prepare()` value and hands its result to
/// `keep`; both run outside the timed window, and `keep` decides what
/// outlives the iteration.
pub fn measured_loop<P, T>(
    seconds: f64,
    min_iters: usize,
    threads: usize,
    mut prepare: impl FnMut() -> P,
    mut body: impl FnMut(P) -> Result<T, String>,
    mut keep: impl FnMut(f64, T),
) -> Result<Vec<Sample>, String> {
    let mut samples = Vec::new();
    let mut total = 0.0;
    while total < seconds || samples.len() < min_iters {
        let input = prepare();
        let (out, sample) = bracketed(threads, || body(input));
        keep(sample.wall_s, out?);
        total += sample.wall_s;
        samples.push(sample);
    }
    Ok(samples)
}

/// Time `reps` calls to the single-threaded `setup`, each bracketed by
/// the calibration kernel.
pub fn setup_samples(
    reps: usize,
    mut setup: impl FnMut() -> Result<(), String>,
) -> Result<Vec<Sample>, String> {
    (0..reps)
        .map(|_| {
            let (out, sample) = bracketed(1, &mut setup);
            out.map(|()| sample)
        })
        .collect()
}

/// The process's resident-set high-water mark in MiB (Linux `VmHWM`).
pub fn peak_rss_mb() -> Result<f64, String> {
    let status = std::fs::read_to_string("/proc/self/status")
        .map_err(|e| format!("cannot read process status: {e}"))?;
    let kb = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|rest| {
            rest.trim()
                .trim_end_matches("kB")
                .trim()
                .parse::<f64>()
                .ok()
        })
        .ok_or("process status has no VmHWM line")?;
    Ok(kb / 1024.0)
}

/// The end-to-end metrics every workload reports. Times are host
/// seconds rescaled to the reference host: each interval is divided by
/// the calibration kernel's time around it and multiplied by
/// [`CALIBRATION_REF_S`], so a busy neighbour on a shared host moves
/// them far less than the raw wall times, which are reported alongside.
/// `peak_rss_mb` is read by the caller before the kernel first runs.
pub fn host_metrics(setup: &[Sample], run: &[Sample], peak_rss_mb: f64) -> Vec<Metric> {
    let scaled = |xs: &[Sample]| median(&xs.iter().map(Sample::scaled_s).collect::<Vec<_>>());
    let wall = |xs: &[Sample]| median(&xs.iter().map(|x| x.wall_s).collect::<Vec<_>>());
    let cal: Vec<f64> = run.iter().map(|x| x.cal_s * 1e3).collect();
    vec![
        Metric::sampled("setup_s", scaled(setup), "s", setup.len()),
        Metric::sampled("run_s", scaled(run), "s", run.len()),
        Metric::new("peak_rss_mb", peak_rss_mb, "MB"),
        Metric::sampled("setup_wall_s", wall(setup), "s", setup.len()),
        Metric::sampled("run_wall_s", wall(run), "s", run.len()),
        Metric::sampled("calibration_ms", median(&cal), "ms", cal.len()),
    ]
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn order_statistics() {
        let v = [5.0, 1.0, 4.0, 2.0, 3.0];
        assert!((median(&v) - 3.0).abs() < 1e-12);
        assert!((median(&v[..4]) - 3.0).abs() < 1e-12);
        assert!((percentile(&v, 100.0) - 5.0).abs() < 1e-12);
        assert!((percentile(&v, 50.0) - 3.0).abs() < 1e-12);
        assert!((percentile(&v, 1.0) - 1.0).abs() < 1e-12);
        assert!(percentile(&[], 50.0).abs() < 1e-12);
    }
}
