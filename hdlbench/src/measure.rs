//! Measurement primitives: latency samples, the span log of traced
//! runs, peak memory, and the fsync probe.

use std::fmt::Write as _;
use std::io::Write as _;
use std::path::Path;
use std::sync::atomic::{AtomicU64, Ordering::Relaxed};
use std::sync::Mutex;
use std::time::{Duration, Instant};

/// Microseconds in `d`.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Nearest-rank percentile `q` (in `0..=1`) of `v`; 0 when empty.
pub fn pct(v: &[f64], q: f64) -> f64 {
    if v.is_empty() {
        return 0.0;
    }
    let mut s = v.to_vec();
    s.sort_by(f64::total_cmp);
    let rank = ((q * s.len() as f64).ceil() as usize).clamp(1, s.len());
    s[rank - 1]
}

/// Median of `v`; 0 when empty.
pub fn p50(v: &[f64]) -> f64 {
    pct(v, 0.5)
}

/// Mean of `v`; 0 when empty.
pub fn mean(v: &[f64]) -> f64 {
    if v.is_empty() {
        0.0
    } else {
        v.iter().sum::<f64>() / v.len() as f64
    }
}

/// `num / den`, 0 when `den` is 0.
pub fn ratio(num: f64, den: f64) -> f64 {
    if den == 0.0 {
        0.0
    } else {
        num / den
    }
}

/// One recorded span: one call into one layer's public surface. The
/// benchmark calls each layer separately, so the spans of one operation
/// (which share `op`) are siblings in time, never nested; a span's self
/// time is its whole duration.
struct Span {
    name: &'static str,
    start_ns: u64,
    end_ns: u64,
    op: u64,
}

/// The in-memory span log of a traced run, written out once at the end.
pub struct Tracer {
    origin: Instant,
    spans: Vec<Span>,
}

impl Default for Tracer {
    fn default() -> Self {
        Tracer {
            origin: Instant::now(),
            spans: Vec::new(),
        }
    }
}

impl Tracer {
    /// Runs `f` inside a span; returns its value and the span's
    /// duration in microseconds.
    pub fn span<T>(&mut self, name: &'static str, op: u64, f: impl FnOnce() -> T) -> (T, f64) {
        let start = Instant::now();
        let value = f();
        let end = Instant::now();
        let ns = |t: Instant| t.duration_since(self.origin).as_nanos() as u64;
        self.spans.push(Span {
            name,
            start_ns: ns(start),
            end_ns: ns(end),
            op,
        });
        (value, us(end - start))
    }

    /// Writes one JSON object per span: name, start/end in ns since the
    /// run began, and operation id.
    pub fn write_jsonl(&self, path: &Path) -> std::io::Result<()> {
        let mut out = String::new();
        for s in &self.spans {
            let _ = writeln!(
                out,
                "{{\"name\":\"{}\",\"start_ns\":{},\"end_ns\":{},\"op\":{}}}",
                s.name, s.start_ns, s.end_ns, s.op
            );
        }
        let mut f = std::fs::File::create(path)?;
        f.write_all(out.as_bytes())?;
        f.flush()
    }
}

/// Peak resident set size of this process in MiB (`VmHWM`).
pub fn peak_rss_mb() -> f64 {
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse::<f64>().ok())
        .map_or(0.0, |kb| kb / 1024.0)
}

/// Peak resident set size of the workload's operations, as the median
/// of the peaks of its first `windows` windows of `window` operations
/// each (the kernel's peak is reset, `/proc/self/clear_refs`, as each
/// window closes). A fixed count of operations keeps the figure from
/// growing with throughput (engine memo tables grow with every query
/// served); the median keeps one transient spike, such as two
/// snapshots alive at once, from deciding it. Set-ups run between the
/// operations are left out: the window's peak so far is kept before
/// each, and the kernel's peak reset after it. Where the reset is
/// refused, every window's peak is the process's peak so far.
pub struct PeakRss {
    window: u64,
    windows: usize,
    done: AtomicU64,
    /// Peak of the open window before its last set-up.
    kept_bits: AtomicU64,
    peaks: Mutex<Vec<f64>>,
}

fn reset_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

impl PeakRss {
    pub fn new(window: u64, windows: usize) -> PeakRss {
        PeakRss {
            window,
            windows,
            done: AtomicU64::new(0),
            kept_bits: AtomicU64::new(0f64.to_bits()),
            peaks: Mutex::new(Vec::new()),
        }
    }

    fn full(&self) -> bool {
        self.peaks.lock().expect("peak list lock").len() >= self.windows
    }

    /// The open window's peak so far.
    fn open_peak(&self) -> f64 {
        peak_rss_mb().max(f64::from_bits(self.kept_bits.load(Relaxed)))
    }

    /// Counts one finished operation, closing a window every `window`.
    pub fn tick(&self) {
        if !(self.done.fetch_add(1, Relaxed) + 1).is_multiple_of(self.window) {
            return;
        }
        let mut peaks = self.peaks.lock().expect("peak list lock");
        if peaks.len() < self.windows {
            peaks.push(self.open_peak());
            self.kept_bits.store(0f64.to_bits(), Relaxed);
            reset_peak_rss();
        }
    }

    /// Runs the set-up `f`, whose own peak does not count. Call it only
    /// while no operation runs.
    pub fn excluding<T>(&self, f: impl FnOnce() -> T) -> T {
        let counting = !self.full();
        if counting {
            self.kept_bits.store(self.open_peak().to_bits(), Relaxed);
        }
        let value = f();
        if counting {
            reset_peak_rss();
        }
        value
    }

    /// Median of the closed windows' peaks, counting the open window
    /// too if the run stopped short of `windows`.
    pub fn mb(&self) -> f64 {
        let mut peaks = self.peaks.lock().expect("peak list lock").clone();
        if peaks.len() < self.windows {
            peaks.push(self.open_peak());
        }
        p50(&peaks)
    }
}

/// Median time of a 4 KiB write plus `sync_data` in `dir`, in µs: what
/// one fsync costs on this host's disk, for reading persist numbers.
pub fn fsync_probe_us(dir: &Path) -> f64 {
    let path = dir.join("fsync-probe");
    let Ok(mut f) = std::fs::File::create(&path) else {
        return 0.0;
    };
    let block = [0u8; 4096];
    let samples: Vec<f64> = (0..16)
        .filter_map(|_| {
            let t = Instant::now();
            f.write_all(&block).ok()?;
            f.sync_data().ok()?;
            Some(us(t.elapsed()))
        })
        .collect();
    drop(f);
    let _ = std::fs::remove_file(&path);
    p50(&samples)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(pct(&v, 0.5), 50.0);
        assert_eq!(pct(&v, 0.99), 99.0);
        assert_eq!(pct(&v, 1.0), 100.0);
        assert_eq!(pct(&[], 0.5), 0.0);
    }
}
