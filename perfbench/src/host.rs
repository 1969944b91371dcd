//! Host facts every run prints, and the process's peak resident set.

use std::path::Path;
use std::time::Instant;

/// What the figures of one run depend on besides the code.
#[derive(Clone, Debug)]
pub struct HostFacts {
    pub nproc: usize,
    /// Threads of the `rayon` pool in effect (the vendored stand-in runs
    /// everything on the calling thread, so 1).
    pub pool_threads: usize,
    pub llc_bytes: usize,
    /// Bytes of each of the three triad arrays.
    pub triad_array_bytes: usize,
    pub triad_gbps: f64,
    pub git_rev: String,
}

impl HostFacts {
    /// Measures the triad bandwidth, which allocates three arrays of
    /// together at least four times the last-level cache: call it after
    /// reading [`peak_rss_mb`], or the arrays set the peak.
    pub fn measure(repo_root: &Path) -> HostFacts {
        let llc_bytes = llc_bytes();
        let (triad_array_bytes, triad_gbps) = triad(llc_bytes);
        HostFacts {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            pool_threads: rayon::current_num_threads(),
            llc_bytes,
            triad_array_bytes,
            triad_gbps,
            git_rev: git_rev(repo_root),
        }
    }

    pub fn line(&self) -> String {
        let mib = |b: usize| b as f64 / (1024.0 * 1024.0);
        format!(
            "host: nproc={} pool_threads={} llc={:.1}MiB triad_arrays=3x{:.1}MiB \
             triad={:.2}GB/s rev={}",
            self.nproc,
            self.pool_threads,
            mib(self.llc_bytes),
            mib(self.triad_array_bytes),
            self.triad_gbps,
            self.git_rev
        )
    }
}

/// Size of the largest cache level of cpu0 from sysfs (32 MiB if the
/// host does not say).
fn llc_bytes() -> usize {
    let base = Path::new("/sys/devices/system/cpu/cpu0/cache");
    let mut best: Option<(u32, usize)> = None;
    for idx in 0..8 {
        let dir = base.join(format!("index{idx}"));
        let read = |f: &str| std::fs::read_to_string(dir.join(f)).ok();
        let (Some(level), Some(size)) = (read("level"), read("size")) else {
            continue;
        };
        let Ok(level) = level.trim().parse::<u32>() else {
            continue;
        };
        let Some(bytes) = parse_size(size.trim()) else {
            continue;
        };
        if best.is_none_or(|(l, _)| level > l) {
            best = Some((level, bytes));
        }
    }
    best.map_or(32 << 20, |(_, b)| b)
}

fn parse_size(s: &str) -> Option<usize> {
    let (num, mult) = match s.chars().last()? {
        'K' => (&s[..s.len() - 1], 1 << 10),
        'M' => (&s[..s.len() - 1], 1 << 20),
        'G' => (&s[..s.len() - 1], 1 << 30),
        _ => (s, 1),
    };
    num.parse::<usize>().ok().map(|n| n * mult)
}

/// STREAM-style triad `a = b + s·c` over three `f64` arrays whose total
/// is at least four times `llc` bytes. Best of five passes; a pass moves
/// three arrays (two read, one written). Returns (bytes per array, GB/s).
fn triad(llc: usize) -> (usize, f64) {
    let len = (4 * llc).div_ceil(3 * 8);
    let mut a = vec![0.0f64; len];
    let b: Vec<f64> = (0..len).map(|i| (i % 7) as f64).collect();
    let c: Vec<f64> = (0..len).map(|i| (i % 5) as f64).collect();
    let s = std::hint::black_box(0.5);
    let mut best = f64::INFINITY;
    for _ in 0..5 {
        let t0 = Instant::now();
        for ((ai, bi), ci) in a.iter_mut().zip(&b).zip(&c) {
            *ai = bi + s * ci;
        }
        std::hint::black_box(&a);
        best = best.min(t0.elapsed().as_secs_f64());
    }
    (len * 8, (3 * len * 8) as f64 / best / 1e9)
}

/// Peak resident set of this process (`VmHWM`), MiB.
pub fn peak_rss_mb() -> Option<f64> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: f64 = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb / 1024.0)
}

/// The checkout's git revision, read from `.git` without running git;
/// `unknown` outside a git checkout.
fn git_rev(root: &Path) -> String {
    let git = root.join(".git");
    let Ok(head) = std::fs::read_to_string(git.join("HEAD")) else {
        return "unknown".into();
    };
    let head = head.trim();
    let Some(reference) = head.strip_prefix("ref: ") else {
        return head.to_string();
    };
    if let Ok(rev) = std::fs::read_to_string(git.join(reference)) {
        return rev.trim().to_string();
    }
    std::fs::read_to_string(git.join("packed-refs"))
        .ok()
        .and_then(|packed| {
            packed.lines().find_map(|l| {
                let (rev, name) = l.split_once(' ')?;
                (name == reference).then(|| rev.to_string())
            })
        })
        .unwrap_or_else(|| "unknown".into())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn sizes_parse() {
        assert_eq!(parse_size("107520K"), Some(107520 << 10));
        assert_eq!(parse_size("32M"), Some(32 << 20));
        assert_eq!(parse_size("512"), Some(512));
        assert_eq!(parse_size("x"), None);
    }
}
