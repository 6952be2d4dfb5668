//! Process measurements, seeded input bytes and small statistics helpers.

use std::time::Duration;

#[repr(C)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}

extern "C" {
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

const CLOCK_PROCESS_CPUTIME_ID: i32 = 2;

/// User + system CPU of the whole process, in milliseconds, from
/// `CLOCK_PROCESS_CPUTIME_ID`: the same total as `/proc/self/stat`
/// (every thread, live or exited) at nanosecond rather than 10 ms
/// resolution.
pub fn cpu_ms() -> f64 {
    let mut ts = Timespec {
        tv_sec: 0,
        tv_nsec: 0,
    };
    // SAFETY: `ts` is a valid, writable `struct timespec` (two 64-bit
    // fields on 64-bit Linux, checked at compile time below) that lives
    // across the call; the clock id is a constant the kernel defines.
    let rc = unsafe { clock_gettime(CLOCK_PROCESS_CPUTIME_ID, &mut ts) };
    assert_eq!(rc, 0, "clock_gettime(CLOCK_PROCESS_CPUTIME_ID) failed");
    ts.tv_sec as f64 * 1e3 + ts.tv_nsec as f64 / 1e6
}

#[cfg(not(all(target_os = "linux", target_pointer_width = "64")))]
compile_error!("perfbench reads process CPU time the 64-bit Linux way");

/// CPU time the hypervisor gave to other guests, per CPU of this
/// machine, in milliseconds: the `steal` column of `/proc/stat`
/// (`USER_HZ` = 100 ticks per second) averaged over its `cpuN` lines.
pub fn steal_ms() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("/proc/stat is readable");
    let cpus = stat
        .lines()
        .filter(|l| l.starts_with("cpu") && l.as_bytes().get(3).is_some_and(u8::is_ascii_digit))
        .count();
    let ticks = stat
        .lines()
        .next()
        .and_then(|all| all.split_whitespace().nth(8))
        .and_then(|v| v.parse::<f64>().ok())
        .unwrap_or(0.0);
    ticks * 10.0 / cpus.max(1) as f64
}

/// Peak resident set (`VmHWM`) of the process, in MiB.
pub fn rss_peak_mb() -> f64 {
    let status =
        std::fs::read_to_string("/proc/self/status").expect("/proc/self/status is readable");
    let kb: f64 = status
        .lines()
        .find_map(|l| l.strip_prefix("VmHWM:"))
        .and_then(|v| v.trim().trim_end_matches("kB").trim().parse().ok())
        .expect("VmHWM in /proc/self/status");
    kb / 1024.0
}

/// Ends the process with exit code 3, printing no result, if the run
/// is still going after `limit`: a stalled run must never hang its
/// caller. The thread is detached on purpose; process exit reaps it.
pub fn watchdog(limit: Duration) {
    std::thread::Builder::new()
        .name("perfbench-watchdog".into())
        .spawn(move || {
            std::thread::sleep(limit);
            eprintln!("perfbench: run exceeded {} s; aborting", limit.as_secs());
            std::process::exit(3);
        })
        .expect("spawn watchdog");
}

/// SplitMix64: the seeded source of every argument and payload byte.
pub struct Rng(u64);

impl Rng {
    pub fn new(seed: u64) -> Rng {
        Rng(seed)
    }

    pub fn next_u64(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9E37_79B9_7F4A_7C15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xBF58_476D_1CE4_E5B9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94D0_49BB_1331_11EB);
        z ^ (z >> 31)
    }

    pub fn bytes(&mut self, len: usize) -> Vec<u8> {
        let mut v = Vec::with_capacity(len + 8);
        while v.len() < len {
            v.extend_from_slice(&self.next_u64().to_le_bytes());
        }
        v.truncate(len);
        v
    }
}

/// FNV-1a over a byte string.
pub fn fnv1a(bytes: &[u8]) -> u64 {
    let mut h: u64 = 0xcbf2_9ce4_8422_2325;
    for &b in bytes {
        h ^= u64::from(b);
        h = h.wrapping_mul(0x0000_0100_0000_01b3);
    }
    h
}

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (0 for an empty sample).
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let pos = q * (v.len() - 1) as f64;
    let lo = pos.floor() as usize;
    let hi = pos.ceil() as usize;
    v[lo] + (v[hi] - v[lo]) * (pos - lo as f64)
}

pub fn millis(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

pub fn micros(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// Which code was measured: the git commit when the tree is a git
/// checkout, and always a digest of the protocol sources and lock file
/// (a plain source export carries no commit).
pub fn code_identity() -> String {
    let root = std::path::Path::new(env!("CARGO_MANIFEST_DIR")).join("..");
    let commit = if root.join(".git").exists() {
        std::process::Command::new("git")
            .arg("-C")
            .arg(&root)
            .args(["rev-parse", "--short=12", "HEAD"])
            .output()
            .ok()
            .filter(|o| o.status.success())
            .map(|o| String::from_utf8_lossy(&o.stdout).trim().to_owned())
    } else {
        None
    };
    let mut files = Vec::new();
    collect_sources(&root.join("crates"), &mut files);
    files.push(root.join("Cargo.lock"));
    files.sort();
    let mut digest = Vec::new();
    for f in &files {
        digest.extend_from_slice(
            f.strip_prefix(&root)
                .unwrap_or(f)
                .to_string_lossy()
                .as_bytes(),
        );
        digest.extend_from_slice(&std::fs::read(f).unwrap_or_default());
    }
    format!(
        "commit={} source_fnv={:016x}",
        commit.as_deref().unwrap_or("none"),
        fnv1a(&digest)
    )
}

fn collect_sources(dir: &std::path::Path, out: &mut Vec<std::path::PathBuf>) {
    let Ok(entries) = std::fs::read_dir(dir) else {
        return;
    };
    for entry in entries.flatten() {
        let path = entry.path();
        if path.is_dir() {
            collect_sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs" || e == "toml") {
            out.push(path);
        }
    }
}
