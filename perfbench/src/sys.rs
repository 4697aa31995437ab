//! Process-level readings from `/proc/self`: CPU time, bytes written
//! and peak resident memory. Every reading covers the whole process,
//! worker threads included (the kernel folds exited threads' totals
//! into the process), which is what the end-to-end metrics need.

use std::fs;

/// Clock ticks per second of the `utime`/`stime` fields in
/// `/proc/self/stat`. Linux fixes `USER_HZ` at 100 on every mainstream
/// architecture.
const USER_HZ: f64 = 100.0;

/// User plus system CPU seconds consumed by the process so far.
///
/// # Errors
///
/// Returns a message when `/proc/self/stat` is unreadable or malformed.
pub fn cpu_seconds() -> Result<f64, String> {
    let stat =
        fs::read_to_string("/proc/self/stat").map_err(|e| format!("/proc/self/stat: {e}"))?;
    // The command name (field 2) may contain spaces; fields after its
    // closing parenthesis are space-separated. utime and stime are
    // fields 14 and 15, i.e. indices 11 and 12 after the parenthesis.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, r)| r)
        .ok_or("malformed /proc/self/stat")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> Result<f64, String> {
        fields
            .get(i)
            .and_then(|f| f.parse::<u64>().ok())
            .map(|t| t as f64 / USER_HZ)
            .ok_or_else(|| format!("malformed /proc/self/stat field {}", i + 3))
    };
    Ok(tick(11)? + tick(12)?)
}

/// Bytes the process has passed to `write`-family calls so far
/// (`wchar` in `/proc/self/io`): files and standard streams. It is
/// deterministic for a fixed output, unlike the block-layer
/// `write_bytes`, which depends on page-cache writeback.
///
/// # Errors
///
/// Returns a message when `/proc/self/io` is unreadable or malformed.
pub fn bytes_written() -> Result<u64, String> {
    proc_field("/proc/self/io", "wchar:")
}

/// Peak resident set size of the process in bytes (`VmHWM`).
///
/// # Errors
///
/// Returns a message when `/proc/self/status` is unreadable or malformed.
pub fn peak_rss_bytes() -> Result<u64, String> {
    proc_field("/proc/self/status", "VmHWM:").map(|kb| kb * 1024)
}

fn proc_field(path: &str, key: &str) -> Result<u64, String> {
    let text = fs::read_to_string(path).map_err(|e| format!("{path}: {e}"))?;
    text.lines()
        .find_map(|l| l.strip_prefix(key))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .ok_or_else(|| format!("{path}: no numeric `{key}` line"))
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn readings_are_available_and_monotone() {
        let c0 = cpu_seconds().unwrap();
        let w0 = bytes_written().unwrap();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        assert!(cpu_seconds().unwrap() >= c0);
        assert!(bytes_written().unwrap() >= w0);
        assert!(peak_rss_bytes().unwrap() > 0);
    }
}
