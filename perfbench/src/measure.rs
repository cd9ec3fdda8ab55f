//! Measurement primitives: exact percentiles over raw samples, medians,
//! and std-only readers for the process's CPU time and peak RSS.

use std::io;

/// Raw samples with multiplicities. Percentiles are exact nearest-rank
/// values over the sorted samples; nothing is bucketed.
#[derive(Debug, Clone, Default)]
pub struct Samples {
    /// `(value, how many times it was observed)`.
    raw: Vec<(u64, u64)>,
    sorted: bool,
}

impl Samples {
    pub fn add(&mut self, value: u64) {
        self.add_n(value, 1);
    }

    /// Records `count` observations of `value` (several results received
    /// by one call share its receive time).
    pub fn add_n(&mut self, value: u64, count: u64) {
        if count > 0 {
            self.raw.push((value, count));
            self.sorted = false;
        }
    }

    pub fn absorb(&mut self, other: &Samples) {
        self.raw.extend_from_slice(&other.raw);
        self.sorted = false;
    }

    pub fn count(&self) -> u64 {
        self.raw.iter().map(|&(_, n)| n).sum()
    }

    /// Nearest-rank percentile, `p` in `(0, 1]`: the smallest sample with
    /// at least `p` of all observations at or below it. `None` when empty.
    pub fn percentile(&mut self, p: f64) -> Option<u64> {
        let total = self.count();
        if total == 0 {
            return None;
        }
        if !self.sorted {
            self.raw.sort_unstable();
            self.sorted = true;
        }
        let rank = ((p * total as f64).ceil() as u64).clamp(1, total);
        let mut seen = 0;
        for &(value, n) in &self.raw {
            seen += n;
            if seen >= rank {
                return Some(value);
            }
        }
        unreachable!("rank is at most the total count")
    }
}

/// Median of a non-empty slice (mean of the middle two for even lengths).
pub fn median(values: &[f64]) -> f64 {
    assert!(!values.is_empty(), "median of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let mid = v.len() / 2;
    if v.len() % 2 == 1 {
        v[mid]
    } else {
        (v[mid - 1] + v[mid]) / 2.0
    }
}

/// Mean of the middle values of a non-empty slice, after dropping the
/// lowest and the highest `trim` share of them (the median when nothing
/// is left). Robust to the odd disturbed round like a median, but it
/// moves smoothly when the share of slow rounds changes.
pub fn trimmed_mean(values: &[f64], trim: f64) -> f64 {
    assert!(!values.is_empty(), "trimmed mean of no values");
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let cut = (v.len() as f64 * trim).floor() as usize;
    let middle = &v[cut..v.len() - cut];
    if middle.is_empty() {
        return median(&v);
    }
    middle.iter().sum::<f64>() / middle.len() as f64
}

/// Linux reports `/proc/<pid>/stat` times in USER_HZ ticks, which the
/// kernel ABI fixes at 100 per second.
const USER_HZ: f64 = 100.0;

/// User + system CPU ticks of all threads, from the text of
/// `/proc/self/stat` (fields 14 and 15).
pub fn cpu_ticks_from_stat(stat: &str) -> Result<u64, String> {
    // The command name (field 2) is parenthesised and may itself hold
    // spaces or parentheses, so count fields from the last ')'.
    let rest = stat
        .rfind(')')
        .map(|at| &stat[at + 1..])
        .ok_or("no ')' after the command name")?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `fields[0]` is field 3 (state), so field N sits at index N - 3.
    let field = |n: usize| -> Result<u64, String> {
        fields
            .get(n - 3)
            .ok_or(format!("stat has no field {n}"))?
            .parse()
            .map_err(|e| format!("field {n}: {e}"))
    };
    Ok(field(14)? + field(15)?)
}

/// `VmHWM` (peak resident set) in KiB, from the text of
/// `/proc/self/status`.
pub fn vm_hwm_kib_from_status(status: &str) -> Result<u64, String> {
    let line = status
        .lines()
        .find(|l| l.starts_with("VmHWM:"))
        .ok_or("no VmHWM line")?;
    let mut parts = line["VmHWM:".len()..].split_whitespace();
    let value = parts.next().ok_or("VmHWM has no value")?;
    match parts.next() {
        Some("kB") => value.parse().map_err(|e| format!("VmHWM: {e}")),
        other => Err(format!("VmHWM unit is {other:?}, expected kB")),
    }
}

fn proc_error(path: &str, e: String) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, format!("{path}: {e}"))
}

/// Process CPU time (user + system, all threads) in seconds. Errors when
/// `/proc` is unreadable rather than reporting zero.
pub fn cpu_seconds() -> io::Result<f64> {
    let stat = std::fs::read_to_string("/proc/self/stat")?;
    let ticks = cpu_ticks_from_stat(&stat).map_err(|e| proc_error("/proc/self/stat", e))?;
    Ok(ticks as f64 / USER_HZ)
}

/// Peak resident set of this process in MiB.
pub fn peak_rss_mib() -> io::Result<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib = vm_hwm_kib_from_status(&status).map_err(|e| proc_error("/proc/self/status", e))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentiles_are_exact_nearest_rank() {
        let mut s = Samples::default();
        for v in (1..=100).rev() {
            s.add(v);
        }
        assert_eq!(s.count(), 100);
        assert_eq!(s.percentile(0.5), Some(50));
        assert_eq!(s.percentile(0.9), Some(90));
        assert_eq!(s.percentile(0.99), Some(99));
        assert_eq!(s.percentile(1.0), Some(100));
        assert_eq!(s.percentile(0.001), Some(1));
    }

    #[test]
    fn percentiles_weight_repeated_samples() {
        let mut s = Samples::default();
        s.add_n(20, 3);
        s.add_n(10, 1);
        assert_eq!(s.percentile(0.25), Some(10));
        assert_eq!(s.percentile(0.26), Some(20));
        assert_eq!(s.percentile(0.5), Some(20));
        // p50, p90 and p99 of distinct values stay distinct: no buckets.
        let mut t = Samples::default();
        for v in [1000, 1001, 1002, 1003, 1004, 1005, 1006, 1007, 1008, 1009] {
            t.add(v);
        }
        assert_eq!(t.percentile(0.5), Some(1004));
        assert_eq!(t.percentile(0.9), Some(1008));
        assert_eq!(t.percentile(0.99), Some(1009));
        assert_eq!(Samples::default().percentile(0.5), None);
    }

    #[test]
    fn median_of_odd_and_even_lengths() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), 2.0);
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), 2.5);
        assert_eq!(trimmed_mean(&[3.0, 1.0, 2.0], 0.0), 2.0);
        let v = [100.0, 1.0, 4.0, 2.0, 3.0, -50.0, 5.0, 6.0, 7.0, 8.0];
        assert_eq!(trimmed_mean(&v, 0.2), 4.5);
        assert_eq!(trimmed_mean(&[1.0, 9.0], 0.5), 5.0);
    }

    #[test]
    fn cpu_ticks_parse_captured_stat() {
        let stat = "12345 (perf bench) R 1 12345 12345 0 -1 4194304 2291 0 0 0 \
                    731 46 0 0 20 0 3 0 1234567 123456789 4321 18446744073709551615 \
                    1 1 0 0 0 0 0 0 0 0 0 0 17 1 0 0 0 0 0";
        assert_eq!(cpu_ticks_from_stat(stat), Ok(777));
        // A command name with ") " inside must not shift the fields.
        let odd = "7 (a) b) S 1 7 7 0 -1 0 0 0 0 0 5 6 0 0 20 0 1 0 1 1 1";
        assert_eq!(cpu_ticks_from_stat(odd), Ok(11));
        assert!(cpu_ticks_from_stat("garbage").is_err());
        assert!(cpu_ticks_from_stat("1 (x) R 1 2").is_err());
    }

    #[test]
    fn vm_hwm_parses_captured_status() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  250000 kB\nVmHWM:\t   81234 kB\nVmRSS:\t   80000 kB\n";
        assert_eq!(vm_hwm_kib_from_status(status), Ok(81234));
        assert!(vm_hwm_kib_from_status("Name:\tx\n").is_err());
        assert!(vm_hwm_kib_from_status("VmHWM:\t12 MB\n").is_err());
    }

    #[test]
    fn proc_readers_report_live_values() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
