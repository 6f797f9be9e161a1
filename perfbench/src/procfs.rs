//! Process CPU time and peak memory from `/proc/self`, without a libc
//! binding: CPU time comes from `/proc/self/stat` (user + system ticks of
//! every thread the process ran, finished ones included) and peak resident
//! memory from the `VmHWM` line of `/proc/self/status`.

use std::io;

/// Clock ticks per second of `/proc/<pid>/stat` times (`USER_HZ`, fixed at
/// 100 on every Linux architecture the benchmark targets).
const TICKS_PER_S: f64 = 100.0;

fn invalid(what: &str) -> io::Error {
    io::Error::new(io::ErrorKind::InvalidData, what.to_owned())
}

/// User + system CPU seconds from the text of a `/proc/<pid>/stat` file.
///
/// # Errors
///
/// Fails when the text does not have the `stat` layout.
pub fn parse_cpu_seconds(stat: &str) -> io::Result<f64> {
    // The command name (field 2) is parenthesised and may hold spaces, so
    // count fields from the last `)`: field 3 is the first one after it,
    // utime is field 14 and stime field 15.
    let rest = stat
        .rsplit_once(')')
        .map(|(_, rest)| rest)
        .ok_or_else(|| invalid("stat: no command field"))?;
    let fields: Vec<&str> = rest.split_whitespace().collect();
    let tick = |i: usize| -> io::Result<u64> {
        fields
            .get(i)
            .and_then(|f| f.parse().ok())
            .ok_or_else(|| invalid("stat: missing utime/stime"))
    };
    Ok((tick(11)? + tick(12)?) as f64 / TICKS_PER_S)
}

/// Peak resident set in KiB from the text of a `/proc/<pid>/status` file.
///
/// # Errors
///
/// Fails when the text has no `VmHWM` line.
pub fn parse_peak_rss_kib(status: &str) -> io::Result<u64> {
    status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|v| v.split_whitespace().next())
        .and_then(|kib| kib.parse().ok())
        .ok_or_else(|| invalid("status: no VmHWM line"))
}

/// CPU seconds this process has used so far.
///
/// # Errors
///
/// Fails when `/proc/self/stat` is unreadable.
pub fn cpu_seconds() -> io::Result<f64> {
    parse_cpu_seconds(&std::fs::read_to_string("/proc/self/stat")?)
}

/// Peak resident memory of this process so far, in MiB.
///
/// # Errors
///
/// Fails when `/proc/self/status` is unreadable.
pub fn peak_rss_mib() -> io::Result<f64> {
    Ok(parse_peak_rss_kib(&std::fs::read_to_string("/proc/self/status")?)? as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_fields_count_from_the_last_paren() {
        let stat = "4242 (odd name) x) S 1 4242 4242 0 -1 4194304 100 0 0 0 250 50 0 0 20 0 3 0";
        assert!((parse_cpu_seconds(stat).unwrap() - 3.0).abs() < 1e-12);
        assert!(parse_cpu_seconds("no paren here").is_err());
    }

    #[test]
    fn status_reads_vmhwm() {
        let status = "Name:\tx\nVmPeak:\t  9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(parse_peak_rss_kib(status).unwrap(), 2048);
        assert!(parse_peak_rss_kib("VmRSS: 1 kB").is_err());
    }

    #[test]
    fn live_process_reads() {
        assert!(cpu_seconds().unwrap() >= 0.0);
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
