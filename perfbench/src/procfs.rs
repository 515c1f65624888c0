//! Process CPU time and resident memory from `/proc/self`.

/// Clock ticks per second of the `/proc/<pid>/stat` time fields. Linux
/// exports these in USER_HZ, which is 100 on every supported platform.
const USER_HZ: u64 = 100;

/// User + system CPU time in microseconds from the text of
/// `/proc/<pid>/stat`. The command name (field 2) may hold spaces and
/// parentheses, so fields are counted from the last `)`.
pub fn parse_cpu_us(stat: &str) -> Option<u64> {
    let rest = &stat[stat.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // Field 3 (state) is the first after the name; utime and stime are
    // fields 14 and 15.
    let utime: u64 = fields.get(11)?.parse().ok()?;
    let stime: u64 = fields.get(12)?.parse().ok()?;
    Some((utime + stime) * 1_000_000 / USER_HZ)
}

/// Resident set size in KiB from the text of `/proc/<pid>/status`.
pub fn parse_rss_kb(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmRSS:"))?;
    let mut parts = line["VmRSS:".len()..].split_whitespace();
    let value: u64 = parts.next()?.parse().ok()?;
    match parts.next() {
        Some("kB") => Some(value),
        _ => None,
    }
}

/// This process's CPU time (all threads) in microseconds.
pub fn cpu_us() -> u64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    parse_cpu_us(&stat).expect("parse /proc/self/stat")
}

/// This process's resident memory in KiB.
pub fn rss_kb() -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    parse_rss_kb(&status).expect("parse VmRSS in /proc/self/status")
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_time_counts_from_the_last_paren() {
        // A name with spaces and a ')' must not shift the fields.
        let stat = "4242 (bench (x) y) S 1 4242 4242 0 -1 4194560 900 0 0 0 \
                    250 75 0 0 20 0 6 0 12345 1000000 300 18446744073709551615";
        assert_eq!(parse_cpu_us(stat), Some((250 + 75) * 10_000));
        assert_eq!(parse_cpu_us("12 (short) S 1"), None);
        assert_eq!(parse_cpu_us("no parens"), None);
    }

    #[test]
    fn rss_reads_the_vmrss_line() {
        let status = "Name:\tperfbench\nVmPeak:\t  99999 kB\nVmRSS:\t   18432 kB\nThreads:\t6\n";
        assert_eq!(parse_rss_kb(status), Some(18432));
        assert_eq!(parse_rss_kb("Name:\tx\n"), None);
        assert_eq!(parse_rss_kb("VmRSS:\t12 MB\n"), None);
    }

    #[test]
    fn live_readers_answer() {
        assert!(rss_kb() > 0);
        let before = cpu_us();
        let mut x = 0u64;
        for i in 0..50_000_000u64 {
            x = x.wrapping_add(std::hint::black_box(i));
        }
        std::hint::black_box(x);
        assert!(cpu_us() >= before);
    }
}
