//! Process counters read from `/proc/self`: CPU time, peak resident set
//! and context switches; and the host's CPU steal from `/proc/stat`. The whole benchmark (server and load generator)
//! is one process, so these cover both sides of the socket.

/// Clock ticks per second of the `utime`/`stime` fields of
/// `/proc/self/stat` (`USER_HZ`, 100 on every Linux architecture).
const USER_HZ: f64 = 100.0;

/// User + system CPU time of the whole process so far, in seconds.
pub fn cpu_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/self/stat").expect("read /proc/self/stat");
    // The command name (field 2) is parenthesised and may hold spaces;
    // fields are counted from after its closing parenthesis.
    let rest = &stat[stat.rfind(')').expect("stat has a comm field") + 2..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // utime and stime are fields 14 and 15 of the full line, 12 and 13 here.
    let tick = |i: usize| -> f64 { fields[i].parse::<u64>().expect("numeric tick field") as f64 };
    (tick(11) + tick(12)) / USER_HZ
}

/// CPU time the hypervisor gave to other guests while this machine's CPUs
/// wanted to run (the `steal` column of `/proc/stat`), in seconds summed
/// over every CPU. It tells host noise apart from the benchmark's own.
pub fn host_steal_seconds() -> f64 {
    let stat = std::fs::read_to_string("/proc/stat").expect("read /proc/stat");
    let cpu = stat.lines().next().expect("/proc/stat has a cpu line");
    // cpu user nice system idle iowait irq softirq steal ...
    cpu.split_whitespace()
        .nth(8)
        .and_then(|v| v.parse::<u64>().ok())
        .map_or(0.0, |ticks| ticks as f64 / USER_HZ)
}

fn status_field_kb(name: &str) -> u64 {
    let status = std::fs::read_to_string("/proc/self/status").expect("read /proc/self/status");
    status
        .lines()
        .find_map(|l| l.strip_prefix(name))
        .and_then(|rest| rest.split_whitespace().next())
        .and_then(|v| v.parse().ok())
        .unwrap_or_else(|| panic!("/proc/self/status has no numeric {name}"))
}

/// Peak resident set size (`VmHWM`) in MiB.
pub fn peak_rss_mb() -> f64 {
    status_field_kb("VmHWM:") as f64 / 1024.0
}

/// Voluntary plus involuntary context switches of every thread the
/// process has run, ended ones included.
///
/// `/proc/self/status` counts only the main thread and `/proc/self/task`
/// only live ones, while the server spawns worker threads per batch, so
/// this asks `getrusage(RUSAGE_SELF)`, which keeps ended threads' counts.
pub fn ctx_switches() -> u64 {
    // `struct rusage` on 64-bit Linux: two `struct timeval` (four longs),
    // then fourteen longs ending in ru_nvcsw and ru_nivcsw.
    #[repr(C)]
    struct Rusage([i64; 18]);
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage([0; 18]);
    // SAFETY: `usage` is a valid, writable buffer of the size and layout
    // of `struct rusage` on 64-bit Linux, which getrusage fills and does
    // not retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(rc, 0, "getrusage(RUSAGE_SELF) failed");
    (usage.0[16] + usage.0[17]) as u64
}
