//! Host facts and `/proc` readers.
//!
//! A number without the box it was measured on is not a result: every
//! result file leads with [`HostFacts`]. The `/proc` parsers are pure
//! functions over file contents so they can be unit-tested.

use crate::json::Value;
use std::path::Path;
use std::process::Command;

/// `/proc/<pid>/stat` reports CPU time in clock ticks; Linux fixes the
/// user-visible tick at 100 Hz (`USER_HZ`) on every architecture.
const TICKS_PER_SECOND: f64 = 100.0;

/// What kind of machine, kernel and toolchain produced a result.
#[derive(Clone, Debug)]
pub struct HostFacts {
    /// Cores available to this process.
    pub nproc: usize,
    /// Kernel release (`/proc/sys/kernel/osrelease`).
    pub kernel: String,
    /// 1/5/15-minute load averages when the run started.
    pub loadavg_at_start: String,
    /// Filesystem type holding the WAL directory.
    pub wal_fs: String,
    /// `rustc --version`.
    pub rustc: String,
    /// `git rev-parse HEAD`, or `unknown` outside a git checkout.
    pub git_commit: String,
}

impl HostFacts {
    /// Collects the facts; `wal_dir` is where the durable workload puts
    /// its log.
    pub fn collect(wal_dir: &Path) -> HostFacts {
        let read = |path: &str| {
            std::fs::read_to_string(path)
                .map(|s| s.trim().to_owned())
                .unwrap_or_else(|_| "unknown".to_owned())
        };
        let run = |program: &str, args: &[&str]| {
            Command::new(program)
                .args(args)
                .output()
                .ok()
                .filter(|out| out.status.success())
                .and_then(|out| String::from_utf8(out.stdout).ok())
                .map(|s| s.trim().to_owned())
                .filter(|s| !s.is_empty())
                .unwrap_or_else(|| "unknown".to_owned())
        };
        let mounts = std::fs::read_to_string("/proc/mounts").unwrap_or_default();
        let canonical = wal_dir
            .canonicalize()
            .unwrap_or_else(|_| wal_dir.to_path_buf());
        HostFacts {
            nproc: nproc(),
            kernel: read("/proc/sys/kernel/osrelease"),
            loadavg_at_start: read("/proc/loadavg")
                .split_whitespace()
                .take(3)
                .collect::<Vec<_>>()
                .join(" "),
            wal_fs: fs_type_of(&mounts, &canonical.to_string_lossy())
                .unwrap_or("unknown")
                .to_owned(),
            rustc: run("rustc", &["--version"]),
            git_commit: run("git", &["rev-parse", "HEAD"]),
        }
    }

    /// The `host` object every result file leads with. Socket numbers
    /// are always loopback here, never a real link; fsync is the
    /// sandbox VM's, not a device's.
    pub fn to_json(&self) -> Value {
        Value::obj()
            .with("nproc", self.nproc)
            .with("kernel", self.kernel.as_str())
            .with("loadavg_at_start", self.loadavg_at_start.as_str())
            .with("wal_fs", self.wal_fs.as_str())
            .with("rustc", self.rustc.as_str())
            .with("git_commit", self.git_commit.as_str())
            .with("network", "loopback")
            .with("loop", "closed")
    }
}

/// Cores available to this process (1 when unknown).
pub fn nproc() -> usize {
    std::thread::available_parallelism().map_or(1, std::num::NonZeroUsize::get)
}

/// How many client threads or connections a workload that wants
/// `wanted` actually gets: never more than `nproc`. An oversubscribed
/// row measures the kernel scheduler, not the program, so the harness
/// has no way to ask for one; the row records the count it ran with.
pub fn clients(wanted: usize) -> usize {
    wanted.clamp(1, nproc())
}

/// The highest-numbered CPU in a `Cpus_allowed_list` value from
/// `/proc/<pid>/status` (`0-1`, `0,2-3`, `5`).
pub fn last_allowed_cpu(list: &str) -> Option<u32> {
    list.trim()
        .rsplit([',', '-'])
        .next()
        .and_then(|cpu| cpu.parse().ok())
}

/// Replaces this process with itself confined to one CPU (`taskset -c
/// <cpu> <exe> <args>`), so that [`nproc`] is 1 from then on. Returns
/// only when that could not be done — no `taskset`, no readable
/// affinity list — with the reason; the caller carries on unconfined.
///
/// Why a workload wants this: a closed loop at depth 1 puts each end to
/// sleep once per op, and on a virtual machine a sleeping vCPU halts and
/// takes 30–50 µs to wake — several times everything the stack does per
/// op — unless anything else happens to keep it awake, in which case it
/// takes 3 µs. On one CPU the two ends take turns and the CPU never
/// idles, so the number is the program's and not the hypervisor's. And
/// two ends that are both busy no longer depend on which vCPUs the
/// guest's scheduler gives them (`workloads::ONE_CPU`).
pub fn confine_to_one_cpu(args: &[String]) -> String {
    use std::os::unix::process::CommandExt as _;
    let status = std::fs::read_to_string("/proc/self/status").unwrap_or_default();
    let allowed = status
        .lines()
        .find_map(|line| line.strip_prefix("Cpus_allowed_list:"));
    let (Some(cpu), Ok(exe)) = (allowed.and_then(last_allowed_cpu), std::env::current_exe()) else {
        return "cannot read this process's CPU affinity".to_owned();
    };
    let error = Command::new("taskset")
        .args(["-c", &cpu.to_string()])
        .arg(exe)
        .args(args)
        .exec();
    format!("cannot exec taskset: {error}")
}

/// The filesystem type of the mount holding `path`, from the contents
/// of `/proc/mounts` (longest mount-point prefix wins; later entries
/// shadow earlier ones).
pub fn fs_type_of<'a>(mounts: &'a str, path: &str) -> Option<&'a str> {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut fields = line.split_whitespace();
        let (Some(_device), Some(mount_point), Some(fs_type)) =
            (fields.next(), fields.next(), fields.next())
        else {
            continue;
        };
        let covers = path == mount_point
            || mount_point == "/"
            || path
                .strip_prefix(mount_point)
                .is_some_and(|rest| rest.starts_with('/'));
        if covers && best.is_none_or(|(len, _)| mount_point.len() >= len) {
            best = Some((mount_point.len(), fs_type));
        }
    }
    best.map(|(_, fs_type)| fs_type)
}

/// User + system CPU seconds from the contents of `/proc/<pid>/stat`.
/// The command name (field 2) may contain spaces and parentheses, so
/// fields are counted from the *last* `)`.
pub fn parse_stat_cpu_seconds(stat: &str) -> Option<f64> {
    let after_comm = &stat[stat.rfind(')')? + 1..];
    // `after_comm` starts at field 3 (state); utime and stime are
    // fields 14 and 15.
    let mut fields = after_comm.split_whitespace().skip(11);
    let utime: u64 = fields.next()?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((utime + stime) as f64 / TICKS_PER_SECOND)
}

/// A `kB` field (`VmHWM`, `VmRSS`) from the contents of
/// `/proc/<pid>/status`, in KiB.
pub fn parse_status_kib(status: &str, field: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(field)?.strip_prefix(':')?;
        rest.trim().strip_suffix("kB")?.trim().parse().ok()
    })
}

/// User + system CPU seconds consumed so far by process `pid` (all its
/// threads, dead ones included). 10 ms resolution.
pub fn cpu_seconds(pid: u32) -> Option<f64> {
    parse_stat_cpu_seconds(&std::fs::read_to_string(format!("/proc/{pid}/stat")).ok()?)
}

/// Peak resident set of process `pid` in MiB (`VmHWM`).
pub fn peak_rss_mib(pid: u32) -> Option<f64> {
    let status = std::fs::read_to_string(format!("/proc/{pid}/status")).ok()?;
    Some(parse_status_kib(&status, "VmHWM")? as f64 / 1024.0)
}

/// Restarts this process's `VmHWM` from its current resident set
/// (`/proc/self/clear_refs`, value 5), so the peak an in-process
/// workload reports is the timed repetitions', not the referee's that
/// ran before them. Best effort: where the kernel refuses, the peak
/// simply covers the whole process.
pub fn reset_own_peak_rss() {
    let _ = std::fs::write("/proc/self/clear_refs", "5");
}

/// How fast this host's memory answers at this moment.
///
/// The sandbox is a small VM on a shared host, and what its neighbours
/// take from it is the memory system — shared cache and DRAM — not the
/// clock: an arithmetic loop in registers runs at the same speed all
/// day, while a walk through 32 MiB takes 70–170 ns a step from one
/// minute to the next, and every workload here (allocation, hashing,
/// pointer chasing) slows down with it, by ±20 % over minutes and by
/// more for seconds (`results/README.md`). The probe measures that
/// walk — a chain of dependent loads along one random cycle through
/// [`MemoryProbe::BYTES`] — between repetitions, and a repetition's
/// times are divided by what the walk cost around it
/// (`workloads::Measured::repetition`).
pub struct MemoryProbe {
    next: Vec<u32>,
    at: u32,
}

impl MemoryProbe {
    /// The probe's resident size. It is allocated before the timed
    /// repetitions and never freed, so an in-process workload's
    /// `peak_rss_mb` is reported less exactly this much.
    pub const BYTES: usize = 32 << 20;
    /// Loads per walk: 15–35 ms here.
    const LOADS: usize = 200_000;
    /// What one load costs on the host the reported times refer to. On
    /// this box the walk costs 110–170 ns.
    pub const REFERENCE_NS: f64 = 125.0;

    /// Lays out one random cycle through the array (Sattolo's
    /// algorithm), so a walk never closes early on a short one.
    pub fn new() -> MemoryProbe {
        let n = Self::BYTES / std::mem::size_of::<u32>();
        let mut next: Vec<u32> = (0..n as u32).collect();
        let mut rng = crate::rng::Rng::new(0x5a77_0110);
        for i in (1..n).rev() {
            next.swap(i, rng.below(i));
        }
        MemoryProbe { next, at: 0 }
    }

    /// Nanoseconds per load over one walk, after a first walk that is
    /// not timed: what a repetition leaves behind in cache and TLB
    /// differs from workload to workload, and the first walk levels it.
    pub fn ns_per_load(&mut self) -> f64 {
        self.walk();
        let t0 = std::time::Instant::now();
        self.walk();
        t0.elapsed().as_nanos() as f64 / Self::LOADS as f64
    }

    fn walk(&mut self) {
        let mut at = self.at;
        for _ in 0..Self::LOADS {
            at = self.next[at as usize];
        }
        self.at = std::hint::black_box(at);
    }
}

impl Default for MemoryProbe {
    fn default() -> Self {
        MemoryProbe::new()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parsing_survives_hostile_command_names() {
        let stat = "4242 (ctr) serve (x) S 1 4242 4242 0 -1 4194560 150 0 0 0 \
                    731 269 0 0 20 0 3 0 12345 1000000 500 18446744073709551615";
        assert_eq!(parse_stat_cpu_seconds(stat), Some(10.0));
        assert_eq!(parse_stat_cpu_seconds("garbage"), None);
        assert_eq!(parse_stat_cpu_seconds("1 (a) S 1 2"), None);
    }

    #[test]
    fn status_parsing_reads_kib_fields() {
        let status = "Name:\tctr\nVmPeak:\t  200000 kB\nVmHWM:\t   51200 kB\nVmRSS:\t   40960 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(51200));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(40960));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
    }

    #[test]
    fn own_process_is_readable() {
        let pid = std::process::id();
        assert!(cpu_seconds(pid).is_some());
        assert!(peak_rss_mib(pid).unwrap() > 0.0);
    }

    #[test]
    fn resetting_the_peak_never_raises_it() {
        let pid = std::process::id();
        let big = vec![1u8; 32 << 20];
        std::hint::black_box(&big);
        let before = peak_rss_mib(pid).unwrap();
        drop(big);
        reset_own_peak_rss();
        assert!(peak_rss_mib(pid).unwrap() <= before);
    }

    #[test]
    fn mount_lookup_prefers_the_longest_prefix() {
        let mounts = "/dev/vda / ext4 rw 0 0\n\
                      tmpfs /tmp tmpfs rw 0 0\n\
                      /dev/vdb /tmp/data xfs rw 0 0\n";
        assert_eq!(fs_type_of(mounts, "/root/repo/benchmark/out"), Some("ext4"));
        assert_eq!(fs_type_of(mounts, "/tmp/x"), Some("tmpfs"));
        assert_eq!(fs_type_of(mounts, "/tmp/data/wal"), Some("xfs"));
        assert_eq!(fs_type_of(mounts, "/tmpfoo"), Some("ext4"));
        assert_eq!(fs_type_of("", "/x"), None);
    }

    #[test]
    fn client_counts_never_exceed_nproc() {
        assert_eq!(clients(1), 1);
        assert!(clients(2) <= nproc());
        assert_eq!(clients(1 << 20), nproc());
        assert_eq!(clients(0), 1);
    }

    #[test]
    fn the_last_allowed_cpu_is_parsed_from_every_list_shape() {
        assert_eq!(last_allowed_cpu("\t0-1\n"), Some(1));
        assert_eq!(last_allowed_cpu("0,2-3"), Some(3));
        assert_eq!(last_allowed_cpu("0-3,8"), Some(8));
        assert_eq!(last_allowed_cpu(" 5"), Some(5));
        assert_eq!(last_allowed_cpu(""), None);
    }
}
