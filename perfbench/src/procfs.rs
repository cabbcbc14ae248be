//! Process and host facts read from `/proc`: CPU time per process and
//! per named thread group, the peak-RSS high-water mark (and its reset),
//! and the host settings a live run depends on.

use std::collections::BTreeMap;
use std::sync::atomic::{AtomicBool, Ordering};
use std::sync::Arc;
use std::thread::JoinHandle;
use std::time::Duration;

/// Clock ticks per second in `/proc/*/stat` CPU fields. The kernel
/// reports these in USER_HZ, which is 100 on every mainstream Linux.
const TICKS_PER_SEC: f64 = 100.0;

/// How often the thread sampler rereads `/proc/self/task`. A thread that
/// exits loses at most this much CPU to the `other` group.
const SAMPLE_EVERY: Duration = Duration::from_millis(10);

/// Parses a `/proc/<pid>[/task/<tid>]/stat` line into the thread or
/// process name (`comm`) and its user+system CPU in clock ticks.
///
/// `comm` sits in parentheses and may itself contain spaces or `)`, so
/// the fixed-position fields are counted from the *last* `)`.
pub fn parse_stat(stat: &str) -> Option<(String, u64)> {
    let open = stat.find('(')?;
    let close = stat.rfind(')')?;
    let comm = stat.get(open + 1..close)?.to_string();
    let mut fields = stat.get(close + 1..)?.split_ascii_whitespace();
    // After `)` come field 3 (state) onwards; utime and stime are
    // fields 14 and 15.
    let utime: u64 = fields.nth(11)?.parse().ok()?;
    let stime: u64 = fields.next()?.parse().ok()?;
    Some((comm, utime + stime))
}

/// User+system CPU seconds this process has used so far, over all of
/// its threads, live and exited.
pub fn process_cpu_s() -> f64 {
    std::fs::read_to_string("/proc/self/stat")
        .ok()
        .and_then(|s| parse_stat(&s))
        .map_or(0.0, |(_, ticks)| ticks as f64 / TICKS_PER_SEC)
}

/// The thread groups a live run is broken down into, by the names the
/// lsw crates give their threads.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Group {
    /// `lsw-accept`: the replay server's accept thread.
    Accept,
    /// `lsw-reactor-*` (and `lsw-tick-*`): replay server worker shards.
    Reactor,
    /// `lsw-drive-*`: load driver workers.
    Driver,
    /// `lsw-relay-*`: edge relay reactors.
    Relay,
    /// Everything else: the benchmark, the tap, unnamed scoped threads.
    Other,
}

impl Group {
    /// Attributes a thread to its group by its `comm` name.
    pub fn of(comm: &str) -> Group {
        if comm == "lsw-accept" {
            Group::Accept
        } else if comm.starts_with("lsw-reactor-") || comm.starts_with("lsw-tick-") {
            Group::Reactor
        } else if comm.starts_with("lsw-drive-") {
            Group::Driver
        } else if comm.starts_with("lsw-relay-") {
            Group::Relay
        } else {
            Group::Other
        }
    }
}

/// CPU seconds and distinct thread count per named group over a window.
#[derive(Debug, Clone, Default)]
pub struct GroupCpu {
    /// CPU seconds per named group.
    pub cpu_s: BTreeMap<Group, f64>,
    /// Distinct threads seen per named group.
    pub threads: BTreeMap<Group, usize>,
    /// Process CPU seconds over the window not attributed to a named group.
    pub other_s: f64,
}

impl GroupCpu {
    /// CPU seconds of one named group (0 when it never ran).
    pub fn cpu(&self, g: Group) -> f64 {
        self.cpu_s.get(&g).copied().unwrap_or(0.0)
    }

    /// Busy share of a group: its CPU seconds over `wall_s` times its
    /// thread count, so 1.0 means every thread of the group ran flat out.
    pub fn busy(&self, g: Group, wall_s: f64) -> f64 {
        let n = self.threads.get(&g).copied().unwrap_or(0);
        if n == 0 || wall_s <= 0.0 {
            return 0.0;
        }
        self.cpu(g) / (wall_s * n as f64)
    }
}

/// Per-thread tick counts keyed by tid: `(group, ticks at first sight,
/// ticks at last sight)`.
type TaskTable = BTreeMap<u32, (Group, u64, u64)>;

/// Folds one scan of `(tid, comm, ticks)` rows into the table. A tid seen
/// for the first time is charged from zero unless it predates the window
/// (`baseline`), so threads spawned inside the window count in full.
pub fn fold_tasks(table: &mut TaskTable, rows: &[(u32, String, u64)], baseline: bool) {
    for (tid, comm, ticks) in rows {
        let entry = table.entry(*tid).or_insert((
            Group::of(comm),
            if baseline { *ticks } else { 0 },
            *ticks,
        ));
        entry.2 = entry.2.max(*ticks);
    }
}

/// Sums a task table into per-group CPU, with `process_s` (the process
/// CPU delta over the same window) minus the named groups as `other`.
pub fn attribute(table: &TaskTable, process_s: f64) -> GroupCpu {
    let mut out = GroupCpu::default();
    for (group, first, last) in table.values() {
        if *group == Group::Other {
            continue;
        }
        *out.cpu_s.entry(*group).or_insert(0.0) +=
            last.saturating_sub(*first) as f64 / TICKS_PER_SEC;
        *out.threads.entry(*group).or_insert(0) += 1;
    }
    let named: f64 = out.cpu_s.values().sum();
    out.other_s = (process_s - named).max(0.0);
    out
}

fn scan_tasks() -> Vec<(u32, String, u64)> {
    let Ok(dir) = std::fs::read_dir("/proc/self/task") else {
        return Vec::new();
    };
    dir.filter_map(|e| {
        let e = e.ok()?;
        let tid: u32 = e.file_name().to_str()?.parse().ok()?;
        let stat = std::fs::read_to_string(e.path().join("stat")).ok()?;
        let (comm, ticks) = parse_stat(&stat)?;
        Some((tid, comm, ticks))
    })
    .collect()
}

/// Samples `/proc/self/task/*/stat` on a background thread so threads
/// that exit before the window closes are still attributed.
pub struct TaskSampler {
    stop: Arc<AtomicBool>,
    handle: Option<JoinHandle<TaskTable>>,
    cpu0: f64,
}

impl TaskSampler {
    /// Starts sampling; CPU already spent by live threads is excluded.
    pub fn start() -> Self {
        let cpu0 = process_cpu_s();
        let mut table = TaskTable::new();
        fold_tasks(&mut table, &scan_tasks(), true);
        let stop = Arc::new(AtomicBool::new(false));
        let flag = Arc::clone(&stop);
        let handle = std::thread::spawn(move || {
            while !flag.load(Ordering::Relaxed) {
                std::thread::sleep(SAMPLE_EVERY);
                fold_tasks(&mut table, &scan_tasks(), false);
            }
            fold_tasks(&mut table, &scan_tasks(), false);
            table
        });
        Self {
            stop,
            handle: Some(handle),
            cpu0,
        }
    }

    /// Stops the sampler and attributes the window's CPU to groups.
    pub fn finish(mut self) -> GroupCpu {
        let table = self.stop_and_join();
        attribute(&table, process_cpu_s() - self.cpu0)
    }

    fn stop_and_join(&mut self) -> TaskTable {
        self.stop.store(true, Ordering::Relaxed);
        self.handle
            .take()
            .map(|h| h.join().expect("the task sampler thread panicked"))
            .unwrap_or_default()
    }
}

impl Drop for TaskSampler {
    fn drop(&mut self) {
        if let Some(h) = self.handle.take() {
            self.stop.store(true, Ordering::Relaxed);
            // A sampler panic is already reported on its own thread.
            let _ = h.join();
        }
    }
}

/// Resets the process's peak-RSS high-water mark (`VmHWM`) to its
/// current RSS, so the next [`peak_rss_mib`] covers only what follows.
pub fn reset_peak_rss() -> std::io::Result<()> {
    std::fs::write("/proc/self/clear_refs", "5")
}

/// Reads one `kB` field (e.g. `VmHWM`) of a `/proc/*/status` text as MiB.
pub fn status_mib(status: &str, key: &str) -> Option<f64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let kb: f64 = rest.split_ascii_whitespace().next()?.parse().ok()?;
        Some(kb / 1024.0)
    })
}

/// The process's peak RSS since start or the last [`reset_peak_rss`].
pub fn peak_rss_mib() -> f64 {
    std::fs::read_to_string("/proc/self/status")
        .ok()
        .and_then(|s| status_mib(&s, "VmHWM"))
        .unwrap_or(0.0)
}

/// Host facts recorded beside every result. They describe the run; no
/// verdict depends on them.
#[derive(Debug, Clone)]
pub struct Host {
    /// CPUs available to this process.
    pub nproc: usize,
    /// Loopback ephemeral-port range (`ip_local_port_range`).
    pub ports: (u32, u32),
    /// `net.ipv4.tcp_tw_reuse`.
    pub tw_reuse: u32,
    /// Kernel release.
    pub kernel: String,
}

impl Host {
    /// Reads the host facts (unreadable ones come back as 0 / empty).
    pub fn read() -> Self {
        let read = |p: &str| std::fs::read_to_string(p).unwrap_or_default();
        let range = read("/proc/sys/net/ipv4/ip_local_port_range");
        let mut it = range
            .split_ascii_whitespace()
            .map(|v| v.parse().unwrap_or(0));
        Self {
            nproc: std::thread::available_parallelism().map_or(1, |n| n.get()),
            ports: (it.next().unwrap_or(0), it.next().unwrap_or(0)),
            tw_reuse: read("/proc/sys/net/ipv4/tcp_tw_reuse")
                .trim()
                .parse()
                .unwrap_or(0),
            kernel: read("/proc/sys/kernel/osrelease").trim().to_string(),
        }
    }

    /// Ephemeral ports one client address can hold open at once.
    pub fn port_budget(&self) -> u32 {
        (self.ports.1 + 1).saturating_sub(self.ports.0)
    }

    /// One-line rendering for the report.
    pub fn render(&self) -> String {
        format!(
            "nproc={} ip_local_port_range={}-{} ({} ports) tcp_tw_reuse={} kernel={}",
            self.nproc,
            self.ports.0,
            self.ports.1,
            self.port_budget(),
            self.tw_reuse,
            self.kernel
        )
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_parse_reads_comm_and_cpu_ticks() {
        let line = "4242 (lsw-reactor-0) S 1 2 3 4 5 6 7 8 9 10 250 75 0 0 20 0 1 0 99";
        assert_eq!(parse_stat(line), Some(("lsw-reactor-0".to_string(), 325)));
    }

    #[test]
    fn stat_parse_survives_spaces_and_parens_in_comm() {
        let line = "7 (a b) c)) R 1 2 3 4 5 6 7 8 9 10 3 4 0 0 20 0 1 0 99";
        assert_eq!(parse_stat(line), Some(("a b) c)".to_string(), 7)));
        assert_eq!(parse_stat("7 (x) R 1 2"), None);
        assert_eq!(parse_stat("garbage"), None);
    }

    #[test]
    fn own_process_cpu_is_readable() {
        let stat = std::fs::read_to_string("/proc/self/stat").unwrap();
        assert!(parse_stat(&stat).is_some());
        assert!(process_cpu_s() >= 0.0);
    }

    #[test]
    fn threads_are_grouped_by_name() {
        assert_eq!(Group::of("lsw-accept"), Group::Accept);
        assert_eq!(Group::of("lsw-reactor-1"), Group::Reactor);
        assert_eq!(Group::of("lsw-tick-0"), Group::Reactor);
        assert_eq!(Group::of("lsw-drive-3"), Group::Driver);
        assert_eq!(Group::of("lsw-relay-0"), Group::Relay);
        assert_eq!(Group::of("lsw-acceptor"), Group::Other);
        assert_eq!(Group::of("lsw-perfbench"), Group::Other);
    }

    #[test]
    fn attribution_charges_window_deltas_and_leaves_the_rest_to_other() {
        let mut table = TaskTable::new();
        // Before the window: the main thread and a reactor already ran.
        fold_tasks(
            &mut table,
            &[(1, "main".into(), 500), (2, "lsw-reactor-0".into(), 40)],
            true,
        );
        // Inside: the reactor runs on, a driver is born and exits after
        // one sample, a second driver appears.
        fold_tasks(
            &mut table,
            &[
                (2, "lsw-reactor-0".into(), 140),
                (3, "lsw-drive-0".into(), 30),
                (4, "lsw-drive-1".into(), 20),
            ],
            false,
        );
        fold_tasks(&mut table, &[(2, "lsw-reactor-0".into(), 240)], false);
        let g = attribute(&table, 5.0);
        assert!((g.cpu(Group::Reactor) - 2.0).abs() < 1e-9);
        assert!((g.cpu(Group::Driver) - 0.5).abs() < 1e-9);
        assert_eq!(g.threads[&Group::Driver], 2);
        assert_eq!(g.cpu(Group::Relay), 0.0);
        assert!((g.other_s - 2.5).abs() < 1e-9);
        assert!((g.busy(Group::Reactor, 4.0) - 0.5).abs() < 1e-9);
        assert!((g.busy(Group::Driver, 1.0) - 0.25).abs() < 1e-9);
        assert_eq!(g.busy(Group::Accept, 1.0), 0.0);
    }

    #[test]
    fn sampler_attributes_a_named_busy_thread() {
        let sampler = TaskSampler::start();
        std::thread::Builder::new()
            .name("lsw-drive-9".into())
            .spawn(|| {
                let t0 = std::time::Instant::now();
                let mut x = 0u64;
                while t0.elapsed() < Duration::from_millis(150) {
                    x = x.wrapping_mul(31).wrapping_add(1);
                }
                x
            })
            .unwrap()
            .join()
            .unwrap();
        let g = sampler.finish();
        assert_eq!(g.threads[&Group::Driver], 1);
        assert!(g.cpu(Group::Driver) > 0.05, "{g:?}");
    }

    #[test]
    fn status_field_parses_as_mib() {
        let status = "Name:\tx\nVmPeak:\t 9000 kB\nVmHWM:\t    2048 kB\nVmRSS:\t 1024 kB\n";
        assert_eq!(status_mib(status, "VmHWM"), Some(2.0));
        assert_eq!(status_mib(status, "VmRSS"), Some(1.0));
        assert_eq!(status_mib(status, "VmSwap"), None);
    }

    #[test]
    fn peak_rss_reset_drops_the_high_water_mark() {
        let before = peak_rss_mib();
        assert!(before > 0.0);
        {
            // Touch 64 MiB so the high-water mark rises, then free it.
            let big = vec![1u8; 64 << 20];
            assert!(peak_rss_mib() >= 64.0);
            std::hint::black_box(&big);
        }
        let high = peak_rss_mib();
        reset_peak_rss().unwrap();
        let after = peak_rss_mib();
        assert!(after + 32.0 < high, "reset kept {after} MiB of {high}");
    }

    #[test]
    fn host_facts_are_read() {
        let h = Host::read();
        assert!(h.nproc >= 1);
        assert!(h.render().contains("nproc="));
    }
}
