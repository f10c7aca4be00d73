//! Resource accounting from `/proc`: CPU time, context switches and peak
//! resident memory of the benchmark process **and its worker processes**.
//!
//! Everything is read from outside the measured code, so the figures cost
//! the data plane nothing and survive any refactor of it.

/// Kernel clock ticks per second. Linux has reported `USER_HZ = 100` on
/// every architecture for two decades; there is no `sysconf` without libc.
const TICKS_PER_SEC: u64 = 100;

/// CPU time of one process, in microseconds. `user`/`sys` cover every
/// thread the process ever had; `child_*` covers children it has already
/// reaped (so a tree total never loses a worker that exited mid-window).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct CpuTimes {
    pub user_us: u64,
    pub sys_us: u64,
    pub child_user_us: u64,
    pub child_sys_us: u64,
}

impl CpuTimes {
    /// User + system time including reaped children.
    pub fn total_us(&self) -> u64 {
        self.user_us + self.sys_us + self.child_user_us + self.child_sys_us
    }

    /// System time including reaped children.
    pub fn sys_total_us(&self) -> u64 {
        self.sys_us + self.child_sys_us
    }

    /// Field-wise sum (this process plus a live worker process).
    pub fn plus(&self, other: &CpuTimes) -> CpuTimes {
        CpuTimes {
            user_us: self.user_us + other.user_us,
            sys_us: self.sys_us + other.sys_us,
            child_user_us: self.child_user_us + other.child_user_us,
            child_sys_us: self.child_sys_us + other.child_sys_us,
        }
    }
}

/// Parses the contents of `/proc/<pid>/stat`. The command name (field 2)
/// may itself contain spaces and parentheses, so fields are counted from
/// the *last* `)`.
pub fn parse_stat(content: &str) -> Option<CpuTimes> {
    let rest = &content[content.rfind(')')? + 1..];
    let fields: Vec<&str> = rest.split_whitespace().collect();
    // `rest` starts at field 3 (state); utime/stime/cutime/cstime are
    // fields 14–17.
    let tick = |field: usize| -> Option<u64> {
        let ticks: u64 = fields.get(field - 3)?.parse().ok()?;
        Some(ticks * 1_000_000 / TICKS_PER_SEC)
    };
    Some(CpuTimes {
        user_us: tick(14)?,
        sys_us: tick(15)?,
        child_user_us: tick(16)?,
        child_sys_us: tick(17)?,
    })
}

/// The `/proc/<pid>/status` counters the benchmark uses.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct StatusCounters {
    pub voluntary_ctxt: u64,
    pub nonvoluntary_ctxt: u64,
    /// Peak resident set size (`VmHWM`), in KiB. Process-wide.
    pub vm_hwm_kb: u64,
}

/// Parses the contents of a `status` file (process or task level).
pub fn parse_status(content: &str) -> StatusCounters {
    let mut s = StatusCounters::default();
    for line in content.lines() {
        let Some((key, val)) = line.split_once(':') else {
            continue;
        };
        let num = || {
            val.split_whitespace()
                .next()
                .and_then(|v| v.parse::<u64>().ok())
                .unwrap_or(0)
        };
        match key {
            "voluntary_ctxt_switches" => s.voluntary_ctxt = num(),
            "nonvoluntary_ctxt_switches" => s.nonvoluntary_ctxt = num(),
            "VmHWM" => s.vm_hwm_kb = num(),
            _ => {}
        }
    }
    s
}

/// Parses the contents of a `schedstat` file: the first field is the time
/// the task has spent on a CPU, in nanoseconds.
pub fn parse_schedstat(content: &str) -> Option<u64> {
    content.split_whitespace().next()?.parse().ok()
}

/// On-CPU nanoseconds summed over every live thread of `pid`, from
/// `/proc/<pid>/task/*/schedstat` — the same quantity as user+sys time,
/// but at nanosecond instead of 10 ms resolution. `None` where the kernel
/// does not keep schedstats. Threads that have exited are not counted, so
/// this is only good for deltas over a span in which none exits (the
/// measurement window: pool, I/O and timer threads all outlive it).
pub fn run_ns_of(pid: u32) -> Option<u64> {
    let tasks = std::fs::read_dir(format!("/proc/{pid}/task")).ok()?;
    let mut total = 0;
    for task in tasks.flatten() {
        // A thread may exit between the listing and the read.
        if let Ok(s) = std::fs::read_to_string(task.path().join("schedstat")) {
            total += parse_schedstat(&s)?;
        }
    }
    Some(total)
}

/// [`run_ns_of`] summed over this process and the given workers.
pub fn run_ns_of_tree(children: &[u32]) -> Option<u64> {
    children
        .iter()
        .try_fold(run_ns_of(std::process::id())?, |acc, &pid| {
            Some(acc + run_ns_of(pid)?)
        })
}

/// CPU time of process `pid` (zero if it is gone).
pub fn cpu_of(pid: u32) -> CpuTimes {
    std::fs::read_to_string(format!("/proc/{pid}/stat"))
        .ok()
        .and_then(|s| parse_stat(&s))
        .unwrap_or_default()
}

/// CPU time of this process plus the given live worker processes.
pub fn cpu_of_tree(children: &[u32]) -> CpuTimes {
    children
        .iter()
        .fold(cpu_of(std::process::id()), |acc, &pid| {
            acc.plus(&cpu_of(pid))
        })
}

/// Context switches summed over every live thread of `pid` (the
/// process-level `status` file only counts the main thread), plus the
/// process-wide peak RSS.
pub fn status_of(pid: u32) -> StatusCounters {
    let mut total = std::fs::read_to_string(format!("/proc/{pid}/status"))
        .map(|s| parse_status(&s))
        .unwrap_or_default();
    total.voluntary_ctxt = 0;
    total.nonvoluntary_ctxt = 0;
    let Ok(tasks) = std::fs::read_dir(format!("/proc/{pid}/task")) else {
        return total;
    };
    for task in tasks.flatten() {
        if let Ok(s) = std::fs::read_to_string(task.path().join("status")) {
            let t = parse_status(&s);
            total.voluntary_ctxt += t.voluntary_ctxt;
            total.nonvoluntary_ctxt += t.nonvoluntary_ctxt;
        }
    }
    total
}

/// [`status_of`] summed over this process and the given workers
/// (`vm_hwm_kb` adds up across the tree).
pub fn status_of_tree(children: &[u32]) -> StatusCounters {
    let mut total = status_of(std::process::id());
    for &pid in children {
        let s = status_of(pid);
        total.voluntary_ctxt += s.voluntary_ctxt;
        total.nonvoluntary_ctxt += s.nonvoluntary_ctxt;
        total.vm_hwm_kb += s.vm_hwm_kb;
    }
    total
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn stat_survives_hostile_command_names() {
        let line = "4242 (bench (tcp) child) S 1 4242 4242 0 -1 4194304 1500 0 0 0 \
                    250 75 30 12 20 0 5 0 123456 1000000 900 18446744073709551615";
        let t = parse_stat(line).expect("parses");
        assert_eq!(t.user_us, 2_500_000);
        assert_eq!(t.sys_us, 750_000);
        assert_eq!(t.child_user_us, 300_000);
        assert_eq!(t.child_sys_us, 120_000);
        assert_eq!(t.total_us(), 3_670_000);
        assert_eq!(t.sys_total_us(), 870_000);
        assert!(parse_stat("garbage").is_none());
        assert!(parse_stat("1 (x) S 1 2").is_none());
    }

    #[test]
    fn schedstat_reads_on_cpu_time() {
        assert_eq!(parse_schedstat("38584 84371 1\n"), Some(38584));
        assert_eq!(parse_schedstat(""), None);
        assert_eq!(parse_schedstat("x 1 2"), None);
        // Where the kernel keeps schedstats, burning CPU moves the figure.
        if let Some(before) = run_ns_of(std::process::id()) {
            let mut x = 0u64;
            for i in 0..20_000_000u64 {
                x = std::hint::black_box(x.wrapping_add(i));
            }
            let after = run_ns_of(std::process::id()).expect("still there");
            assert!(after > before, "{before} -> {after} ({x})");
        }
    }

    #[test]
    fn status_picks_the_counters() {
        let s = parse_status(
            "Name:\tbench\nVmHWM:\t  204800 kB\nThreads:\t5\n\
             voluntary_ctxt_switches:\t1200\nnonvoluntary_ctxt_switches:\t34\n",
        );
        assert_eq!(
            s,
            StatusCounters {
                voluntary_ctxt: 1200,
                nonvoluntary_ctxt: 34,
                vm_hwm_kb: 204800,
            }
        );
    }

    #[test]
    fn tree_total_includes_children() {
        // A live child's CPU shows up in the tree total while it runs, and
        // in the parent's child_* fields once it has been reaped.
        let mut child = std::process::Command::new("sh")
            .args(["-c", "i=0; while [ $i -lt 200000 ]; do i=$((i+1)); done"])
            .spawn()
            .expect("spawn sh");
        let alone = cpu_of(std::process::id());
        let with_child = cpu_of_tree(&[child.id()]);
        assert!(with_child.total_us() >= alone.total_us());
        child.wait().expect("reap");
        let after = cpu_of(std::process::id());
        assert!(
            after.child_user_us + after.child_sys_us > 0,
            "a reaped child's CPU moves into the parent's cutime/cstime: {after:?}"
        );
        assert_eq!(
            cpu_of(child.id()),
            CpuTimes::default(),
            "gone pid reads zero"
        );
        assert!(status_of(std::process::id()).vm_hwm_kb > 0);
    }
}
