//! What the kernel says this process cost: CPU time per thread, charged to a
//! layer by the thread's name, and the resident-set high-water mark.  Also
//! where the kernel runs those threads: each is pinned to a CPU by its name.

use std::fs;
use std::io;
use std::path::Path;

/// CPU nanoseconds by the layer whose threads burnt them.
#[derive(Debug, Default, Clone, Copy, PartialEq, Eq)]
pub struct CpuByLayer {
    /// `gc-worker-*` and `gc-controller`: the stop-the-world collector.
    pub workers_ns: u64,
    /// `gc-concurrent-*`: the concurrent crew.
    pub concurrent_ns: u64,
    /// `serve-*`: the serving threads, load-generator spin included.
    pub mutator_ns: u64,
}

impl CpuByLayer {
    /// The collector's own threads: the LBO "cycles" axis.
    pub fn gc_ns(&self) -> u64 {
        self.workers_ns + self.concurrent_ns
    }

    pub fn plus(&self, other: &CpuByLayer) -> CpuByLayer {
        CpuByLayer {
            workers_ns: self.workers_ns + other.workers_ns,
            concurrent_ns: self.concurrent_ns + other.concurrent_ns,
            mutator_ns: self.mutator_ns + other.mutator_ns,
        }
    }

    pub fn since(&self, earlier: &CpuByLayer) -> CpuByLayer {
        CpuByLayer {
            workers_ns: self.workers_ns - earlier.workers_ns,
            concurrent_ns: self.concurrent_ns - earlier.concurrent_ns,
            mutator_ns: self.mutator_ns - earlier.mutator_ns,
        }
    }

    /// Charges one thread: `comm` is its name, `schedstat` the kernel's
    /// `<on-cpu ns> <run-queue wait ns> <timeslices>` line.  Threads of no
    /// layer (the main thread) are not charged.
    fn charge(&mut self, comm: &str, schedstat: &str) -> io::Result<()> {
        let ns: u64 = schedstat.split_whitespace().next().and_then(|f| f.parse().ok()).ok_or_else(|| {
            io::Error::new(io::ErrorKind::InvalidData, format!("bad schedstat `{schedstat}`"))
        })?;
        let comm = comm.trim();
        if comm.starts_with("gc-worker-") || comm == "gc-controller" {
            self.workers_ns += ns;
        } else if comm.starts_with("gc-concurrent-") {
            self.concurrent_ns += ns;
        } else if comm.starts_with("serve-") {
            self.mutator_ns += ns;
        }
        Ok(())
    }
}

/// Sums `(comm, schedstat)` pairs into layers.
pub fn cpu_by_layer<'a>(threads: impl IntoIterator<Item = (&'a str, &'a str)>) -> io::Result<CpuByLayer> {
    let mut cpu = CpuByLayer::default();
    for (comm, schedstat) in threads {
        cpu.charge(comm, schedstat)?;
    }
    Ok(cpu)
}

/// Reads every thread under a `/proc/<pid>/task` directory.  A thread that
/// exits between the listing and the read is skipped.
pub fn read_cpu(task_dir: &Path) -> io::Result<CpuByLayer> {
    let mut threads = Vec::new();
    for entry in fs::read_dir(task_dir)? {
        let dir = entry?.path();
        if let (Ok(comm), Ok(schedstat)) =
            (fs::read_to_string(dir.join("comm")), fs::read_to_string(dir.join("schedstat")))
        {
            threads.push((comm, schedstat));
        }
    }
    if threads.is_empty() {
        let why = format!("no thread with a readable schedstat under {}", task_dir.display());
        return Err(io::Error::new(io::ErrorKind::NotFound, why));
    }
    cpu_by_layer(threads.iter().map(|(c, s)| (c.as_str(), s.as_str())))
}

/// Pins every thread of this process whose name `cpu_for` places to that CPU
/// and returns how many it pinned.
///
/// Left to itself the kernel queues a waking collector thread behind the
/// serving thread that spins for its next arrival: on this host `serve-0`
/// then waits 7 % of a window on its run queue, and the two `gc-worker`s get
/// one CPU or two from one run to the next (`gc_cpu_us_per_request` read 1.0
/// or 2.2 us on identical code).
pub fn place_threads(cpu_for: impl Fn(&str) -> Option<usize>) -> io::Result<usize> {
    let mut pinned = 0;
    for entry in fs::read_dir("/proc/self/task")? {
        let entry = entry?;
        let tid = entry.file_name().to_str().and_then(|t| t.parse::<usize>().ok());
        let comm = fs::read_to_string(entry.path().join("comm"));
        if let (Some(tid), Ok(comm)) = (tid, comm) {
            if let Some(cpu) = cpu_for(comm.trim()) {
                pinned += pin_thread(tid, cpu) as usize;
            }
        }
    }
    Ok(pinned)
}

/// `sched_setaffinity(tid, {cpu})` as a raw syscall, as `lxr::runtime`'s
/// worker pool does for `LXR_SCHED_AFFINITY` (no libc here).  Returns whether
/// the kernel accepted the mask.
#[cfg(all(target_os = "linux", target_arch = "x86_64"))]
fn pin_thread(tid: usize, cpu: usize) -> bool {
    let mut mask = [0u64; 16];
    mask[(cpu / 64) % 16] |= 1 << (cpu % 64);
    let ret: isize;
    // SAFETY: the kernel reads `size_of_val(&mask)` bytes from `mask` and
    // writes no memory; only the named thread's scheduling changes.
    unsafe {
        std::arch::asm!(
            "syscall",
            inlateout("rax") 203isize => ret, // __NR_sched_setaffinity
            in("rdi") tid,
            in("rsi") std::mem::size_of_val(&mask),
            in("rdx") mask.as_ptr(),
            out("rcx") _,
            out("r11") _,
            options(nostack),
        );
    }
    ret == 0
}

/// Elsewhere threads stay where the kernel puts them.
#[cfg(not(all(target_os = "linux", target_arch = "x86_64")))]
fn pin_thread(_tid: usize, _cpu: usize) -> bool {
    false
}

/// `VmHWM` of a `/proc/<pid>/status` text, in KiB.
pub fn vm_hwm_kib(status: &str) -> Option<u64> {
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    line.split_whitespace().nth(1)?.parse().ok()
}

pub fn self_cpu() -> io::Result<CpuByLayer> {
    read_cpu(Path::new("/proc/self/task"))
}

pub fn self_rss_peak_mib() -> io::Result<f64> {
    let status = fs::read_to_string("/proc/self/status")?;
    let kib = vm_hwm_kib(&status)
        .ok_or_else(|| io::Error::new(io::ErrorKind::InvalidData, "no VmHWM in /proc/self/status"))?;
    Ok(kib as f64 / 1024.0)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn thread_names_charge_the_right_layer() {
        let fixture = [
            ("lxr-ledger\n", "900000 10 3\n"),
            ("gc-controller\n", "1000 5 1\n"),
            ("gc-worker-0\n", "20000 5 1\n"),
            ("gc-worker-1\n", "30000 5 1\n"),
            ("gc-concurrent-0\n", "400000 7 2\n"),
            ("serve-0\n", "5000000 0 9\n"),
            ("serve-1\n", "6000000 0 9\n"),
        ];
        let cpu = cpu_by_layer(fixture).unwrap();
        assert_eq!(cpu, CpuByLayer { workers_ns: 51_000, concurrent_ns: 400_000, mutator_ns: 11_000_000 });
        assert_eq!(cpu.gc_ns(), 451_000);
        let later = cpu_by_layer([("gc-worker-0", "71000 0 0"), ("serve-0", "11000001 0 0")]).unwrap();
        assert_eq!(
            later
                .since(&CpuByLayer { workers_ns: 51_000, concurrent_ns: 0, mutator_ns: 11_000_000 })
                .workers_ns,
            20_000
        );
        assert!(cpu_by_layer([("gc-worker-0", "not-a-number 0 0")]).is_err());
    }

    #[test]
    fn reads_the_live_process() {
        let cpu = std::thread::Builder::new()
            .name("serve-9".into())
            .spawn(|| {
                let mut x = 1u64;
                for i in 0..20_000_000u64 {
                    x = std::hint::black_box(x.wrapping_mul(31).wrapping_add(i));
                }
                self_cpu().unwrap()
            })
            .unwrap()
            .join()
            .unwrap();
        assert!(cpu.mutator_ns > 0, "{cpu:?}");
        assert!(self_rss_peak_mib().unwrap() > 0.0);
    }

    #[test]
    fn vm_hwm_is_parsed_in_kib() {
        let status = "Name:\tlxr-ledger\nVmPeak:\t  300000 kB\nVmHWM:\t   65432 kB\nVmRSS:\t 60000 kB\n";
        assert_eq!(vm_hwm_kib(status), Some(65_432));
        assert_eq!(vm_hwm_kib("Name:\tx\n"), None);
    }
}
