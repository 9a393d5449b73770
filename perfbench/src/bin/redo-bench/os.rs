//! The two things the benchmark asks of the operating system beyond
//! `std`: CPU affinity and a filesystem-wide sync. Linux has them; on
//! any other system both are no-ops and the run goes on unpinned.

/// The CPUs this process may run on, ascending (a cpuset need not start
/// at 0). Empty when the system does not say.
pub fn allowed_cpus() -> Vec<usize> {
    imp::allowed_cpus()
}

/// Restricts the calling thread to `cpus` (best effort: the kernel
/// refuses an empty set and the thread stays where it was).
pub fn run_on(cpus: &[usize]) {
    imp::run_on(cpus);
}

/// Commits the pending work of the filesystem `dir` lives on.
pub fn sync_filesystem(dir: &std::path::Path) {
    imp::sync_filesystem(dir);
}

#[cfg(target_os = "linux")]
mod imp {
    use std::os::fd::AsRawFd;

    /// Words of a CPU mask: room for 1024 CPUs, glibc's `cpu_set_t`.
    const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
        fn syncfs(fd: i32) -> i32;
    }

    pub fn allowed_cpus() -> Vec<usize> {
        let mut mask = [0u64; WORDS];
        // SAFETY: pid 0 names the calling thread; `mask` is a live,
        // writable buffer of exactly the size passed.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        if rc != 0 {
            return Vec::new();
        }
        (0..WORDS * 64)
            .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
            .collect()
    }

    pub fn run_on(cpus: &[usize]) {
        let mut mask = [0u64; WORDS];
        for &cpu in cpus.iter().filter(|&&cpu| cpu < WORDS * 64) {
            mask[cpu / 64] |= 1 << (cpu % 64);
        }
        // SAFETY: pid 0 names the calling thread; `mask` is a live
        // buffer of exactly the size passed, and the call only reads it.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(&mask), mask.as_ptr()) };
    }

    pub fn sync_filesystem(dir: &std::path::Path) {
        if let Ok(dir) = std::fs::File::open(dir) {
            // SAFETY: `dir` is an open descriptor for the whole call.
            unsafe { syncfs(dir.as_raw_fd()) };
        }
    }
}

#[cfg(not(target_os = "linux"))]
mod imp {
    pub fn allowed_cpus() -> Vec<usize> {
        Vec::new()
    }
    pub fn run_on(_cpus: &[usize]) {}
    pub fn sync_filesystem(_dir: &std::path::Path) {}
}
