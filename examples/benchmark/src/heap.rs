//! A heap that is already faulted in, for the workloads whose window keeps
//! asking for fresh memory.
//!
//! A serving worker keeps one activation arena and the arena only grows
//! (about 150 MB a second under overload), so its window faults in fresh
//! pages throughout. On the reference box a page the VM has not touched
//! lately costs 22 µs to fault in against 1.8 µs for one it has, the host
//! takes freed pages back within seconds, and about 1 GB stays cheap: goodput
//! held at 2300 1/s until the cheap pages ran out, somewhere in the window,
//! and then halved. That measures the hypervisor. So the process first grows
//! its heap to what the window will need, touches every page and frees it
//! all to the allocator, which is told to keep it: one arena for all threads,
//! no `mmap` for large blocks, no trimming.

#[cfg(all(target_os = "linux", target_env = "gnu"))]
mod glibc {
    extern "C" {
        fn mallopt(param: i32, value: i32) -> i32;
    }
    const M_TRIM_THRESHOLD: i32 = -1;
    const M_MMAP_MAX: i32 = -4;
    const M_ARENA_MAX: i32 = -8;

    /// Keeps everything `free`d on the one heap every thread allocates from.
    pub fn keep_freed_memory() -> bool {
        // SAFETY: `mallopt` only stores the value in the allocator's
        // parameters; it is called before any other thread exists.
        unsafe {
            mallopt(M_ARENA_MAX, 1) == 1
                && mallopt(M_MMAP_MAX, 0) == 1
                && mallopt(M_TRIM_THRESHOLD, i32::MAX) == 1
        }
    }
}

#[cfg(not(all(target_os = "linux", target_env = "gnu")))]
mod glibc {
    pub fn keep_freed_memory() -> bool {
        false
    }
}

/// Faults in `bytes` of heap and leaves them with the allocator; returns the
/// seconds it took, or `None` where the allocator cannot be told to keep
/// them (not glibc).
pub fn prefault(bytes: usize) -> Option<f64> {
    const BLOCK: usize = 16 << 20;
    const PAGE: usize = 4096;
    if bytes == 0 || !glibc::keep_freed_memory() {
        return None;
    }
    let t = std::time::Instant::now();
    let blocks: Vec<Vec<u8>> = (0..bytes.div_ceil(BLOCK))
        .map(|_| {
            let mut block = vec![0u8; BLOCK];
            block.iter_mut().step_by(PAGE).for_each(|b| *b = 1);
            std::hint::black_box(block)
        })
        .collect();
    drop(blocks);
    Some(t.elapsed().as_secs_f64())
}

/// The process's peak resident set (`VmHWM`), where `/proc` has it.
pub fn peak_rss_bytes() -> Option<usize> {
    let status = std::fs::read_to_string("/proc/self/status").ok()?;
    let line = status.lines().find(|l| l.starts_with("VmHWM:"))?;
    let kb: usize = line.split_whitespace().nth(1)?.parse().ok()?;
    Some(kb * 1024)
}
