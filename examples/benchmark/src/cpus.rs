//! Which core the served system runs on and which the load generator.
//!
//! A serving workload has five or six threads (clients or generator and
//! collector, connection handlers, one worker) on the reference box's two
//! shared cores. Left to the kernel, each run settles into its own placement
//! of them, and a run's median latency follows the placement: runs of the
//! same code sat 10 to 20 % apart, each steady within itself. So the threads
//! of the server (everything `NetServer::bind` / `RegistryServer::start`
//! spawns inherits the caller's mask) go on the first core the process may
//! use and the load generator's on the second, the way a load generator is
//! kept off the machine it loads. With a single core there is nothing to
//! split and nothing is pinned.

use std::sync::OnceLock;

#[cfg(target_os = "linux")]
mod sys {
    /// `cpu_set_t`: 1024 bits.
    pub const WORDS: usize = 16;

    extern "C" {
        fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
        fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
    }

    /// The calling thread's affinity mask.
    pub fn get() -> Option<[u64; WORDS]> {
        let mut mask = [0u64; WORDS];
        // SAFETY: `mask` is `size_of_val(&mask)` writable bytes, which is all
        // the call may write; pid 0 is the calling thread.
        let rc = unsafe { sched_getaffinity(0, std::mem::size_of_val(&mask), mask.as_mut_ptr()) };
        (rc == 0).then_some(mask)
    }

    /// Sets the calling thread's affinity mask.
    pub fn set(mask: &[u64; WORDS]) -> bool {
        // SAFETY: `mask` is `size_of_val(mask)` readable bytes; pid 0 is the
        // calling thread.
        unsafe { sched_setaffinity(0, std::mem::size_of_val(mask), mask.as_ptr()) == 0 }
    }
}

#[cfg(not(target_os = "linux"))]
mod sys {
    pub const WORDS: usize = 16;

    pub fn get() -> Option<[u64; WORDS]> {
        None
    }

    pub fn set(_mask: &[u64; WORDS]) -> bool {
        false
    }
}

/// The side of a serving workload a thread belongs to.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Side {
    /// The system under test: worker and connection handlers.
    Server,
    /// Clients, or the open-loop generator and its collector.
    Load,
}

/// Cores the process has, as it was started: what bounds the load generator's
/// threads and connections. The first call must come before any thread is
/// pinned (a pinned thread counts one); `main` makes it, for the header.
pub fn nproc() -> usize {
    static NPROC: OnceLock<usize> = OnceLock::new();
    *NPROC.get_or_init(|| std::thread::available_parallelism().map_or(1, |n| n.get()))
}

/// The cores the process may use, as it was started; first called by `main`
/// as well.
pub fn allowed() -> &'static [usize] {
    static ALLOWED: OnceLock<Vec<usize>> = OnceLock::new();
    ALLOWED.get_or_init(|| {
        sys::get().map_or_else(Vec::new, |mask| {
            (0..sys::WORDS * 64)
                .filter(|cpu| mask[cpu / 64] >> (cpu % 64) & 1 == 1)
                .collect()
        })
    })
}

fn mask_of(cpus: &[usize]) -> [u64; sys::WORDS] {
    let mut mask = [0u64; sys::WORDS];
    for cpu in cpus {
        mask[cpu / 64] |= 1 << (cpu % 64);
    }
    mask
}

/// The core of `side`, when there are two to split.
pub fn core_of(side: Side) -> Option<usize> {
    match (allowed(), side) {
        ([server, _, ..], Side::Server) => Some(*server),
        ([_, load, ..], Side::Load) => Some(*load),
        _ => None,
    }
}

/// Pins the calling thread, and every thread it spawns from now on, to the
/// core of `side`. For threads that end with their part of the load.
pub fn pin(side: Side) {
    if let Some(cpu) = core_of(side) {
        sys::set(&mask_of(&[cpu]));
    }
}

/// Runs `f` with the calling thread on the core of `side`, so that the threads
/// `f` spawns stay there, and gives the calling thread its cores back.
pub fn on<T>(side: Side, f: impl FnOnce() -> T) -> T {
    pin(side);
    let out = f();
    if core_of(side).is_some() {
        sys::set(&mask_of(allowed()));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn masks_round_trip() {
        let mask = mask_of(&[0, 3, 64, 1023]);
        assert_eq!(mask[0], 0b1001);
        assert_eq!(mask[1], 1);
        assert_eq!(mask[15], 1 << 63);
    }

    #[test]
    fn a_pinned_scope_gives_the_cores_back() {
        let before = sys::get();
        let inside = on(Side::Server, sys::get);
        assert_eq!(sys::get(), before);
        if let (Some(cpu), Some(inside)) = (core_of(Side::Server), inside) {
            assert_eq!(inside, mask_of(&[cpu]));
            assert_ne!(core_of(Side::Load), Some(cpu));
        }
    }
}
