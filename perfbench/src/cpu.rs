//! Which CPU the measuring thread runs on.
//!
//! On a shared virtual machine the CPUs are not equally fast: on the
//! reference host one vCPU ran a fixed loop 25 % slower than the other,
//! and a single-threaded run stays on whichever CPU the scheduler first
//! gave it. Single-threaded rounds therefore rotate the thread over the
//! allowed CPUs, so a phase's better rounds do not depend on that first
//! placement. The two-thread parallel windows run unpinned.

const SET_WORDS: usize = 16;

#[repr(C)]
struct CpuSet([u64; SET_WORDS]);

extern "C" {
    fn sched_getaffinity(pid: i32, size: usize, mask: *mut CpuSet) -> i32;
    fn sched_setaffinity(pid: i32, size: usize, mask: *const CpuSet) -> i32;
}

/// The CPUs this thread may run on when the benchmark starts.
pub struct Cpus {
    all: Vec<usize>,
}

impl Cpus {
    pub fn allowed() -> Cpus {
        let mut set = CpuSet([0; SET_WORDS]);
        // SAFETY: `set` is a writable `cpu_set_t`-sized buffer whose size
        // is passed alongside it; pid 0 names the calling thread.
        let ok = unsafe { sched_getaffinity(0, std::mem::size_of::<CpuSet>(), &mut set) } == 0;
        let all = if ok {
            (0..SET_WORDS * 64)
                .filter(|&c| set.0[c / 64] >> (c % 64) & 1 == 1)
                .collect()
        } else {
            Vec::new()
        };
        Cpus { all }
    }

    /// Restricts the calling thread to the `round`-th allowed CPU,
    /// cyclically.
    pub fn rotate(&self, round: usize) {
        if let Some(&c) = self.all.get(round % self.all.len().max(1)) {
            set(&[c]);
        }
    }

    /// Lets the calling thread run on every allowed CPU again.
    pub fn release(&self) {
        set(&self.all);
    }
}

fn set(cpus: &[usize]) {
    if cpus.is_empty() {
        return;
    }
    let mut mask = CpuSet([0; SET_WORDS]);
    for &c in cpus {
        mask.0[c / 64] |= 1 << (c % 64);
    }
    // SAFETY: `mask` is a `cpu_set_t`-sized buffer whose size is passed
    // alongside it; pid 0 names the calling thread. A failure leaves
    // the affinity unchanged, which only costs steadiness.
    unsafe {
        sched_setaffinity(0, std::mem::size_of::<CpuSet>(), &mask);
    }
}
