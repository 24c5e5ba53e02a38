//! Order statistics and the process CPU clock.

use std::time::Duration;

/// The `q`-quantile (0 ≤ q ≤ 1) of `values` by the nearest-rank method on
/// a sorted copy. `NaN` for an empty slice.
pub fn quantile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return f64::NAN;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = (q * sorted.len() as f64).ceil() as usize;
    sorted[rank.clamp(1, sorted.len()) - 1]
}

/// The median of `values` (`NaN` when empty).
pub fn median(values: &[f64]) -> f64 {
    quantile(values, 0.5)
}

/// Milliseconds in a duration, with all its digits.
pub fn ms(d: Duration) -> f64 {
    d.as_secs_f64() * 1e3
}

/// Microseconds in a duration, with all its digits.
pub fn us(d: Duration) -> f64 {
    d.as_secs_f64() * 1e6
}

/// CPU time the whole process has used so far: `(user, system)`.
pub fn process_cpu() -> (Duration, Duration) {
    /// `struct timeval` of the Linux C library.
    #[repr(C)]
    #[derive(Default)]
    struct Timeval {
        sec: i64,
        usec: i64,
    }
    /// `struct rusage` of the Linux C library: two timevals, then fourteen
    /// `long` counters this benchmark does not read.
    #[repr(C)]
    #[derive(Default)]
    struct Rusage {
        utime: Timeval,
        stime: Timeval,
        rest: [i64; 14],
    }
    extern "C" {
        fn getrusage(who: i32, usage: *mut Rusage) -> i32;
    }
    const RUSAGE_SELF: i32 = 0;
    let mut usage = Rusage::default();
    // SAFETY: `usage` is a live, writable value laid out as the C library's
    // `struct rusage` on 64-bit Linux, which `getrusage` fills and does not
    // retain.
    let rc = unsafe { getrusage(RUSAGE_SELF, &mut usage) };
    assert_eq!(
        rc, 0,
        "getrusage(RUSAGE_SELF) cannot fail with a valid pointer"
    );
    let tv = |t: &Timeval| Duration::from_micros((t.sec * 1_000_000 + t.usec) as u64);
    (tv(&usage.utime), tv(&usage.stime))
}

/// Confine the calling thread, and every thread it starts later, to one
/// CPU of those it may run on (the highest-numbered). Called in `main`
/// before the workload starts any thread, it confines the whole process.
/// Returns the CPU.
///
/// On a small virtual machine whose host also runs other machines, work
/// that hands off between threads on two virtual CPUs waits for the host to
/// run the second one, and that wait varies with the host's load far more
/// than the program's own cost does.
pub fn pin_to_one_cpu() -> Result<usize, String> {
    /// Bytes of the C library's `cpu_set_t` (1024 CPUs).
    const SET_BYTES: usize = 128;
    extern "C" {
        fn sched_getaffinity(pid: i32, size: usize, mask: *mut u8) -> i32;
        fn sched_setaffinity(pid: i32, size: usize, mask: *const u8) -> i32;
    }
    let mut mask = [0u8; SET_BYTES];
    // SAFETY: `mask` is a writable buffer of exactly `SET_BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_getaffinity(0, SET_BYTES, mask.as_mut_ptr()) } != 0 {
        return Err("sched_getaffinity failed".into());
    }
    let cpu = (0..SET_BYTES * 8)
        .rev()
        .find(|&i| mask[i / 8] & (1 << (i % 8)) != 0)
        .ok_or("no CPU in the affinity mask")?;
    let mut one = [0u8; SET_BYTES];
    one[cpu / 8] = 1 << (cpu % 8);
    // SAFETY: `one` is a readable buffer of exactly `SET_BYTES` bytes, the
    // size passed; pid 0 names the calling thread.
    if unsafe { sched_setaffinity(0, SET_BYTES, one.as_ptr()) } != 0 {
        return Err(format!("sched_setaffinity to CPU {cpu} failed"));
    }
    Ok(cpu)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_quantiles() {
        let v = [5.0, 1.0, 3.0, 2.0, 4.0];
        assert_eq!(median(&v), 3.0);
        assert_eq!(quantile(&v, 0.0), 1.0);
        assert_eq!(quantile(&v, 1.0), 5.0);
        assert!(median(&[]).is_nan());
    }

    #[test]
    fn process_cpu_advances_with_work() {
        let (u0, s0) = process_cpu();
        let mut x = 0u64;
        for i in 0..20_000_000u64 {
            x = x.wrapping_mul(31).wrapping_add(i);
        }
        std::hint::black_box(x);
        let (u1, s1) = process_cpu();
        assert!(u1 + s1 > u0 + s0);
    }
}
