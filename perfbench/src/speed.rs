//! Host-speed correction of the end-to-end times.
//!
//! The benchmark runs on a few cores of shared virtual machines whose
//! effective speed drifts by 10–30% over tens of seconds to minutes: the
//! cores' clock, and other tenants on the sibling hyperthreads and in the
//! shared caches. The drift is slow, so no statistic taken inside one run
//! removes it, and it moves every op of a stretch of time alike. So each
//! run also times a fixed probe, a kernel of the benchmark's own that calls
//! no program code, at every round boundary and around every set-up, and
//! reports end-to-end times at the reference speed: the measured time
//! times [`REF_PROBE_NS`] over the mean of the probes on either side.
//!
//! A second drift the probe cannot see: the host deschedules the virtual
//! CPUs (steal time), in stretches of milliseconds that a short probe
//! slips between, and at times takes a third or more of the busy time.
//! That time passes while no code of the guest runs at all. The kernel
//! counts it per CPU (`steal` in `/proc/stat`), so each run reads the
//! stolen CPU time of all CPUs at every round boundary and around the
//! set-ups, and scales the times measured in between by the share of wall
//! time left after taking the stolen time out ([`unstolen`]). An idle CPU
//! has almost nothing to steal, so on serial work this takes out about the
//! time the work's CPU lost; on a fork-join op it takes out the time either
//! thread lost, which is what delays the join while steals rarely
//! overlap. The counts tick every 10 ms, so the share is taken over
//! stretches of seconds: each latency window of whole rounds, and all of a
//! run's set-ups together.
//!
//! The probe does in about equal parts (by time on the reference host)
//! arithmetic on registers and a pointer chase through a 256 KiB table,
//! past L1 and inside the private L2. It walks the same path every time,
//! once untimed first, so it reads the speed of the core and its caches,
//! not what the last op left in them. A change to the program cannot move
//! it: it runs between ops, on the benchmark's thread, with warm data,
//! while the pool's workers are parked and (for `paper-repro`) after the
//! op's process has exited.

use std::hint::black_box;
use std::sync::OnceLock;
use std::time::Instant;

/// Steps of the arithmetic part (four independent chains each step).
const ARITH_STEPS: usize = 40_000;
/// Entries (4 bytes each) of the chased table; one pass visits each once.
const CHASE_LEN: usize = 1 << 16;
/// Timed repetitions per probe, after one untimed pass; the probe reads
/// the fastest, so an interrupt during one repetition does not count.
const REPS: usize = 3;

/// What [`probe_ns`] reads on the reference host (2 vCPUs of a shared
/// Xeon virtual machine, 48 KiB L1d, 2 MiB L2) at its typical speed.
pub const REF_PROBE_NS: f64 = 850_000.0;

/// A random cyclic permutation of `0..n`: following `next[i]` from any
/// entry visits every entry once before it repeats.
fn cycle(n: usize, seed: u64) -> Vec<u32> {
    let mut order: Vec<u32> = (0..n as u32).collect();
    let mut s = seed;
    for i in (1..n).rev() {
        s = s
            .wrapping_mul(6_364_136_223_846_793_005)
            .wrapping_add(1_442_695_040_888_963_407);
        order.swap(i, (s >> 33) as usize % (i + 1));
    }
    let mut next = vec![0u32; n];
    for k in 0..n {
        next[order[k] as usize] = order[(k + 1) % n];
    }
    next
}

static TABLE: OnceLock<Vec<u32>> = OnceLock::new();

fn arith(steps: usize) -> u64 {
    let mut h = [1u64, 2, 3, 4];
    let mut f = [1.0f64; 4];
    for _ in 0..steps {
        for k in 0..4 {
            h[k] = (h[k] ^ (h[k] >> 7))
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(17);
            f[k] = f[k].mul_add(1.000_000_1, (h[k] >> 40) as f64 * 1e-12);
        }
    }
    h.iter().zip(&f).fold(0, |a, (x, y)| a ^ x ^ y.to_bits())
}

/// One pass over the whole cycle from entry 0.
fn chase(next: &[u32]) -> u32 {
    let mut i = 0;
    for _ in 0..next.len() {
        i = next[i as usize];
    }
    i
}

fn pass(next: &[u32]) {
    black_box(arith(black_box(ARITH_STEPS)));
    black_box(chase(black_box(next)));
}

/// One probe: an untimed pass, then the fastest of [`REPS`] timed ones,
/// in nanoseconds.
pub fn probe_ns() -> f64 {
    let next = TABLE.get_or_init(|| cycle(CHASE_LEN, 1));
    pass(next);
    (0..REPS)
        .map(|_| {
            let t0 = Instant::now();
            pass(next);
            t0.elapsed().as_nanos() as f64
        })
        .fold(f64::INFINITY, f64::min)
}

/// Length of a `/proc/stat` clock tick (`USER_HZ`, 100 on Linux).
const TICK_S: f64 = 0.01;

/// Stolen time of all CPUs so far, from the first line of `/proc/stat`,
/// in clock ticks; 0 where the kernel does not report it.
pub fn stolen_ticks() -> u64 {
    let stat = std::fs::read_to_string("/proc/stat").unwrap_or_default();
    let first = stat.lines().next().unwrap_or("");
    first
        .split_whitespace()
        .nth(8)
        .and_then(|s| s.parse().ok())
        .unwrap_or(0)
}

/// The share of `wall_s` seconds left after taking out `stolen` ticks of
/// stolen CPU time; 1 for an empty stretch.
pub fn unstolen(stolen: u64, wall_s: f64) -> f64 {
    if wall_s <= 0.0 {
        1.0
    } else {
        (1.0 - stolen as f64 * TICK_S / wall_s).max(0.0)
    }
}

/// The factor that turns time measured between probes reading `before`
/// and `after` into time at the reference speed.
pub fn factor(before: f64, after: f64) -> f64 {
    2.0 * REF_PROBE_NS / (before + after)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn a_slower_host_scales_times_down() {
        assert_eq!(factor(REF_PROBE_NS, REF_PROBE_NS), 1.0);
        assert_eq!(factor(2.0 * REF_PROBE_NS, 2.0 * REF_PROBE_NS), 0.5);
        assert!(probe_ns() > 0.0);
    }

    #[test]
    fn stolen_time_is_taken_out_of_wall_time() {
        assert_eq!(unstolen(0, 0.0), 1.0);
        assert_eq!(unstolen(25, 1.0), 0.75);
        assert_eq!(unstolen(700, 5.0), 0.0);
        let a = stolen_ticks();
        assert!(stolen_ticks() >= a);
    }

    #[test]
    fn a_chase_visits_every_entry_once_per_cycle() {
        let next = cycle(1000, 7);
        let mut seen = vec![false; 1000];
        let mut i = 0u32;
        for _ in 0..1000 {
            assert!(!seen[i as usize]);
            seen[i as usize] = true;
            i = next[i as usize];
        }
        assert_eq!(i, 0);
    }
}
