//! Host speed probe: a fixed piece of work, timed between passes, that
//! tells how fast the host runs at that moment.
//!
//! On a shared host, other tenants slow a vCPU by up to a third for tens
//! of seconds at a time. Such a slow stretch can cover a whole run, so no
//! statistic over the run's own passes removes it. The probe slows down
//! with the passes: a tight latency-bound loop does not, but work that
//! keeps the core's issue ports, branch predictors and caches busy, as
//! the simulator does, does. Host times are therefore reported at the
//! speed of a reference host: each is scaled by the same statistic of the
//! run's probe times (fastest or median) over [`REFERENCE_MS`].
//!
//! The probe is the benchmark's own code and never changes with the
//! program, so a faster or slower program still moves every host metric
//! by the same factor as before.

use std::hint::black_box;
use std::time::Instant;

/// The probe's fastest time on the reference host (2 vCPUs of an Intel
/// Xeon at 2.1 GHz, built by rustc 1.95 in release mode). Host metrics
/// read as if measured on that host at that speed.
pub const REFERENCE_MS: f64 = 18.0;

/// Rounds of each kernel per probe.
const ILP_ROUNDS: u64 = 1_000_000;
const INTERP_STEPS: u64 = 1_500_000;
const SORT_LEN: usize = 100_000;

fn xorshift(x: &mut u64) -> u64 {
    *x ^= *x << 13;
    *x ^= *x >> 7;
    *x ^= *x << 17;
    *x
}

/// Eight independent multiply-rotate chains: issue-port throughput.
#[inline(never)]
fn ilp() {
    let mut a = [1u64, 2, 3, 4, 5, 6, 7, 8];
    for i in 0..ILP_ROUNDS {
        for (k, x) in a.iter_mut().enumerate() {
            *x = x
                .wrapping_mul(0x9E37_79B9_7F4A_7C15)
                .rotate_left(k as u32 + 1)
                ^ i;
        }
    }
    black_box(a);
}

/// A byte-code interpreter over a pseudo-random program: indirect
/// dispatch and data-dependent branches, the shape of an ISS loop.
#[inline(never)]
fn interp() {
    const LEN: usize = 4096;
    let mut seed = 0x1234_5678u64;
    let prog: Vec<u8> = (0..LEN).map(|_| (xorshift(&mut seed) % 12) as u8).collect();
    let mut r = [1u64; 8];
    let mut pc = 0usize;
    for _ in 0..INTERP_STEPS {
        match prog[pc] {
            0 => r[0] = r[0].wrapping_add(r[1]),
            1 => r[1] ^= r[2] << 3,
            2 => r[2] = r[2].wrapping_mul(r[3] | 1),
            3 => r[3] = r[3].rotate_left(7) ^ r[4],
            4 => r[4] = r[4].wrapping_sub(r[5]),
            5 => r[5] |= r[6] >> 5,
            6 => r[6] = r[6].wrapping_add(r[7] ^ 0x55),
            7 => r[7] = r[7].wrapping_mul(3).wrapping_add(r[0]),
            8 if r[0] & 1 == 1 => pc = (pc + 17) % LEN,
            9 if r[1] & 2 == 2 => pc = (pc + 5) % LEN,
            10 => r[(r[2] & 7) as usize] ^= r[3],
            _ => r[0] = r[0].wrapping_add(pc as u64),
        }
        pc = (pc + 1) % LEN;
    }
    black_box(r);
}

/// Sorts of a fresh random vector: allocation, memory traffic and
/// unpredictable compares.
#[inline(never)]
fn sort() {
    let mut seed = 99u64;
    let mut v: Vec<u64> = (0..SORT_LEN).map(|_| xorshift(&mut seed)).collect();
    v.sort_unstable();
    let mut w = v.clone();
    w.reverse();
    w.sort();
    black_box((v, w));
}

/// Runs the probe once and returns its wall time in ms.
pub fn measure() -> f64 {
    let t = Instant::now();
    ilp();
    interp();
    sort();
    t.elapsed().as_secs_f64() * 1e3
}

/// How much slower than the reference host the host ran: `probe_ms`, a
/// statistic of a run's probe times, over [`REFERENCE_MS`]. Host times
/// divide by it and rates multiply by it.
pub fn slowdown(probe_ms: f64) -> f64 {
    probe_ms / REFERENCE_MS
}
