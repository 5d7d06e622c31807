//! The host's pace: how fast this machine runs a fixed reference
//! workload, probed between the measured calls.
//!
//! A shared virtual machine changes speed by tens of percent for seconds
//! to minutes at a time, with no steal time reported, so raw host times
//! of identical runs spread past any useful bound. Every end-to-end host
//! figure of a round is therefore scaled by the pace measured while that
//! round ran: host seconds are divided by it and host rates multiplied
//! by it, so they read as on a host that runs the reference at
//! [`NOMINAL_NS`]. The reference is frozen code of this package alone,
//! so a change to the measured crates moves the paced figures as much
//! as the raw ones; only the host's own speed cancels.

use std::collections::BTreeMap;
use std::hint::black_box;
use std::time::Instant;

/// Host nanoseconds per reference unit that count as pace 1.0: a 2-vCPU
/// x86-64 VM in its fast phase.
pub const NOMINAL_NS: f64 = 9_000.0;

/// One unit of reference work, a small mix of what the measured stack
/// does on the host: bit-serial CRC, gate-at-a-time evaluation of a
/// random XOR network, short-lived word vectors and ordered-map churn.
/// Returns a checksum so none of it is optimised away.
fn unit(seed: u64) -> u64 {
    let mut x = seed.wrapping_mul(0x9E37_79B9_7F4A_7C15) | 1;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut crc = !0u32;
    for _ in 0..64 {
        crc ^= (next() & 0xFF) as u32;
        for _ in 0..8 {
            crc = if crc & 1 == 1 {
                (crc >> 1) ^ 0xEDB8_8320
            } else {
                crc >> 1
            };
        }
    }
    let mut values = vec![false; 384];
    for v in values.iter_mut().take(128) {
        *v = next() & 1 == 1;
    }
    for g in 128..384 {
        let r = next();
        let v = [r, r >> 21, r >> 42].iter().fold(false, |acc, &s| {
            acc ^ values[(((s & 0xFFFF_FFFF) * g as u64) >> 32) as usize]
        });
        values[g] = v;
    }
    let mut acc = values.iter().filter(|&&v| v).count() as u64;
    for n in 1..24u32 {
        let v: Vec<u64> = (0..n).map(|_| next()).collect();
        let w = v.clone();
        acc ^= v
            .iter()
            .zip(&w)
            .fold(0, |h, (a, b)| h ^ a.rotate_left(n) ^ b);
    }
    let mut map = BTreeMap::new();
    for i in 0..48u64 {
        map.insert(next() % 96, i);
    }
    for _ in 0..24 {
        map.remove(&(next() % 96));
    }
    acc ^= map.iter().fold(0, |h, (k, v)| h ^ k ^ v);
    acc ^ u64::from(crc)
}

/// Host nanoseconds of one reference unit, timed now.
#[must_use]
pub fn unit_ns(seed: u64) -> f64 {
    let t = Instant::now();
    black_box(unit(black_box(seed)));
    t.elapsed().as_nanos() as f64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn the_reference_is_deterministic_and_seed_dependent() {
        assert_eq!(unit(7), unit(7));
        assert_ne!(unit(7), unit(8));
        assert!(unit_ns(7) > 0.0);
    }
}
