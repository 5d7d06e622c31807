//! Message interleaving (paper §5 / Fig. 5, after Kong & Parhi \[13\]).
//!
//! "Message interleaving allows working concurrently on multiple messages
//! reducing the impact of any configuration change": instead of finishing
//! one message (state update → context switch → anti-transform → switch
//! back), K messages are processed round-robin so that the two PiCoGA
//! configurations each run long bursts.
//!
//! This module provides the *functional* layer: per-message state tracking
//! over a shared [`DerbyTransform`], plus the round-robin block schedule.
//! The cycle-accounting lives in the `dream` crate.

use crate::derby::DerbyTransform;
use gf2::BitVec;

/// One entry of a round-robin schedule: which message contributes the next
/// M-bit block.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub struct ScheduleSlot {
    /// Message index.
    pub msg: usize,
    /// Block index within that message.
    pub block: usize,
}

/// Builds the round-robin schedule for messages of `blocks_per_msg[i]`
/// blocks each: cycle over all messages still having blocks left.
pub fn round_robin_schedule(blocks_per_msg: &[usize]) -> Vec<ScheduleSlot> {
    let total: usize = blocks_per_msg.iter().sum();
    let mut emitted = vec![0usize; blocks_per_msg.len()];
    let mut out = Vec::with_capacity(total);
    while out.len() < total {
        for (msg, &n) in blocks_per_msg.iter().enumerate() {
            if emitted[msg] < n {
                out.push(ScheduleSlot {
                    msg,
                    block: emitted[msg],
                });
                emitted[msg] += 1;
            }
        }
    }
    out
}

/// K concurrent CRC computations over one shared transformed datapath.
///
/// Each message carries its own transformed state; blocks may arrive in any
/// interleaving. `finalize` applies the anti-transform for one message
/// without disturbing the others — the hardware analogue is that only the
/// *configuration* is shared, not the state registers (which live in the
/// DREAM memory subsystem between bursts).
#[derive(Debug, Clone)]
pub struct InterleavedCrc {
    derby: DerbyTransform,
    states: Vec<BitVec>,
}

impl InterleavedCrc {
    /// Starts `k` messages, all from `init` (the spec's raw init register).
    pub fn new(derby: DerbyTransform, k: usize, init: &BitVec) -> Self {
        let x0 = derby.transform_state(init);
        InterleavedCrc {
            derby,
            states: vec![x0; k],
        }
    }

    /// Number of concurrent messages.
    pub fn lanes(&self) -> usize {
        self.states.len()
    }

    /// Borrows the shared transform.
    pub fn transform(&self) -> &DerbyTransform {
        &self.derby
    }

    /// Feeds one M-bit block of message `msg`.
    ///
    /// # Panics
    ///
    /// Panics if `msg` is out of range or the block is not M bits.
    pub fn feed_block(&mut self, msg: usize, block: &BitVec) {
        self.states[msg] = self.derby.step_state(&self.states[msg], block);
    }

    /// Anti-transforms message `msg`'s state into the plain register
    /// domain (the second PiCoGA operation).
    pub fn finalize(&self, msg: usize) -> BitVec {
        self.derby.anti_transform_state(&self.states[msg])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::derby::DerbyCore;
    use crate::lookahead::BlockSystem;
    use lfsr::crc::{CrcSpec, RawCrcCore, SerialCore};
    use lfsr::StateSpaceLfsr;

    #[test]
    fn schedule_covers_everything_in_order() {
        let s = round_robin_schedule(&[3, 1, 2]);
        assert_eq!(s.len(), 6);
        // Per-message block indices must appear in increasing order.
        for msg in 0..3 {
            let blocks: Vec<usize> = s.iter().filter(|e| e.msg == msg).map(|e| e.block).collect();
            let sorted: Vec<usize> = (0..blocks.len()).collect();
            assert_eq!(blocks, sorted, "msg {msg}");
        }
        // First round touches every message once.
        assert_eq!(s[0], ScheduleSlot { msg: 0, block: 0 });
        assert_eq!(s[1], ScheduleSlot { msg: 1, block: 0 });
        assert_eq!(s[2], ScheduleSlot { msg: 2, block: 0 });
    }

    #[test]
    fn schedule_of_empty_is_empty() {
        assert!(round_robin_schedule(&[]).is_empty());
        assert!(round_robin_schedule(&[0, 0]).is_empty());
    }

    #[test]
    fn interleaved_crcs_match_independent_processing() {
        let spec = CrcSpec::crc32_ethernet();
        let m = 32;
        let derby = DerbyCore::new(spec, m).unwrap().transform().clone();
        let init = BitVec::from_u64(spec.init, 32);

        // Three messages of different block counts.
        let mk_msg = |seed: u64, blocks: usize| {
            let mut v = BitVec::zeros(blocks * m);
            let mut x = seed;
            for i in 0..v.len() {
                x = x
                    .wrapping_mul(6364136223846793005)
                    .wrapping_add(1442695040888963407);
                if x >> 63 == 1 {
                    v.set(i, true);
                }
            }
            v
        };
        let msgs = [mk_msg(1, 4), mk_msg(2, 7), mk_msg(3, 2)];

        let mut il = InterleavedCrc::new(derby, 3, &init);
        let schedule = round_robin_schedule(&[4, 7, 2]);
        for slot in schedule {
            il.feed_block(slot.msg, &msgs[slot.msg].slice(slot.block * m, m));
        }

        for (i, msg) in msgs.iter().enumerate() {
            let mut serial = SerialCore::new(spec);
            let expected = serial.process(&init, msg);
            assert_eq!(il.finalize(i), expected, "message {i}");
        }
    }

    #[test]
    fn lanes_are_isolated() {
        let spec = CrcSpec::by_name("CRC-16/XMODEM").unwrap();
        let sys = StateSpaceLfsr::crc(&spec.generator()).unwrap();
        let block = BlockSystem::new(&sys, 16).unwrap();
        let derby = crate::derby::DerbyTransform::new(&block).unwrap();
        let init = BitVec::zeros(16);
        let mut il = InterleavedCrc::new(derby, 2, &init);
        let b = BitVec::from_u64(0xABCD, 16);
        il.feed_block(0, &b);
        // Lane 1 untouched: still the transformed init state.
        assert_eq!(il.finalize(1), init);
        assert_ne!(il.finalize(0), init);
    }
}
