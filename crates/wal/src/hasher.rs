//! Frame checksumming, dogfooding the paper's own CRC application.
//!
//! Every journal frame carries a CRC-32/ETHERNET over its header and
//! payload. The [`FabricHasher`] computes it through a hosted fabric
//! lane guarded by the resilience policy: when the lane is healthy the
//! checksum comes off the pipelined gate array, and when the lane has
//! degraded (an injected SEU, a forced fallback) the guarded run
//! transparently takes the software path — so simply *framing journal
//! records* exercises the reload → re-synthesis → fallback recovery
//! ladder. The [`SoftwareHasher`] is the always-correct control: a plain
//! slicing-by-8 kernel with no fabric underneath.

use dream::{ControlModel, Health};
use dream_lfsr::FlowOptions;
use lfsr::crc::{CrcSpec, SlicingCrc};
use picoga::PicogaParams;
use resilience::{FaultInjector, RecoveryPolicy, ResilientSystem};

/// The lane name the fabric hasher hosts its CRC personality under.
pub const WAL_LANE: &str = "wal-crc32";

/// Counters a hasher accumulates across frames.
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub struct HasherStats {
    /// Frames checksummed in total.
    pub frames: u64,
    /// Frames whose CRC came from the software path.
    pub software_frames: u64,
    /// Recovery-ladder outcomes observed while checksumming.
    pub ladder_runs: u64,
    /// DMR lane disagreements caught before delivery.
    pub dmr_mismatches: u64,
}

/// Computes the CRC-32 stamped into each journal frame.
///
/// The fault hooks are default no-ops so a pure software hasher stays
/// trivially correct; the fabric hasher overrides them, which lets a
/// crash harness reach the recovery ladder through a boxed
/// `dyn FrameHasher` (e.g. via `Journal::hasher_mut`).
pub trait FrameHasher {
    /// The CRC-32/ETHERNET of `data`.
    fn crc32(&mut self, data: &[u8]) -> u32;

    /// Counters accumulated so far.
    fn stats(&self) -> HasherStats;

    /// Injects a seeded fault into the hashing substrate (no-op for
    /// hashers with no fabric underneath).
    fn inject_fault(&mut self, _seed: u64) {}

    /// Forces the degraded (software) path until [`heal`](Self::heal).
    fn degrade(&mut self) {}

    /// Attempts to restore the healthy path.
    fn heal(&mut self) {}

    /// Whether a healthy fabric lane currently backs the hasher
    /// (`false` for pure software hashers).
    fn lane_healthy(&self) -> bool {
        false
    }
}

/// A CRC-32/ETHERNET slicing-by-8 kernel. Its 16 KiB of tables are
/// built on the first frame it checksums; every later frame resets and
/// reuses them.
#[derive(Debug, Clone, Default)]
struct Slicing32(Option<SlicingCrc>);

impl Slicing32 {
    fn crc32(&mut self, data: &[u8]) -> u32 {
        let kernel = self.0.get_or_insert_with(|| {
            SlicingCrc::new(CrcSpec::crc32_ethernet(), 8).expect("CRC-32/ETHERNET is reflected")
        });
        u32::try_from(kernel.checksum(data) & 0xFFFF_FFFF).expect("masked to 32 bits")
    }
}

/// A pure software hasher: the slicing-by-8 kernel, no fabric.
#[derive(Debug, Default)]
pub struct SoftwareHasher {
    stats: HasherStats,
    kernel: Slicing32,
}

impl SoftwareHasher {
    /// A fresh software hasher.
    #[must_use]
    pub fn new() -> Self {
        SoftwareHasher::default()
    }
}

impl FrameHasher for SoftwareHasher {
    fn crc32(&mut self, data: &[u8]) -> u32 {
        self.stats.frames += 1;
        self.stats.software_frames += 1;
        self.kernel.crc32(data)
    }

    fn stats(&self) -> HasherStats {
        self.stats
    }
}

/// A hasher backed by a resilient fabric lane hosting the Ethernet CRC
/// personality, with fault hooks so a harness can push it down the
/// recovery ladder.
pub struct FabricHasher {
    rs: ResilientSystem,
    stats: HasherStats,
    /// The software kernel behind frames the guarded path fails on.
    fallback: Slicing32,
}

impl std::fmt::Debug for FabricHasher {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("FabricHasher")
            .field("stats", &self.stats)
            .finish_non_exhaustive()
    }
}

impl FabricHasher {
    /// Hosts a CRC-32/ETHERNET lane at datapath width M = 8 under the
    /// standard recovery ladder.
    ///
    /// # Errors
    ///
    /// `String` diagnostics when the personality cannot be built or
    /// hosted (a fabric capacity problem, not a runtime fault).
    pub fn new() -> Result<Self, String> {
        FabricHasher::with_m(8)
    }

    /// Hosts the lane at datapath width `m` (the paper's parallelism
    /// knob; the proptest suites run M ∈ {8, 32, 128}).
    ///
    /// # Errors
    ///
    /// `String` diagnostics when the personality cannot be built or
    /// hosted (a fabric capacity problem, not a runtime fault).
    pub fn with_m(m: usize) -> Result<Self, String> {
        let mut rs = ResilientSystem::new(
            PicogaParams::dream(),
            ControlModel::default(),
            RecoveryPolicy::standard(),
        );
        rs.host(
            WAL_LANE,
            CrcSpec::crc32_ethernet(),
            FlowOptions::dream_with_m(m),
        )
        .map_err(|e| format!("hosting {WAL_LANE} at M={m}: {e}"))?;
        Ok(FabricHasher {
            rs,
            stats: HasherStats::default(),
            fallback: Slicing32::default(),
        })
    }

    /// Injects a random SEU (wire flip) into the hosted lane's resident
    /// context, seeded deterministically. The guarded checksum's next
    /// periodic self-check detects it and runs the recovery ladder.
    pub fn inject_fault(&mut self, seed: u64) {
        let mut inj = FaultInjector::new(seed);
        let resident: Vec<usize> = (0..16)
            .filter(|&slot| self.rs.system().fabric().context(slot).is_some())
            .collect();
        if resident.is_empty() {
            return;
        }
        let slot = resident[inj.rng().below(resident.len())];
        let op = self
            .rs
            .system()
            .fabric()
            .context(slot)
            .expect("listed above")
            .clone();
        if let Some(fault) = inj.random_wire_flip(slot, &op) {
            let _ = self.rs.system_mut().fabric_mut().inject(&fault);
        }
    }

    /// Forces the lane onto the software path: subsequent frames are
    /// checksummed in software until [`heal`](Self::heal).
    pub fn degrade(&mut self) {
        self.rs.system_mut().set_health(WAL_LANE, Health::Fallback);
    }

    /// Runs the recovery ladder on the lane, restoring fabric service
    /// when a rung succeeds.
    pub fn heal(&mut self) {
        if self.rs.recover(WAL_LANE).is_ok() {
            self.stats.ladder_runs += 1;
        }
    }

    /// Whether the fabric currently considers the lane healthy.
    #[must_use]
    pub fn lane_healthy(&self) -> bool {
        self.rs.health_summary().fallback == 0
    }
}

impl FrameHasher for FabricHasher {
    fn inject_fault(&mut self, seed: u64) {
        FabricHasher::inject_fault(self, seed);
    }

    fn degrade(&mut self) {
        FabricHasher::degrade(self);
    }

    fn heal(&mut self) {
        FabricHasher::heal(self);
    }

    fn lane_healthy(&self) -> bool {
        FabricHasher::lane_healthy(self)
    }

    fn crc32(&mut self, data: &[u8]) -> u32 {
        self.stats.frames += 1;
        match self.rs.checksum_guarded(WAL_LANE, data) {
            Ok(run) => {
                if run.software {
                    self.stats.software_frames += 1;
                }
                if run.dmr_mismatch {
                    self.stats.dmr_mismatches += 1;
                }
                self.stats.ladder_runs += run.outcomes.len() as u64;
                u32::try_from(run.crc & 0xFFFF_FFFF).expect("masked to 32 bits")
            }
            Err(_) => {
                // The guarded path failed outright (lane evicted mid-
                // recovery); the journal must still frame correctly, so
                // fall back to the software kernel and count it.
                self.stats.software_frames += 1;
                self.fallback.crc32(data)
            }
        }
    }

    fn stats(&self) -> HasherStats {
        self.stats
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use lfsr::crc::crc_bitwise;

    #[test]
    fn software_hasher_matches_bitwise_reference() {
        let mut h = SoftwareHasher::new();
        let data = b"123456789";
        let want =
            u32::try_from(crc_bitwise(CrcSpec::crc32_ethernet(), data) & 0xFFFF_FFFF).unwrap();
        assert_eq!(h.crc32(data), want);
        assert_eq!(h.stats().frames, 1);
        assert_eq!(h.stats().software_frames, 1);
    }

    #[test]
    fn reused_kernel_matches_bitwise_on_random_frames() {
        let mut soft = SoftwareHasher::new();
        let mut kernel = Slicing32::default();
        let mut x = 0x0DDB_1A5E_5BAD_5EEDu64;
        for _ in 0..64 {
            let frame: Vec<u8> = (0..(x % 300) as usize)
                .map(|_| {
                    x ^= x << 13;
                    x ^= x >> 7;
                    x ^= x << 17;
                    x as u8
                })
                .collect();
            let want = u32::try_from(crc_bitwise(CrcSpec::crc32_ethernet(), &frame) & 0xFFFF_FFFF)
                .unwrap();
            assert_eq!(soft.crc32(&frame), want);
            assert_eq!(kernel.crc32(&frame), want);
        }
        assert_eq!(soft.stats().frames, 64);
    }

    #[test]
    fn fabric_hasher_agrees_with_software() {
        let mut fab = FabricHasher::new().expect("host");
        let mut soft = SoftwareHasher::new();
        for data in [&b"abc"[..], &[0u8; 64][..], &b"journal frame"[..]] {
            assert_eq!(fab.crc32(data), soft.crc32(data));
        }
        assert_eq!(fab.stats().frames, 3);
    }

    #[test]
    fn degraded_lane_takes_software_path_and_heals() {
        let mut fab = FabricHasher::new().expect("host");
        let healthy = fab.crc32(b"before");
        assert_eq!(fab.stats().software_frames, 0);

        fab.degrade();
        assert!(!fab.lane_healthy());
        let degraded = fab.crc32(b"before");
        assert_eq!(degraded, healthy, "software path computes the same CRC");
        assert!(fab.stats().software_frames >= 1);

        fab.heal();
        assert!(fab.stats().ladder_runs >= 1, "healing ran the ladder");
        assert!(fab.lane_healthy());
        assert_eq!(fab.crc32(b"before"), healthy);
    }

    #[test]
    fn injected_fault_is_survived() {
        let mut fab = FabricHasher::new().expect("host");
        let mut soft = SoftwareHasher::new();
        fab.inject_fault(0xC0FF_EE00);
        // The guarded run's periodic self-check (scrub period 4) must
        // catch the SEU within a few frames; every delivered CRC stays
        // correct throughout.
        for i in 0..12u8 {
            let data = [i; 24];
            assert_eq!(fab.crc32(&data), soft.crc32(&data), "frame {i}");
        }
    }
}
