//! # dream — system model of the DREAM adaptive DSP
//!
//! DREAM couples an STxP70 RISC control core with the PiCoGA reconfigurable
//! datapath and a high-bandwidth local memory subsystem (paper §3). This
//! crate supplies the system-level layer of the reproduction: the control
//! overhead model, the two mapped applications of the paper (the Ethernet
//! CRC-32 on two PGA operations and the 802.11 scrambler on one), message
//! interleaving, and the calibrated energy model behind Fig. 7.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod crc_app;
mod energy;
mod memory;
mod perf;
mod scrambler_app;
mod system;

pub use crc_app::{BuildError, CrcMethod, DreamCrcApp};
pub use energy::{EnergyModel, FiguresOfMerit};
pub use memory::{AddressGenerator, LocalMemory, MemoryError, MemoryParams, TransientFault};
pub use perf::{ControlModel, RunReport};
pub use scrambler_app::DreamScramblerApp;
pub use system::{
    DreamSystem, Health, Personality, ResilienceCounters, ScramblerPersonality, ScrubFinding,
    SystemError,
};
