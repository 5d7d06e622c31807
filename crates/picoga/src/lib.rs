//! # picoga — Pipelined Configurable Gate Array model and simulator
//!
//! A bit-true, cycle-accurate model of the PiCoGA fabric embedded in the
//! DREAM adaptive DSP (paper §3): a 24×16 array of mixed-grain logic cells
//! organised as one pipeline stage per row, with a 4-context configuration
//! cache, 2-cycle context exchange, 384-bit inputs / 128-bit outputs and a
//! fixed 200 MHz clock.
//!
//! The proprietary silicon is unavailable; this crate is the simulation
//! substitute (see DESIGN.md). It preserves exactly the properties the
//! paper's results rest on: bits-per-cycle issue, pipeline fill, context
//! switch stalls, and the row/cell/I/O budgets that limit the look-ahead
//! factor to 128 bits per cycle.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod arch;
mod fault;
mod op;
mod sim;
mod tape;
mod wavefront;

pub use arch::PicogaParams;
pub use fault::{ConfigFault, FaultPlan, InjectError, LoadCorruption, LoadFault};
pub use op::{CompanionFeedback, MapError, OpStats, PgaOperation, Placement};
pub use sim::{CycleCounters, PicogaSim, SimError};
pub use wavefront::{run_crc_wavefront, WavefrontTrace};
