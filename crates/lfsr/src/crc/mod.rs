//! Cyclic Redundancy Check: specifications, software baselines, and the
//! spec-aware engine shared by all raw cores.

mod combine;
mod engine;
mod software;
mod spec;
mod stream;

pub use combine::crc_combine;
pub use engine::{message_bits, message_bits_into, CrcEngine, RawCrcCore, SerialCore};
pub use software::{
    crc_bitwise, finalize_raw, reflect, SarwateCrc, SlicingCrc, SoftwareCrcError, SoftwareKernel,
};
pub use spec::{CrcSpec, SpecError, CATALOG};
pub use stream::CrcStream;
