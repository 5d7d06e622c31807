//! # gf2 — linear algebra over GF(2)
//!
//! The foundational substrate for the picolfsr workspace: bit-packed vectors
//! ([`BitVec`]), dense matrices ([`BitMat`]) and polynomials ([`Gf2Poly`])
//! over the two-element Galois field, and affine maps compiled to byte
//! tables ([`AffineTable`]).
//!
//! Everything the DATE 2008 paper manipulates — LFSR states, companion
//! matrices `A`, look-ahead powers `A^M`, Derby's similarity transform
//! `T⁻¹·A^M·T`, and the GFMAC β-constants — is expressed with these three
//! types.
//!
//! ## Example: the paper's state-update matrix
//!
//! ```
//! use gf2::{BitMat, BitVec, Gf2Poly};
//!
//! // CRC-16/CCITT generator x^16 + x^12 + x^5 + 1.
//! let g = Gf2Poly::from_crc_notation(0x1021, 16);
//! let a = BitMat::companion(&g);
//!
//! // 8-level look-ahead: the feedback matrix becomes A^8.
//! let a8 = a.pow(8);
//! assert_eq!(a8.rows(), 16);
//!
//! // Derby's transform: T = [f, A^8 f, ..., (A^8)^15 f] with f = e0.
//! let t = a8.krylov(&BitVec::unit(0, 16));
//! let t_inv = t.inverse().expect("Krylov basis is nonsingular here");
//! let a8t = &(&t_inv * &a8) * &t;
//! assert!(a8t.is_companion());
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

mod analysis;
mod bitvec;
mod matrix;
mod poly;
mod table;

pub use bitvec::BitVec;
pub use matrix::BitMat;
pub use poly::Gf2Poly;
pub use table::AffineTable;
