//! # picolfsr — reproduction of "Implementation of Parallel LFSR-based
//! Applications on an Adaptive DSP featuring a Pipelined Configurable
//! Gate Array" (DATE 2008)
//!
//! This facade re-exports the workspace crates under one roof so examples
//! and downstream users need a single dependency:
//!
//! * [`gf2`] — GF(2) linear algebra (bit vectors, matrices, polynomials);
//! * [`lfsr`] — LFSR applications: CRC catalogue + software baselines,
//!   scramblers/PRBS, stream ciphers (A5/1, E0, CSS);
//! * [`parallel`] — parallelisation methods: look-ahead, Derby's
//!   state-space transform, GFMAC, message interleaving;
//! * [`xornet`] — XOR-network synthesis (10-input cells, common-pattern
//!   sharing);
//! * [`picoga`] — the pipelined configurable gate array model and
//!   cycle-accurate simulator;
//! * [`dream`] — the DREAM SoC layer (control model, CRC and scrambler
//!   accelerators, energy model);
//! * [`riscsim`] — the embedded-RISC software baseline (RV32-style
//!   interpreter + CRC kernels);
//! * [`asic`] — the UCRC synthesis comparison model and Fig. 6 theory
//!   curves;
//! * [`flow`] — the end-to-end mapping flow and design-space explorer
//!   (the paper's core contribution);
//! * [`resilience`] — fault injection, runtime self-checking and the
//!   recovery ladder (reload → re-synthesis → software fallback);
//! * [`stream`] — fault-tolerant multi-stream serving: sessions with
//!   checkpoint/restore, token-bucket admission, the overload shedding
//!   ladder, and the seeded `stream_storm` stress harness;
//! * [`obs`] — the unified observability spine: deterministic metrics
//!   registry, cycle-stamped event tracer, and per-row fabric profiler
//!   shared by every layer above (exported by the `obs_report` bench
//!   binary as `BENCH_obs.json`);
//! * [`analyze`] — whole-configuration static analysis: the GF(2)
//!   linearity/affineness prover (certifying the runtime basis probe's
//!   soundness), the static timing/resource analyzer cross-checked
//!   against the fabric profiler, and the bounded model checker for
//!   the serving/recovery/cluster state machines (exported by the
//!   `fabric_analyze` bench binary as `BENCH_analyze.json`);
//! * [`cluster`] — sharded multi-fabric serving: a control plane over
//!   N independent shard stacks with rendezvous placement, a periodic
//!   checkpoint sweep, digest-verified live migration, fenced shard
//!   drain, and checkpoint-replay whole-shard failover with typed
//!   stream loss (stressed by the seeded `cluster_campaigns` bench binary)
//!   — plus the self-healing control loop and deterministic chaos
//!   harness: per-shard circuit breakers, idempotent-token retries,
//!   health-scored rebalancing, rolling personality upgrades, and the
//!   seeded `chaos_storm` campaign that drives all of it under
//!   adversarial schedules (DESIGN.md §12);
//! * [`wal`] — crash-consistent durability for the control plane: an
//!   append-only CRC-framed journal over a simulated disk with
//!   partial-flush semantics (torn tails, bit rot, duplicated
//!   appends), replayed by `cluster::Cluster::recover` after seeded
//!   whole-cluster power losses in the `crash_storm` campaign
//!   (DESIGN.md §13).
//!
//! ## Quickstart
//!
//! ```
//! use picolfsr::flow::{build_crc_app, FlowOptions};
//! use picolfsr::lfsr::crc::CrcSpec;
//!
//! let (mut app, _report) =
//!     build_crc_app(CrcSpec::crc32_ethernet(), &FlowOptions::dream_with_m(32))?;
//! let (crc, report) = app.checksum(b"123456789");
//! assert_eq!(crc, 0xCBF43926);
//! println!("{} cycles", report.total_cycles());
//! # Ok::<(), picolfsr::dream::BuildError>(())
//! ```

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub use analyze;
pub use asic;
pub use cluster;
pub use dream;
pub use dream_lfsr as flow;
pub use gf2;
pub use lfsr;
pub use lfsr_parallel as parallel;
pub use obs;
pub use picoga;
pub use resilience;
pub use riscsim;
pub use stream;
pub use verify;
pub use wal;
pub use xornet;
