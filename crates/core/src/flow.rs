//! The end-to-end mapping flow (paper §4, "design exploration phase and
//! the decision process").
//!
//! This is the Rust port of the authors' design-automation program: from a
//! CRC or scrambler specification and a look-ahead factor it
//!
//! 1. generates "all the necessary matrices, starting from the size and
//!    polynomial generator of the CRC under construction",
//! 2. applies Derby's state-space transformation (the method selected
//!    because "it allows exploiting pipelining without increasing the
//!    complexity of the feedback loop"),
//! 3. "maps the required matrices on 10-bit XORs, by an algorithm that
//!    reduces the number of required XORs detecting 10-bit common
//!    patterns among the rows of B_Mt and T",
//! 4. partitions the CRC on two PiCoGA operations (state update +
//!    anti-transform) and checks the I/O and row budgets,
//! 5. emits a ready-to-run DREAM application.

use dream::CrcMethod;
use dream::{BuildError, ControlModel, DreamCrcApp, DreamScramblerApp};
use gf2::BitMat;
use lfsr::crc::CrcSpec;
use lfsr::scramble::ScramblerSpec;
use lfsr::StateSpaceLfsr;
use lfsr_parallel::{BlockSystem, DerbyComplexity, DerbyTransform};
use picoga::{OpStats, PgaOperation, PicogaParams};
use verify::LintConfig;
use xornet::SynthOptions;

/// Options steering the flow.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct FlowOptions {
    /// Look-ahead factor M (bits per fabric cycle).
    pub m: usize,
    /// Target fabric.
    pub params: PicogaParams,
    /// XOR-mapping options.
    pub synth: SynthOptions,
    /// Control-processor overheads.
    pub control: ControlModel,
    /// Strict-mode verification: when set, every mapped operation is
    /// proven equivalent to its source matrix and run through the
    /// fabric linter; any `Error`-severity finding fails the build with
    /// [`BuildError::Verify`]. `None` skips verification entirely.
    pub verify: Option<LintConfig>,
    /// Strict-mode static analysis: when set, every mapped operation is
    /// lowered to the analyzer IR and run through the linearity prover
    /// and the timing/resource analyzer; any `AZ`-coded error-severity
    /// finding fails the build with [`BuildError::Analyze`], and the
    /// proven [`analyze::LinearityCert`] is attached to the personality
    /// so the runtime datapath probe knows its basis sweep is sound.
    pub analyze: bool,
}

impl FlowOptions {
    /// The paper's headline configuration: M = 128 on the DREAM fabric,
    /// with strict verification at the default lint levels.
    pub fn dream_m128() -> Self {
        FlowOptions {
            m: 128,
            params: PicogaParams::dream(),
            synth: SynthOptions::default(),
            control: ControlModel::default(),
            verify: Some(LintConfig::keep_all()),
            analyze: true,
        }
    }

    /// Same fabric at a different look-ahead factor.
    pub fn dream_with_m(m: usize) -> Self {
        FlowOptions {
            m,
            ..FlowOptions::dream_m128()
        }
    }
}

/// Strict-mode gate: proves `op` equivalent to `expected` and lints it,
/// failing the build on any `Error`-severity finding.
fn enforce(
    op_name: &'static str,
    op: &PgaOperation,
    expected: &BitMat,
    opts: &FlowOptions,
) -> Result<(), BuildError> {
    let Some(config) = &opts.verify else {
        return Ok(());
    };
    let report = verify::verify_mapping(op, expected, &opts.params, config);
    if report.has_errors() {
        return Err(BuildError::Verify {
            op: op_name,
            source: verify::VerifyError::from(report),
        });
    }
    Ok(())
}

/// Analysis gate: lowers `op` to the analyzer IR and runs the linearity
/// prover plus the timing/resource analyzer against the target fabric's
/// bounds. Returns the proven certificate (for attaching to the hosted
/// personality) or `None` when analysis is disabled.
fn enforce_analysis(
    op_name: &'static str,
    op: &PgaOperation,
    opts: &FlowOptions,
) -> Result<Option<analyze::LinearityCert>, BuildError> {
    if !opts.analyze {
        return Ok(None);
    }
    let cfg = analyze::FabricConfig::from_op(op);
    let params = analyze::AnalysisParams::for_fabric(&opts.params);
    match analyze::check_config(&cfg, &params) {
        Ok(a) => Ok(Some(a.cert)),
        Err(source) => Err(BuildError::Analyze {
            op: op_name,
            source,
        }),
    }
}

/// What the flow decided and what it cost — the §4 narrative as data.
#[derive(Debug, Clone, PartialEq)]
pub struct FlowReport {
    /// Look-ahead factor.
    pub m: usize,
    /// The datapath structure selected (Derby, or the dense fallback when
    /// no Krylov transform exists for this generator/M pair).
    pub method: CrcMethod,
    /// Ones in the dense `A^M` a plain look-ahead would keep in its
    /// feedback loop.
    pub lookahead_loop_ones: usize,
    /// Ones in the transformed companion feedback column (what Derby's
    /// method leaves in the loop); equals `lookahead_loop_ones` for the
    /// dense fallback.
    pub derby_loop_ones: usize,
    /// Derby transform complexity (B_Mt, T sizes, chosen f), when that
    /// method is in use.
    pub derby: Option<DerbyComplexity>,
    /// Mapped state-update operation resources.
    pub update_stats: OpStats,
    /// Mapped anti-transform operation resources (CRC only).
    pub finalize_stats: Option<OpStats>,
    /// Kernel-only peak throughput, bit/s.
    pub kernel_bps: f64,
}

/// Builds the CRC application and its flow report.
///
/// # Errors
///
/// Propagates [`BuildError`] from the math or the mapping.
pub fn build_crc_app(
    spec: &CrcSpec,
    opts: &FlowOptions,
) -> Result<(DreamCrcApp, FlowReport), BuildError> {
    let app = DreamCrcApp::build(spec, opts.m, &opts.params, opts.synth, opts.control)?;
    match app.transform() {
        Some(derby) => {
            enforce("crc-update", app.update_op(), derby.b_mt(), opts)?;
            let fin = app.finalize_op().expect("Derby datapath has a finalize op");
            enforce("crc-finalize", fin, derby.t(), opts)?;
            enforce_analysis("crc-update", app.update_op(), opts)?;
            enforce_analysis("crc-finalize", fin, opts)?;
        }
        None => {
            let block = app
                .dense_block_system()
                .expect("non-Derby datapath is dense");
            let expected = block.a_m().hstack(block.b_m());
            enforce("crc-update-dense", app.update_op(), &expected, opts)?;
            enforce_analysis("crc-update-dense", app.update_op(), opts)?;
        }
    }
    let serial = StateSpaceLfsr::crc(&spec.generator()).expect("valid generator");
    let a_m_ones = serial.a().pow(opts.m as u64).count_ones();
    let derby = app
        .transform()
        .map(lfsr_parallel::DerbyTransform::complexity);
    let report = FlowReport {
        m: opts.m,
        method: app.method(),
        lookahead_loop_ones: a_m_ones,
        derby_loop_ones: derby.as_ref().map_or(a_m_ones, |d| d.feedback_ones),
        derby,
        update_stats: app.update_stats(),
        finalize_stats: app.finalize_stats(),
        kernel_bps: app.kernel_throughput_bps(),
    };
    Ok((app, report))
}

/// Builds the scrambler application and its flow report.
///
/// # Errors
///
/// Propagates [`BuildError`] from the math or the mapping.
pub fn build_scrambler_app(
    spec: &ScramblerSpec,
    opts: &FlowOptions,
) -> Result<(DreamScramblerApp, FlowReport), BuildError> {
    let app = DreamScramblerApp::build(spec, opts.m, &opts.params, opts.synth, opts.control)?;
    let serial = StateSpaceLfsr::additive_scrambler(&spec.polynomial()).expect("valid poly");
    let block = BlockSystem::new(&serial, opts.m).expect("m checked by build");
    let expected = app.transform().output_matrix(&block);
    enforce("scrambler", app.op(), &expected, opts)?;
    enforce_analysis("scrambler", app.op(), opts)?;
    let a_m_ones = serial.a().pow(opts.m as u64).count_ones();
    let complexity = app.transform().complexity();
    let report = FlowReport {
        m: opts.m,
        method: CrcMethod::Derby,
        lookahead_loop_ones: a_m_ones,
        derby_loop_ones: complexity.feedback_ones,
        derby: Some(complexity),
        update_stats: app.stats(),
        finalize_stats: None,
        kernel_bps: app.kernel_throughput_bps(),
    };
    Ok((app, report))
}

/// Builds a [`dream::Personality`] for hosting on a shared
/// [`dream::DreamSystem`]: the same flow as [`build_crc_app`], but the
/// operations are returned instead of being loaded into a private fabric.
///
/// # Errors
///
/// Propagates [`BuildError`]; the dense fallback is hosted with
/// `derby: None` / `finalize: None`.
pub fn build_personality(
    name: impl Into<String>,
    spec: &CrcSpec,
    opts: &FlowOptions,
) -> Result<dream::Personality, BuildError> {
    use lfsr_parallel::ParallelError;
    use picoga::PgaOperation;
    use xornet::synthesize;

    let name: String = name.into();
    let serial = StateSpaceLfsr::crc(&spec.generator()).expect("valid generator");
    let block = BlockSystem::new(&serial, opts.m)?;
    match DerbyTransform::new(&block) {
        Ok(derby) => {
            let update_net = synthesize(derby.b_mt(), opts.synth);
            let update = PgaOperation::crc_update("update", update_net, derby.a_mt(), &opts.params)
                .map_err(|source| BuildError::Map {
                    op: "update",
                    source,
                })?;
            let fin_net = synthesize(derby.t(), opts.synth);
            let finalize =
                PgaOperation::linear("finalize", fin_net, &opts.params).map_err(|source| {
                    BuildError::Map {
                        op: "finalize",
                        source,
                    }
                })?;
            enforce("update", &update, derby.b_mt(), opts)?;
            enforce("finalize", &finalize, derby.t(), opts)?;
            let cu = enforce_analysis("update", &update, opts)?;
            let cf = enforce_analysis("finalize", &finalize, opts)?;
            let linearity = cu.map(|cu| {
                analyze::LinearityCert::merge(
                    name.clone(),
                    &[cu, cf.expect("both gates run together")],
                )
            });
            Ok(dream::Personality {
                name,
                spec: *spec,
                m: opts.m,
                update,
                finalize: Some(finalize),
                derby: Some(derby),
                linearity,
            })
        }
        Err(ParallelError::SingularKrylov { .. }) => {
            let net = synthesize(&block.a_m().hstack(block.b_m()), opts.synth);
            let update = PgaOperation::crc_update_dense("update", net, spec.width, &opts.params)
                .map_err(|source| BuildError::Map {
                    op: "update",
                    source,
                })?;
            enforce("update", &update, &block.a_m().hstack(block.b_m()), opts)?;
            let linearity = enforce_analysis("update", &update, opts)?
                .map(|c| analyze::LinearityCert::merge(name.clone(), &[c]));
            Ok(dream::Personality {
                name,
                spec: *spec,
                m: opts.m,
                update,
                finalize: None,
                derby: None,
                linearity,
            })
        }
        Err(e) => Err(e.into()),
    }
}

/// Builds a [`dream::ScramblerPersonality`] for hosting on a shared
/// [`dream::DreamSystem`]: the same flow as [`build_scrambler_app`], but
/// the operation is returned instead of being loaded into a private
/// fabric.
///
/// # Errors
///
/// Propagates [`BuildError`] from the math or the mapping.
pub fn build_scrambler_personality(
    name: impl Into<String>,
    spec: &ScramblerSpec,
    opts: &FlowOptions,
) -> Result<dream::ScramblerPersonality, BuildError> {
    use picoga::PgaOperation;
    use xornet::synthesize;

    let serial = StateSpaceLfsr::additive_scrambler(&spec.polynomial()).expect("valid poly");
    let block = BlockSystem::new(&serial, opts.m)?;
    let derby = DerbyTransform::new(&block)?;
    let expected = derby.output_matrix(&block);
    let net = synthesize(&expected, opts.synth);
    let op = PgaOperation::scrambler("scrambler", net, derby.a_mt(), opts.m, &opts.params)
        .map_err(|source| BuildError::Map {
            op: "scrambler",
            source,
        })?;
    enforce("scrambler", &op, &expected, opts)?;
    let name: String = name.into();
    let linearity = enforce_analysis("scrambler", &op, opts)?
        .map(|c| analyze::LinearityCert::merge(name.clone(), &[c]));
    Ok(dream::ScramblerPersonality {
        name,
        spec: *spec,
        m: opts.m,
        op,
        derby,
        linearity,
    })
}

/// Reproduces the paper's empirical study of the arbitrary vector `f`
/// (§4: "we also empirically analyzed the impact of the arbitrary vector f
/// … but we didn't find significant difference in the complexity of T").
///
/// Returns one complexity report per admissible unit-vector seed.
pub fn explore_f(spec: &CrcSpec, m: usize) -> Vec<DerbyComplexity> {
    let serial = StateSpaceLfsr::crc(&spec.generator()).expect("valid generator");
    let Ok(block) = BlockSystem::new(&serial, m) else {
        return Vec::new();
    };
    let k = serial.dim();
    (0..k)
        .filter_map(|i| {
            DerbyTransform::with_seed(&block, &gf2::BitVec::unit(i, k)).map(|d| d.complexity())
        })
        .collect()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn flow_builds_paper_configuration() {
        let (mut app, report) =
            build_crc_app(CrcSpec::crc32_ethernet(), &FlowOptions::dream_m128()).unwrap();
        assert_eq!(report.m, 128);
        assert!(report.kernel_bps > 25e9);
        // The whole point of Derby: loop complexity collapses.
        assert!(report.derby_loop_ones + 32 < report.lookahead_loop_ones);
        let (crc, _) = app.checksum(b"123456789");
        assert_eq!(crc, 0xCBF43926);
    }

    #[test]
    fn flow_builds_scrambler() {
        let (mut app, report) =
            build_scrambler_app(ScramblerSpec::ieee80211(), &FlowOptions::dream_with_m(64))
                .unwrap();
        assert_eq!(report.m, 64);
        assert!(report.finalize_stats.is_none(), "single-operation mapping");
        let data = gf2::BitVec::from_u64(0xABCD_EF01, 32);
        let (out, _) = app.scramble(app.spec().default_seed, &data);
        assert_eq!(out.len(), 32);
    }

    #[test]
    fn f_exploration_finds_no_significant_difference() {
        // §4: complexity of T barely depends on f; the paper settled on e0.
        let reports = explore_f(CrcSpec::crc32_ethernet(), 32);
        assert!(reports.len() >= 16, "most unit seeds should be admissible");
        let min = reports.iter().map(|r| r.t_ones).min().unwrap();
        let max = reports.iter().map(|r| r.t_ones).max().unwrap();
        assert!(
            (max - min) * 4 < max,
            "T complexity spread {min}..{max} should be small"
        );
    }

    #[test]
    fn personalities_host_on_a_shared_system() {
        use dream::DreamSystem;
        let mut soc = DreamSystem::new(
            picoga::PicogaParams::dream(),
            dream::ControlModel::default(),
        );
        for (name, spec) in [("eth", "CRC-32/ETHERNET"), ("dect", "CRC-16/DECT-X")] {
            let spec = CrcSpec::by_name(spec).unwrap();
            let p = build_personality(name, spec, &FlowOptions::dream_with_m(16)).unwrap();
            soc.register(p).unwrap();
        }
        let data = b"host both methods on one fabric";
        let (eth, _) = soc.checksum("eth", data).unwrap();
        let (dect, _) = soc.checksum("dect", data).unwrap();
        assert_eq!(eth, lfsr::crc::crc_bitwise(CrcSpec::crc32_ethernet(), data));
        assert_eq!(
            dect,
            lfsr::crc::crc_bitwise(CrcSpec::by_name("CRC-16/DECT-X").unwrap(), data)
        );
    }

    #[test]
    fn f_exploration_of_invalid_m_is_empty() {
        assert!(explore_f(CrcSpec::crc32_ethernet(), 0).is_empty());
    }

    #[test]
    fn strict_mode_verifies_every_named_spec_and_m() {
        // The acceptance sweep: every catalogue CRC at every paper M
        // builds under strict verification (equivalence proven for the
        // update and anti-transform networks, no Error-severity lints).
        for spec in lfsr::crc::CATALOG {
            for m in [8usize, 16, 32, 64, 128] {
                let opts = FlowOptions::dream_with_m(m);
                assert!(opts.verify.is_some(), "strict mode is the default");
                assert!(opts.analyze, "static analysis is on by default");
                match build_crc_app(spec, &opts) {
                    Ok(_) => {}
                    Err(BuildError::Verify { op, source }) => {
                        panic!("{} M={m} '{op}' failed verification:\n{source}", spec.name)
                    }
                    Err(BuildError::Analyze { op, source }) => {
                        panic!("{} M={m} '{op}' failed analysis:\n{source}", spec.name)
                    }
                    // Genuinely unmappable points (e.g. M beyond the I/O
                    // budget for wide states) are not verification bugs.
                    Err(BuildError::Map { .. } | BuildError::Parallel(_)) => {}
                    Err(BuildError::Spec(e)) => {
                        panic!("{} is a catalogue spec and must parse: {e}", spec.name)
                    }
                    Err(BuildError::Fabric { op, source }) => {
                        panic!("DREAM has 4 contexts, '{op}' must load: {source}")
                    }
                }
            }
        }
    }

    #[test]
    fn verification_can_be_disabled() {
        let opts = FlowOptions {
            verify: None,
            analyze: false,
            ..FlowOptions::dream_with_m(32)
        };
        let (mut app, _) = build_crc_app(CrcSpec::crc32_ethernet(), &opts).unwrap();
        let (crc, _) = app.checksum(b"123456789");
        assert_eq!(crc, 0xCBF43926);
    }

    #[test]
    fn analysis_attaches_an_affine_certificate() {
        let p = build_personality(
            "eth",
            CrcSpec::crc32_ethernet(),
            &FlowOptions::dream_with_m(32),
        )
        .unwrap();
        let cert = p.linearity.expect("dream presets analyze by default");
        assert!(cert.affine, "{}", cert.summary());
        assert!(cert.linear, "CRC update/finalize are linear maps");
        assert!(cert.offending_cells.is_empty());

        let s = crate::flow::build_scrambler_personality(
            "wifi",
            ScramblerSpec::ieee80211(),
            &FlowOptions::dream_with_m(32),
        )
        .unwrap();
        assert!(s.linearity.expect("cert attached").affine);
    }

    #[test]
    fn analysis_can_be_disabled_leaving_no_certificate() {
        let opts = FlowOptions {
            analyze: false,
            ..FlowOptions::dream_with_m(32)
        };
        let p = build_personality("eth", CrcSpec::crc32_ethernet(), &opts).unwrap();
        assert!(p.linearity.is_none());
    }

    #[test]
    fn tampered_lint_config_cannot_hide_equivalence_errors() {
        // Even with every lint allowed, the flow still proves equivalence;
        // a correct build passes and the config only affects lints.
        let opts = FlowOptions {
            verify: Some(verify::LintConfig::allow_all()),
            ..FlowOptions::dream_with_m(64)
        };
        assert!(build_crc_app(CrcSpec::crc32_ethernet(), &opts).is_ok());
    }
}
