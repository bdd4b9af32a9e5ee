// Tests assert by panicking and compare exact floats on purpose; their
// clocks and hash maps never reach a result.
#![cfg_attr(
    test,
    allow(
        clippy::float_cmp,
        clippy::cast_possible_truncation,
        clippy::unreachable,
        clippy::todo,
        clippy::unimplemented,
        clippy::disallowed_methods,
        clippy::disallowed_types
    )
)]

//! # tbpoint-workloads
//!
//! Synthetic reconstructions of the paper's Table VI benchmark roster.
//!
//! The paper evaluates 12 long-running kernels from lonestar, parboil,
//! rodinia and the CUDA SDK. The binaries and inputs are not available
//! here, and running them would require a CUDA toolchain; instead each
//! benchmark is a *generator* producing a [`tbpoint_ir::KernelRun`] whose
//! statistical signature matches what the sampling experiments are
//! sensitive to:
//!
//! * the **launch count** and **total thread-block count** match Table VI
//!   exactly (at [`Scale::Full`]);
//! * **regular** kernels (Type II) have uniform thread blocks and
//!   homogeneous launches; **irregular** kernels (Type I) have power-law
//!   or bimodal per-TB work, frontier-shaped launch sequences (bfs,
//!   sssp), outlier thread blocks (mst) or data-dependent gathers
//!   (spmv, mri) — reproducing the Fig. 8 size-ratio signatures;
//! * memory behaviour (coalesced stencils vs. random graph gathers vs.
//!   SFU-heavy math) follows each application's published
//!   characterisation.
//!
//! Which benchmarks are Type I vs II is partly inferred (the table's type
//! row did not survive OCR); the classification used here — irregular:
//! bfs, sssp, mst, mri, spmv, stream; regular: lbm, cfd, kmeans, hotspot,
//! black, conv — is consistent with every statement the paper's text
//! makes about individual benchmarks. Recorded in DESIGN.md.
//!
//! Per-thread-block *work* is scaled down so a full (unsampled) timing
//! simulation of the entire roster completes in minutes; all comparisons
//! are sampled-vs-full on the same scale, so relative errors and sample
//! sizes are unaffected. [`Scale`] additionally shrinks TB counts for
//! tests and CI.

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod kernels;
pub mod roster;
pub mod scale;
pub mod synthetic;

pub use roster::{all_benchmarks, benchmark_by_name, Benchmark, KernelKind, Suite};
pub use scale::Scale;
pub use synthetic::{PhaseSpec, SyntheticSpec};
