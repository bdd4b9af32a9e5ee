//! # tbpoint-cli
//!
//! The experiment driver: every table and figure of the paper's
//! evaluation (Section V) is regenerated by a function in
//! [`experiments`] and driven by the `tbpoint` binary. The per-benchmark
//! functions (`*_bench`) are the units of the binary's resumable roster
//! sweep ([`sweep::run_units`]).
//!
//! | Paper artefact | Function | CLI subcommand |
//! |---|---|---|
//! | Table I (simulation slowdown) | [`experiments::table1()`](experiments::table1()) | `tbpoint table1` |
//! | Table VI (benchmark roster) | [`experiments::table6()`](experiments::table6()) | `tbpoint table6` |
//! | Fig. 5 (Monte-Carlo IPC variation) | [`experiments::fig5()`](experiments::fig5()) | `tbpoint fig5` |
//! | Fig. 8 (TB-size scatter) | [`experiments::fig8_bench()`](experiments::fig8_bench()) | `tbpoint fig8` |
//! | Figs. 9/10/11 (errors, sample sizes, breakdown) | [`experiments::eval_bench()`](experiments::eval_bench()) | `tbpoint eval` / `fig9` / `fig10` / `fig11` |
//! | Figs. 12/13 (hardware sensitivity) | [`experiments::sensitivity_bench()`](experiments::sensitivity_bench()) | `tbpoint fig12` / `fig13` |
//! | Design-choice ablations | [`experiments::ablate()`](experiments::ablate()) | `tbpoint ablate` |

#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod experiments;
pub mod output;
pub mod sweep;
