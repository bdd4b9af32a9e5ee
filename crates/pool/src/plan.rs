//! `ExecPlan`: the single validated home for the parallelism knob.
//!
//! TBPoint has one parallel axis: `pool_workers`, how many threads the
//! [`runner`](crate::runner) pool uses to schedule whole launches and
//! sweep units. (An intra-launch axis that sharded one launch's SMs
//! across threads was measured slower than serial on every host it ran
//! on and was removed — DESIGN.md, "Deterministic parallel simulation".)
//!
//! Resolution happens in exactly one place ([`resolve`]) with fixed
//! precedence: **CLI flag > environment variable > auto**. A request of
//! `0` or unparseable environment text resolves to serial (`1`) and
//! produces a [`PlanNote`]; the caller emits it as one structured
//! [`EventKind::ExecPlanAdjusted`](tbpoint_obs::EventKind) event.
//!
//! The plan is an *execution* concern, deliberately kept out of
//! `TbpointConfig` and every serialized result artifact: results are
//! bit-identical at any worker count, so recording the worker count
//! with the result would break artifact-level byte comparison for no
//! information gain.

use serde::{Deserialize, Serialize};
use tbpoint_obs::{Event, EventKind, PlanAxis};

/// Environment variable for [`ExecPlan::pool_workers`].
pub const ENV_POOL_WORKERS: &str = "TBPOINT_POOL_WORKERS";

/// The parallelism plan: a worker count with serial (`1`) as the
/// neutral value; `0` never survives resolution.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Serialize, Deserialize)]
pub struct ExecPlan {
    /// Pool workers scheduling whole launches / sweep units
    /// (`--pool-workers`, also spelled `--jobs`).
    pub pool_workers: usize,
}

impl Default for ExecPlan {
    /// Serial.
    fn default() -> Self {
        ExecPlan { pool_workers: 1 }
    }
}

impl ExecPlan {
    /// Serial (alias for [`Default`], reads better at call sites).
    #[must_use]
    pub fn serial() -> Self {
        ExecPlan::default()
    }

    /// The plan handed to work running *inside* one pool unit.
    ///
    /// The outermost scheduler spends the `pool_workers` budget once;
    /// nested fan-out would multiply thread counts (`workers x workers`
    /// oversubscription), so units run serially.
    #[must_use]
    pub fn unit(self) -> Self {
        ExecPlan::serial()
    }

    /// The worker count clamped to at least one. Defensive
    /// normalization for plans that did not pass through [`resolve`].
    #[must_use]
    pub fn normalized(self) -> Self {
        ExecPlan {
            pool_workers: self.pool_workers.max(1),
        }
    }
}

/// Where an adjusted request came from.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum PlanSource {
    /// A CLI flag (`--pool-workers` / `--jobs`).
    Cli,
    /// The environment variable (`TBPOINT_POOL_WORKERS`).
    Env,
}

impl std::fmt::Display for PlanSource {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.write_str(match self {
            PlanSource::Cli => "command line",
            PlanSource::Env => "environment",
        })
    }
}

/// The adjustment made during resolution: the requested value was zero
/// or unparseable and the plan fell back to serial.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PlanNote {
    /// Which precedence level supplied the bad request.
    pub source: PlanSource,
    /// The request as written (flag value or raw environment text).
    pub raw: String,
    /// Parsed numeric request; `0` when `raw` did not parse at all.
    pub requested: u64,
    /// The value resolution actually used.
    pub used: usize,
}

impl PlanNote {
    /// The structured observability event for this adjustment; callers
    /// render it with [`tbpoint_obs::event_line`]. Plan resolution has
    /// no simulated clock, so the event carries cycle 0.
    #[must_use]
    pub fn event(&self) -> Event {
        Event {
            cycle: 0,
            kind: EventKind::ExecPlanAdjusted {
                axis: PlanAxis::PoolWorkers,
                requested: self.requested,
                used: self.used as u64,
            },
        }
    }
}

impl std::fmt::Display for PlanNote {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(
            f,
            "pool_workers: requested `{}` via {}; using {} (serial)",
            self.raw, self.source, self.used
        )
    }
}

/// Everything [`resolve`] consults, gathered by the caller so the
/// decision itself is pure and unit-testable. `None` means "not
/// provided at this precedence level".
#[derive(Debug, Clone, Default)]
pub struct PlanInputs<'a> {
    /// `--pool-workers` (or `--jobs`) flag value, if given.
    pub cli_pool_workers: Option<usize>,
    /// Raw `TBPOINT_POOL_WORKERS` text, if set.
    pub env_pool_workers: Option<&'a str>,
    /// Fallback when no level supplies a value. The default is serial;
    /// interactive drivers typically pass the host CPU count.
    pub auto: ExecPlan,
}

/// Resolve an [`ExecPlan`] from explicit inputs with precedence
/// **CLI > environment > auto**.
///
/// Returns the plan plus a [`PlanNote`] when the winning level's request
/// was zero or unparseable (the plan is then serial).
#[must_use]
pub fn resolve(inputs: &PlanInputs<'_>) -> (ExecPlan, Option<PlanNote>) {
    // An explicit but unusable request resolves to serial rather than
    // falling through: the user *did* ask for something, and silently
    // substituting a lower level's value would hide that.
    let (source, raw) = match (inputs.cli_pool_workers, inputs.env_pool_workers) {
        (Some(v), _) => (PlanSource::Cli, v.to_string()),
        (None, Some(raw)) => (PlanSource::Env, raw.to_string()),
        (None, None) => return (inputs.auto.normalized(), None),
    };
    match raw.trim().parse::<usize>() {
        Ok(pool_workers) if pool_workers > 0 => (ExecPlan { pool_workers }, None),
        _ => {
            let note = PlanNote {
                source,
                raw,
                requested: 0,
                used: 1,
            };
            (ExecPlan::serial(), Some(note))
        }
    }
}

/// [`resolve`] with the environment level read from the live process
/// environment (`TBPOINT_POOL_WORKERS`).
#[must_use]
pub fn resolve_from_env(
    cli_pool_workers: Option<usize>,
    auto: ExecPlan,
) -> (ExecPlan, Option<PlanNote>) {
    let env_pool_workers = std::env::var(ENV_POOL_WORKERS).ok();
    resolve(&PlanInputs {
        cli_pool_workers,
        env_pool_workers: env_pool_workers.as_deref(),
        auto,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn explicit_flag_wins_over_environment() {
        let (plan, note) = resolve(&PlanInputs {
            cli_pool_workers: Some(5),
            env_pool_workers: Some("9"),
            ..PlanInputs::default()
        });
        assert_eq!(plan, ExecPlan { pool_workers: 5 });
        assert_eq!(note, None);
    }

    #[test]
    fn explicit_zero_clamps_to_serial_with_a_note() {
        let (plan, note) = resolve(&PlanInputs {
            cli_pool_workers: Some(0),
            ..PlanInputs::default()
        });
        assert_eq!(plan.pool_workers, 1);
        let note = note.unwrap();
        assert_eq!(note.source, PlanSource::Cli);
        assert_eq!(note.requested, 0);
        assert_eq!(note.used, 1);
    }

    #[test]
    fn environment_applies_when_no_flag() {
        let (plan, note) = resolve(&PlanInputs {
            env_pool_workers: Some(" 6 "),
            ..PlanInputs::default()
        });
        assert_eq!(plan, ExecPlan { pool_workers: 6 });
        assert_eq!(note, None);
    }

    #[test]
    fn bad_or_zero_environment_resolves_to_serial() {
        for raw in ["0", "banana", "-3", ""] {
            let (plan, note) = resolve(&PlanInputs {
                env_pool_workers: Some(raw),
                auto: ExecPlan { pool_workers: 8 },
                ..PlanInputs::default()
            });
            assert_eq!(plan.pool_workers, 1, "raw={raw:?}");
            let note = note.unwrap();
            assert_eq!(note.source, PlanSource::Env, "raw={raw:?}");
            assert_eq!(note.raw, raw);
        }
    }

    #[test]
    fn auto_fills_last_and_is_never_zero() {
        for (auto, want) in [(8, 8), (0, 1)] {
            let (plan, note) = resolve(&PlanInputs {
                auto: ExecPlan { pool_workers: auto },
                ..PlanInputs::default()
            });
            assert_eq!(plan, ExecPlan { pool_workers: want });
            assert_eq!(note, None);
        }
    }

    #[test]
    fn unit_plan_spends_the_pool_budget_once() {
        assert_eq!(ExecPlan { pool_workers: 8 }.unit(), ExecPlan::serial());
    }

    #[test]
    fn notes_render_as_structured_events() {
        let (_, note) = resolve(&PlanInputs {
            env_pool_workers: Some("nope"),
            ..PlanInputs::default()
        });
        let event = note.unwrap().event();
        let line = tbpoint_obs::event_line(&event);
        assert!(line.contains("ExecPlanAdjusted"), "line={line}");
        let back = tbpoint_obs::parse_event(&line).unwrap();
        assert_eq!(back, event);
    }

    #[test]
    fn normalized_never_returns_zero() {
        let p = ExecPlan { pool_workers: 0 }.normalized();
        assert_eq!(p, ExecPlan::serial());
    }
}
