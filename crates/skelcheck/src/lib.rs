//! skelcheck: debug/CI-time checkers for the SkelCL reproduction.
//!
//! Two analyzers over artifacts the library already produces:
//!
//! * [`hazard`] — a **buffer-level race detector** over recorded command
//!   timelines ([`vgpu::CommandRecord`] traces). It reconstructs the
//!   happens-before relation from stream program order, explicit event
//!   dependencies, device serialization and host synchronization, then
//!   flags RAW/WAR/WAW pairs on overlapping bytes of one device buffer
//!   with no ordering path. Batch form: [`verify_no_buffer_hazards`]
//!   (alongside `vgpu::verify_engine_exclusive`); online form:
//!   [`OnlineHazardChecker`], installable as a command observer that
//!   panics at the exact enqueue completing a race.
//! * [`lint`] — a **kernel source linter** for generated OpenCL programs:
//!   barriers under divergent control flow, `__local` allocations over the
//!   device budget, host/kernel argument-count mismatches, unguarded
//!   thread-id-indexed global accesses, undeclared subscript identifiers
//!   and calls to functions the program never defines. Run it over a
//!   program registry to vet every kernel a process ever built.
//!
//! Both are pure observers: they never change scheduling or results, so
//! they can run in CI (seeded property suites with the online checker
//! installed) without perturbing what they check.

pub mod hazard;
pub mod lint;

pub use hazard::{
    find_buffer_hazards, verify_no_buffer_hazards, CmdRef, Hazard, HazardKind, HazardState,
    OnlineHazardChecker,
};
pub use lint::{lint_program, LintFinding, LintRule};
