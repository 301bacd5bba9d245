//! Instruction model, semantics, and cost models for sorting-kernel synthesis.
//!
//! This crate defines the machine model of Ullrich & Hack, *Synthesis of
//! Sorting Kernels* (CGO 2025), §2.2: a register machine with
//!
//! * value registers `r1..rn` holding the numbers to be sorted,
//! * scratch registers `s1..sm` for swapping (initially zero),
//! * comparison flags `lt` and `gt` (initially unset),
//!
//! and two instruction sets:
//!
//! * the **cmov ISA** — `mov`, `cmp`, `cmovl`, `cmovg` — modelling x86
//!   general-purpose-register kernels, and
//! * the **min/max ISA** — `mov`, `min`, `max` — modelling SSE
//!   `movdqa`/`pminsd`/`pmaxsd` vector kernels (§5.4).
//!
//! A *sorting kernel* for length `n` is a straight-line program over one of
//! these ISAs that, run on any initial assignment of `r1..rn`, leaves those
//! registers sorted ascending. Because kernels are constant-free they cannot
//! discriminate inputs, so correctness on the `n!` permutations of `1..n`
//! implies correctness on all inputs (§2.3).
//!
//! # Example
//!
//! Synthesis front-ends build on [`Machine`], which owns the configuration
//! (`n`, scratch count, ISA) and provides execution and correctness checking:
//!
//! ```
//! use sortsynth_isa::{Machine, IsaMode, Program};
//!
//! let machine = Machine::new(2, 1, IsaMode::Cmov);
//! // The four-instruction compare-and-swap from the paper's §2.2 example.
//! let prog: Program = machine.parse_program("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1")?;
//! assert!(machine.is_correct(&prog));
//! # Ok::<(), sortsynth_isa::ParseProgramError>(())
//! ```

pub mod cost;
pub mod equiv;
pub mod instr;
pub mod machine;
pub mod perm;
pub mod pipeline;
#[cfg(feature = "serde")]
mod serde_impls;
pub mod state;

pub use cost::{
    critical_path, sampling_score, uica_estimate, weighted_score, CostWeights, InstrMix,
};
pub use equiv::{equivalent, sorts_all_zero_one, zero_one_counterexample};
pub use instr::{Instr, Op, ParseProgramError, Program};
pub use machine::{IsaMode, Machine, Reg};
pub use perm::{factorial, permutations};
pub use pipeline::{analyze, simulate_cycles, PipelineReport, ThroughputModel};
pub use state::MachineState;
