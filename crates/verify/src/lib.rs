//! Static analysis for synthesized sorting kernels.
//!
//! The paper's correctness story is exhaustive permutation testing, plus the
//! §2.3 observation that 0-1 testing alone is unsound for cmp/cmov programs.
//! This crate adds the complementary static story:
//!
//! - [`dataflow`]: backward def-use/liveness over registers *and* flags.
//! - [`absint`]: a tiny abstract interpreter; [`zero_one`] instantiates it
//!   with the 0-1 collecting domain (a sound sortedness proof for min/max
//!   kernels, a necessary check for cmov kernels), [`flags`] with a
//!   flag-taint domain that catches the §2.3 stale-flag bug class
//!   statically.
//! - [`network`]: comparator-network extraction; a whole-program network
//!   that sorts all 2^n boolean vectors is certified correct on all inputs.
//! - [`valueflow`]: symbolic value-flow analysis — exact
//!   permutation-correctness certificates ([`PermCertificate`]) that decide
//!   the cmp/cmov programs the 0-1 pipeline cannot, and compose across
//!   stitched blocks ([`verify_stitched`]).
//! - [`dce`]: liveness-driven dead-code elimination.
//!
//! [`verify`] bundles everything into a [`Report`] — a [`Verdict`] plus a
//! catalog of structured [`Diagnostic`]s — and [`gate`] is the static
//! admission check used by the kernel cache ([`gate_detail`] additionally
//! reports which analysis stage decided).

pub mod absint;
pub mod dataflow;
mod dce;
pub mod flags;
pub mod network;
pub mod valueflow;
pub mod zero_one;

use std::error::Error;
use std::fmt;
use std::time::Instant;

use serde::{Serialize, Value};
use sortsynth_isa::{Instr, IsaMode, Machine, Op};
use sortsynth_obs::names;

pub use dce::dce;
pub use network::{extract_network, network_witness, Comparator};
pub use valueflow::{
    analyze as value_flow, verify_stitched, Analysis, BlockSpec, PermCertificate, StitchError,
};
pub use zero_one::zero_one_witness;

use dataflow::{defs, liveness, Liveness, LocSet};

/// How bad a finding is.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord)]
pub enum Severity {
    /// Style/canonicalization notes; never affects correctness.
    Info,
    /// Removable or suspicious code; the kernel may still be correct.
    Warning,
    /// The program is malformed or almost certainly wrong.
    Error,
}

impl Severity {
    /// Stable lowercase name for wire formats and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            Severity::Info => "info",
            Severity::Warning => "warning",
            Severity::Error => "error",
        }
    }
}

/// The lint catalog.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum LintKind {
    /// Instruction outside the machine's ISA or register out of range.
    Malformed,
    /// A `cmov` executes before any `cmp` has set the flags.
    CmovWithoutCmp,
    /// A conditional write killed by a same-guard write with no read in
    /// between — the static signature of the §2.3 stale-flag bug.
    DeadConditionalWrite,
    /// A register write that is never read before being overwritten or
    /// reaching exit.
    DeadWrite,
    /// A dead write specifically killed by a later unconditional write.
    WriteAfterWrite,
    /// A `cmp` whose flags are never read.
    UnreadFlags,
    /// A flag read after an operand of the guarding `cmp` was overwritten.
    StaleFlagRead,
    /// A `mov` that copies a value already in place.
    RedundantMov,
    /// A `cmp` outside the enumerator's canonical `dst < src` operand order.
    NonCanonicalCompare,
    /// A scratch register the machine provides but the program never touches.
    UnusedScratch,
    /// A cmp/cmov program that fails a *tied* 0-1 input. Strict-comparison
    /// tie-breaking is not monotone, so this does not refute correctness on
    /// the paper's duplicate-free permutation domain — but the kernel is not
    /// a total sorting function.
    TieUnsafe,
    /// The symbolic value-flow analyzer exceeded its budget before
    /// exhausting the order-class tree: permutation correctness is neither
    /// proved nor refuted statically.
    UnprovablePerm,
    /// A selection instruction (`cmov`/`min`/`max`) that never changes the
    /// machine state on any input, per the symbolic value-flow analysis.
    RedundantSelection,
}

impl LintKind {
    /// Stable kebab-case name for wire formats and CLI output.
    pub fn name(self) -> &'static str {
        match self {
            LintKind::Malformed => "malformed",
            LintKind::CmovWithoutCmp => "cmov-without-cmp",
            LintKind::DeadConditionalWrite => "dead-conditional-write",
            LintKind::DeadWrite => "dead-write",
            LintKind::WriteAfterWrite => "write-after-write",
            LintKind::UnreadFlags => "unread-flags",
            LintKind::StaleFlagRead => "stale-flag-read",
            LintKind::RedundantMov => "redundant-mov",
            LintKind::NonCanonicalCompare => "non-canonical-compare",
            LintKind::UnusedScratch => "unused-scratch",
            LintKind::TieUnsafe => "tie-unsafe",
            LintKind::UnprovablePerm => "unprovable-perm",
            LintKind::RedundantSelection => "redundant-selection",
        }
    }

    /// The fixed severity of this lint kind.
    pub fn severity(self) -> Severity {
        match self {
            LintKind::Malformed | LintKind::CmovWithoutCmp | LintKind::DeadConditionalWrite => {
                Severity::Error
            }
            LintKind::DeadWrite
            | LintKind::WriteAfterWrite
            | LintKind::UnreadFlags
            | LintKind::StaleFlagRead
            | LintKind::RedundantMov
            | LintKind::TieUnsafe
            | LintKind::UnprovablePerm
            | LintKind::RedundantSelection => Severity::Warning,
            LintKind::NonCanonicalCompare | LintKind::UnusedScratch => Severity::Info,
        }
    }
}

/// One structured finding.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Diagnostic {
    /// Which lint fired.
    pub kind: LintKind,
    /// The instruction it anchors to (`None` for whole-program findings).
    pub index: Option<usize>,
    /// Human-readable explanation.
    pub message: String,
}

impl Diagnostic {
    /// A finding anchored at instruction `index`.
    pub fn at(kind: LintKind, index: usize, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            index: Some(index),
            message: message.into(),
        }
    }

    /// A whole-program finding.
    pub fn program(kind: LintKind, message: impl Into<String>) -> Self {
        Diagnostic {
            kind,
            index: None,
            message: message.into(),
        }
    }

    /// The severity inherited from the lint kind.
    pub fn severity(&self) -> Severity {
        self.kind.severity()
    }
}

impl fmt::Display for Diagnostic {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self.index {
            Some(i) => write!(
                f,
                "{}[{}] at {}: {}",
                self.severity().name(),
                self.kind.name(),
                i,
                self.message
            ),
            None => write!(
                f,
                "{}[{}]: {}",
                self.severity().name(),
                self.kind.name(),
                self.message
            ),
        }
    }
}

/// What the analyzer can say about sortedness.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Verdict {
    /// The whole program is a comparator network that sorts all 0-1
    /// vectors: **proved correct on every input** (0-1 principle for
    /// networks; both ISAs).
    CertifiedNetwork,
    /// Every 0-1 vector sorts and the program is min/max-mode: **proved
    /// correct on every input** (min/max programs are lattice polynomials,
    /// determined by their 0-1 behaviour).
    CertifiedZeroOne,
    /// Every 0-1 vector sorts, but the program is free-form cmp/cmov, where
    /// the 0-1 lemma is only necessary (§2.3): *not* a proof. Only reached
    /// when the symbolic value-flow analyzer also bailed out.
    PassedZeroOne,
    /// The symbolic value-flow analyzer discharged every order class:
    /// **proved correct on every permutation of `1..=n`** (the paper's test
    /// domain). Says nothing about inputs with tied keys — a separate
    /// `tie-unsafe` diagnostic records a tied failure when one exists.
    CertifiedPermutations {
        /// Order classes discharged (`n!` for a monolithic certificate).
        classes: u64,
    },
    /// The symbolic value-flow analyzer found a permutation of `1..=n` the
    /// program fails to sort: **proved incorrect** on the paper's test
    /// domain, with no enumeration of inputs.
    RefutedPermutation {
        /// The failing permutation.
        witness: Vec<u8>,
    },
    /// An input the program fails to sort that also transfers to the
    /// paper's duplicate-free permutation domain: **proved incorrect**.
    /// Sound in three cases: the program is a comparator network (exact
    /// min/max semantics, monotone), the ISA is min/max mode (likewise
    /// monotone), or the witness itself has no ties.
    RefutedZeroOne {
        /// The failing {0,1}^n input.
        witness: Vec<u8>,
    },
    /// A cmp/cmov program that sorts every duplicate-free input tested but
    /// fails a *tied* 0-1 vector. Strict-comparison tie-breaking is not
    /// monotone, so the failure does not project back to a permutation:
    /// correctness on the paper's test domain is **undetermined**, but the
    /// kernel provably mis-sorts inputs with equal keys.
    TieUnsafe {
        /// The failing tied {0,1}^n input.
        witness: Vec<u8>,
    },
    /// The program is malformed; no semantic analysis ran.
    Unchecked,
}

impl Verdict {
    /// Stable kebab-case name for wire formats and CLI output.
    pub fn wire_name(&self) -> &'static str {
        match self {
            Verdict::CertifiedNetwork => "certified-network",
            Verdict::CertifiedZeroOne => "certified-zero-one",
            Verdict::PassedZeroOne => "passed-zero-one",
            Verdict::CertifiedPermutations { .. } => "certified-perm",
            Verdict::RefutedPermutation { .. } => "refuted-perm",
            Verdict::RefutedZeroOne { .. } => "refuted-zero-one",
            Verdict::TieUnsafe { .. } => "tie-unsafe",
            Verdict::Unchecked => "unchecked",
        }
    }

    /// Whether this verdict proves the program sorts every input, tied
    /// keys included.
    pub fn certified(&self) -> bool {
        matches!(self, Verdict::CertifiedNetwork | Verdict::CertifiedZeroOne)
    }

    /// Whether this verdict proves the program sorts every permutation of
    /// `1..=n` — the paper's correctness bar. Implied by [`Self::certified`].
    pub fn perm_certified(&self) -> bool {
        self.certified() || matches!(self, Verdict::CertifiedPermutations { .. })
    }

    /// Whether this verdict proves the program incorrect on the paper's
    /// permutation test domain.
    pub fn refuted(&self) -> bool {
        matches!(
            self,
            Verdict::RefutedZeroOne { .. } | Verdict::RefutedPermutation { .. }
        )
    }
}

/// The full analysis result for one program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Report {
    /// Sortedness verdict.
    pub verdict: Verdict,
    /// The extracted comparator network, when the whole program is one.
    pub network: Option<Vec<Comparator>>,
    /// All findings, ordered by instruction index.
    pub diagnostics: Vec<Diagnostic>,
    /// Program length in instructions.
    pub len: usize,
    /// Length after dead-code elimination (`< len` means removable code).
    pub dce_len: usize,
}

impl Report {
    /// Whether any error-severity finding is present.
    pub fn has_errors(&self) -> bool {
        self.diagnostics
            .iter()
            .any(|d| d.severity() == Severity::Error)
    }
}

/// Runs the whole analysis pipeline over `prog`.
pub fn verify(machine: &Machine, prog: &[Instr]) -> Report {
    let bad = malformed(machine, prog);
    if !bad.is_empty() {
        // Semantic passes assume a well-formed program (out-of-range
        // registers would corrupt the packed state); stop here.
        return Report {
            verdict: Verdict::Unchecked,
            network: None,
            diagnostics: bad,
            len: prog.len(),
            dce_len: prog.len(),
        };
    }

    let lv = liveness(machine, prog);
    let mut diagnostics = liveness_lints(machine, prog, &lv);
    diagnostics.extend(redundant_movs(machine, prog, &lv));
    diagnostics.extend(style_lints(machine, prog));
    diagnostics.extend(flags::flag_lints(machine, prog));

    let network = extract_network(machine, prog);
    let verdict = match &network {
        // A recognized network computes exact min/max per comparator (ties
        // included), so a network refutation is sound on every domain.
        Some(net) => match network_witness(machine.n(), net) {
            None => Verdict::CertifiedNetwork,
            Some(witness) => Verdict::RefutedZeroOne { witness },
        },
        None => match zero_one_witness(machine, prog) {
            Some(witness) if refutation_transfers(machine.mode(), &witness) => {
                Verdict::RefutedZeroOne { witness }
            }
            // A tied-only witness on a cmp/cmov program: inconclusive for
            // the 0-1 pipeline, decided exactly by the symbolic analyzer.
            Some(witness) => symbolic_verdict(machine, prog, Some(witness), &mut diagnostics),
            None => match machine.mode() {
                IsaMode::MinMax => Verdict::CertifiedZeroOne,
                // A clean 0-1 run proves nothing for cmp/cmov (§2.3); the
                // symbolic analyzer closes exactly that gap.
                IsaMode::Cmov => symbolic_verdict(machine, prog, None, &mut diagnostics),
            },
        },
    };
    diagnostics.sort_by_key(|d| (d.index.unwrap_or(usize::MAX), d.kind.name()));

    Report {
        verdict,
        network,
        dce_len: dce(machine, prog).len(),
        diagnostics,
        len: prog.len(),
    }
}

/// Decides a cmp/cmov program the 0-1 pipeline left open (clean run, or a
/// tied-only witness) with the symbolic value-flow analyzer, attaching the
/// analysis-derived diagnostics.
fn symbolic_verdict(
    machine: &Machine,
    prog: &[Instr],
    tied: Option<Vec<u8>>,
    diagnostics: &mut Vec<Diagnostic>,
) -> Verdict {
    let vf = valueflow::analyze_with(machine, prog, valueflow::Limits::default());
    match vf.analysis {
        Analysis::Certified(cert) => {
            for i in vf.ineffective {
                diagnostics.push(Diagnostic::at(
                    LintKind::RedundantSelection,
                    i,
                    format!(
                        "`{}` never changes the machine state on any input \
                         (all {} symbolic order classes)",
                        machine.format_instr(prog[i]),
                        cert.classes
                    ),
                ));
            }
            if let Some(witness) = tied {
                diagnostics.push(Diagnostic::program(
                    LintKind::TieUnsafe,
                    format!(
                        "fails tied 0-1 input {witness:?}; perm-certified, so the kernel \
                         sorts every duplicate-free input but mis-sorts equal keys"
                    ),
                ));
            }
            Verdict::CertifiedPermutations {
                classes: cert.classes,
            }
        }
        Analysis::Refuted { witness, .. } => Verdict::RefutedPermutation { witness },
        Analysis::Bailout { classes } => {
            diagnostics.push(Diagnostic::program(
                LintKind::UnprovablePerm,
                format!(
                    "symbolic value-flow analysis exceeded its budget after {classes} \
                     order classes; permutation correctness undetermined statically"
                ),
            ));
            match tied {
                Some(witness) => {
                    diagnostics.push(Diagnostic::program(
                        LintKind::TieUnsafe,
                        format!(
                            "fails tied 0-1 input {witness:?}; correct on distinct keys at \
                             most (strict comparisons are not monotone, so this is not a \
                             refutation)"
                        ),
                    ));
                    Verdict::TieUnsafe { witness }
                }
                None => Verdict::PassedZeroOne,
            }
        }
    }
}

/// Whether a failing 0-1 input refutes correctness on the duplicate-free
/// permutation domain the paper tests. Min/max programs are monotone, so
/// any 0-1 failure projects back to a failing permutation; for cmp/cmov the
/// projection argument needs a tie-free witness (order-isomorphic to a
/// permutation, on which a comparison-based program behaves identically).
fn refutation_transfers(mode: IsaMode, witness: &[u8]) -> bool {
    if mode == IsaMode::MinMax {
        return true;
    }
    let mut sorted = witness.to_vec();
    sorted.sort_unstable();
    sorted.windows(2).all(|w| w[0] != w[1])
}

/// Why [`gate`] rejected a program.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum GateError {
    /// Not a valid program for the machine.
    Malformed(String),
    /// Fails to sort the contained input — provably not a sorting kernel.
    /// The witness is a 0-1 vector when the network/0-1 paths decided, or
    /// a permutation of `1..=n` when the symbolic analyzer (or the oracle
    /// fallback) did.
    Refuted(Vec<u8>),
}

impl fmt::Display for GateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            GateError::Malformed(msg) => write!(f, "malformed kernel: {msg}"),
            GateError::Refuted(witness) => {
                write!(f, "kernel fails to sort input {witness:?}")
            }
        }
    }
}

impl Error for GateError {}

/// Version of the [`gate`] decision procedure. Bump on any change to what
/// the gate accepts or rejects — consumers that checksum "this program
/// passed the gate" records (the kernel cache) key their stamps on it, so a
/// bump forces every stamped record to be re-analyzed.
pub const GATE_VERSION: u32 = 2;

/// Which analysis stage decided a [`gate_detail`] call.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GatePath {
    /// Rejected before any semantic analysis ran.
    Malformed,
    /// Decided by the comparator-network 0-1 certificate.
    Network,
    /// Decided by the 0-1 run (clean min/max run, or a transferring
    /// witness).
    ZeroOne,
    /// Decided by the symbolic value-flow analyzer — no input enumeration.
    Symbolic,
    /// The symbolic analyzer bailed out; the exhaustive permutation oracle
    /// decided.
    Oracle,
}

impl GatePath {
    /// Stable lowercase name for logs and test assertions.
    pub fn name(self) -> &'static str {
        match self {
            GatePath::Malformed => "malformed",
            GatePath::Network => "network",
            GatePath::ZeroOne => "zero-one",
            GatePath::Symbolic => "symbolic",
            GatePath::Oracle => "oracle",
        }
    }
}

/// The admission check for cached/served kernels. Never rejects a kernel
/// that sorts every permutation (the paper's correctness bar), and never
/// admits one that does not.
///
/// Static paths decide in order of cost: malformed programs are rejected
/// outright; a recognized comparator network is decided by its 0-1 network
/// certificate; the 0-1 run decides whenever its answer transfers to the
/// permutation domain (min/max mode, or a tie-free witness). Every
/// remaining cmp/cmov case — a clean 0-1 run, which the §2.3 stale-flag
/// kernel shows is *not* a proof, or a tied-only witness, which a
/// permutation-correct kernel like AlphaDev's sort3 legitimately produces —
/// is decided exactly by the symbolic value-flow analyzer. The exhaustive
/// permutation oracle only runs if the analyzer exhausts its budget first.
pub fn gate(machine: &Machine, prog: &[Instr]) -> Result<(), GateError> {
    gate_detail(machine, prog).0
}

/// [`gate`] plus the [`GatePath`] that decided. Maintains the
/// `sortsynth_verify_*` counters and the gate-latency histogram.
pub fn gate_detail(machine: &Machine, prog: &[Instr]) -> (Result<(), GateError>, GatePath) {
    let started = Instant::now();
    let decided = gate_stages(machine, prog);
    names::histogram(names::VERIFY_GATE_SECONDS).observe(started.elapsed().as_secs_f64());
    match decided {
        (Ok(()), GatePath::Symbolic) => {
            names::counter(names::VERIFY_SYMBOLIC_CERTIFIED_TOTAL).inc()
        }
        (Err(_), GatePath::Symbolic) => names::counter(names::VERIFY_SYMBOLIC_REFUTED_TOTAL).inc(),
        (_, GatePath::Oracle) => {
            names::counter(names::VERIFY_SYMBOLIC_BAILOUT_TOTAL).inc();
            names::counter(names::VERIFY_ORACLE_TOTAL).inc();
        }
        _ => {}
    }
    decided
}

fn gate_stages(machine: &Machine, prog: &[Instr]) -> (Result<(), GateError>, GatePath) {
    if let Some(d) = malformed(machine, prog).into_iter().next() {
        return (Err(GateError::Malformed(d.message)), GatePath::Malformed);
    }
    if let Some(net) = extract_network(machine, prog) {
        let result = match network_witness(machine.n(), &net) {
            Some(witness) => Err(GateError::Refuted(witness)),
            None => Ok(()),
        };
        return (result, GatePath::Network);
    }
    match zero_one_witness(machine, prog) {
        Some(witness) if refutation_transfers(machine.mode(), &witness) => {
            return (Err(GateError::Refuted(witness)), GatePath::ZeroOne)
        }
        None if machine.mode() == IsaMode::MinMax => return (Ok(()), GatePath::ZeroOne),
        _ => {}
    }
    match valueflow::analyze(machine, prog) {
        Analysis::Certified(_) => (Ok(()), GatePath::Symbolic),
        Analysis::Refuted { witness, .. } => (Err(GateError::Refuted(witness)), GatePath::Symbolic),
        Analysis::Bailout { .. } => {
            let result = match machine.counterexamples(prog).into_iter().next() {
                Some(witness) => Err(GateError::Refuted(witness)),
                None => Ok(()),
            };
            (result, GatePath::Oracle)
        }
    }
}

/// Structural validity: every op in the machine's ISA, every register in
/// range.
fn malformed(machine: &Machine, prog: &[Instr]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, instr) in prog.iter().enumerate() {
        if !machine.mode().ops().contains(&instr.op) {
            out.push(Diagnostic::at(
                LintKind::Malformed,
                i,
                format!(
                    "`{}` is not in the {} instruction set",
                    instr.op,
                    machine.mode().wire_name()
                ),
            ));
        } else if instr.dst.index() >= machine.num_regs() || instr.src.index() >= machine.num_regs()
        {
            out.push(Diagnostic::at(
                LintKind::Malformed,
                i,
                format!(
                    "register index out of range (dst {}, src {}, machine has {})",
                    instr.dst.index(),
                    instr.src.index(),
                    machine.num_regs()
                ),
            ));
        }
    }
    out
}

/// Dead-instruction findings from the liveness pass.
fn liveness_lints(machine: &Machine, prog: &[Instr], lv: &Liveness) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, &instr) in prog.iter().enumerate() {
        if !lv.is_dead(prog, i) {
            continue;
        }
        let rendered = machine.format_instr(instr);
        if instr.op == Op::Cmp {
            out.push(Diagnostic::at(
                LintKind::UnreadFlags,
                i,
                format!("flags set by `{rendered}` are never read"),
            ));
        } else if instr.dst == instr.src {
            let kind = if instr.op == Op::Mov {
                LintKind::RedundantMov
            } else {
                LintKind::DeadWrite
            };
            out.push(Diagnostic::at(
                kind,
                i,
                format!("`{rendered}` is a self-operand no-op"),
            ));
        } else {
            // A dead write is only *killed* by a later non-reading
            // overwrite, which on this ISA is exactly `mov dst, _`; any
            // other reference would have kept it live.
            let killed = prog[i + 1..]
                .iter()
                .any(|later| later.op == Op::Mov && later.dst == instr.dst);
            let kind = if killed {
                LintKind::WriteAfterWrite
            } else {
                LintKind::DeadWrite
            };
            let target = machine.reg_name(instr.dst);
            let why = if killed {
                "overwritten before any read"
            } else {
                "never read before exit"
            };
            out.push(Diagnostic::at(
                kind,
                i,
                format!("`{rendered}` writes {target} but the value is {why}"),
            ));
        }
    }
    out
}

/// Live `mov`s that copy a value already in place.
fn redundant_movs(machine: &Machine, prog: &[Instr], lv: &Liveness) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, &instr) in prog.iter().enumerate() {
        if instr.op != Op::Mov || instr.dst == instr.src || lv.is_dead(prog, i) {
            continue;
        }
        let pair = LocSet::reg(instr.dst).union(LocSet::reg(instr.src));
        // Walk backwards to the most recent write touching either register:
        // if it is the same copy (either direction), dst == src already
        // holds here and this mov does nothing.
        for j in (0..i).rev() {
            if !defs(prog[j]).intersects(pair) {
                continue;
            }
            let same_copy = prog[j].op == Op::Mov
                && ((prog[j].dst, prog[j].src) == (instr.dst, instr.src)
                    || (prog[j].dst, prog[j].src) == (instr.src, instr.dst));
            if same_copy {
                out.push(Diagnostic::at(
                    LintKind::RedundantMov,
                    i,
                    format!(
                        "`{}` copies a value already moved at {j}",
                        machine.format_instr(instr)
                    ),
                ));
            }
            break;
        }
    }
    out
}

/// Canonical-form and machine-shape notes.
fn style_lints(machine: &Machine, prog: &[Instr]) -> Vec<Diagnostic> {
    let mut out = Vec::new();
    for (i, &instr) in prog.iter().enumerate() {
        if instr.op == Op::Cmp && instr.dst.index() >= instr.src.index() {
            out.push(Diagnostic::at(
                LintKind::NonCanonicalCompare,
                i,
                format!(
                    "`{}` is outside the enumerator's canonical dst < src operand order",
                    machine.format_instr(instr)
                ),
            ));
        }
    }
    for s in machine.n()..machine.num_regs() {
        let reg = sortsynth_isa::Reg::new(s);
        let touched = prog.iter().any(|i| i.dst == reg || i.src == reg);
        if !touched {
            out.push(Diagnostic::program(
                LintKind::UnusedScratch,
                format!(
                    "scratch register {} is available but never used",
                    machine.reg_name(reg)
                ),
            ));
        }
    }
    out
}

impl Serialize for Severity {
    fn serialize(&self) -> Value {
        Value::Str(self.name().to_string())
    }
}

impl Serialize for Diagnostic {
    fn serialize(&self) -> Value {
        Value::map([
            ("kind", Value::Str(self.kind.name().to_string())),
            ("severity", self.severity().serialize()),
            (
                "index",
                match self.index {
                    Some(i) => Value::Int(i as i64),
                    None => Value::Null,
                },
            ),
            ("message", Value::Str(self.message.clone())),
        ])
    }
}

impl Serialize for Comparator {
    fn serialize(&self) -> Value {
        Value::Seq(vec![
            Value::Int(self.min as i64),
            Value::Int(self.max as i64),
        ])
    }
}

impl Serialize for Report {
    fn serialize(&self) -> Value {
        Value::map([
            ("verdict", Value::Str(self.verdict.wire_name().to_string())),
            (
                "witness",
                match &self.verdict {
                    Verdict::RefutedZeroOne { witness }
                    | Verdict::RefutedPermutation { witness }
                    | Verdict::TieUnsafe { witness } => {
                        Value::Seq(witness.iter().map(|&v| Value::Int(v as i64)).collect())
                    }
                    _ => Value::Null,
                },
            ),
            (
                "classes",
                match &self.verdict {
                    Verdict::CertifiedPermutations { classes } => Value::Int(*classes as i64),
                    _ => Value::Null,
                },
            ),
            (
                "network",
                match &self.network {
                    Some(net) => Value::Seq(net.iter().map(|c| c.serialize()).collect()),
                    None => Value::Null,
                },
            ),
            ("len", Value::Int(self.len as i64)),
            ("dce_len", Value::Int(self.dce_len as i64)),
            (
                "diagnostics",
                Value::Seq(self.diagnostics.iter().map(|d| d.serialize()).collect()),
            ),
        ])
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::Reg;

    fn cmov3() -> Machine {
        Machine::new(3, 1, IsaMode::Cmov)
    }

    const STALE_2_3: &str = "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1; \
                             mov s1 r3; cmp r2 r3; cmovg r3 r2; cmovg r2 s1; \
                             cmovg r2 r1; cmovg r1 s1";

    #[test]
    fn stale_flags_program_is_flagged_without_permutations() {
        // Acceptance criterion: the §2.3 kernel draws an error-severity
        // diagnostic even though it passes every 0-1 vector.
        let m = cmov3();
        let prog = m.parse_program(STALE_2_3).unwrap();
        let report = verify(&m, &prog);
        assert!(report.has_errors(), "{:?}", report.diagnostics);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::DeadConditionalWrite && d.index == Some(7)));
        // The 0-1 run alone would have let it through (it passes every 0-1
        // vector); the symbolic analyzer refutes it outright with a
        // concrete failing permutation.
        let Verdict::RefutedPermutation { witness } = &report.verdict else {
            panic!("expected a symbolic refutation, got {:?}", report.verdict);
        };
        assert!(!m.is_sorted(m.run(&prog, m.initial_state(witness))));
        assert!(report.verdict.refuted());
        assert!(!report.verdict.certified());
    }

    #[test]
    fn minmax_network_is_certified() {
        // Acceptance criterion: a known-correct n = 3 min/max network is
        // certified via the network path.
        let m = Machine::new(3, 1, IsaMode::MinMax);
        let prog = m
            .parse_program(
                "mov s1 r1; min r1 r2; max r2 s1; \
                 mov s1 r2; min r2 r3; max r3 s1; \
                 mov s1 r1; min r1 r2; max r2 s1",
            )
            .unwrap();
        let report = verify(&m, &prog);
        assert_eq!(report.verdict, Verdict::CertifiedNetwork);
        assert!(report.verdict.certified());
        assert!(!report.has_errors(), "{:?}", report.diagnostics);
        assert_eq!(report.network.as_ref().map(Vec::len), Some(3));
        assert_eq!(report.dce_len, report.len);
    }

    #[test]
    fn free_form_minmax_still_certifies_via_zero_one() {
        // Not in network shape (no scratch round-trip) but min/max-mode, so
        // a clean 0-1 run is still a proof.
        let m = Machine::new(2, 1, IsaMode::MinMax);
        let prog = m.parse_program("mov s1 r1; min r1 r2; max r2 s1").unwrap();
        assert_eq!(verify(&m, &prog).verdict, Verdict::CertifiedNetwork);
        // Same semantics with an interleaved unrelated copy, so the block
        // matcher fails: falls back to the 0-1 certificate.
        let m2 = Machine::new(2, 2, IsaMode::MinMax);
        let prog = m2
            .parse_program("mov s1 r1; mov s2 r2; min r1 r2; max r2 s1")
            .unwrap();
        let report = verify(&m2, &prog);
        assert_eq!(report.verdict, Verdict::CertifiedZeroOne);
    }

    #[test]
    fn wrong_programs_are_refuted_with_a_witness() {
        // n = 2: the failing 0-1 input is tie-free, so the static verdict
        // is a sound refutation.
        let m = Machine::new(2, 1, IsaMode::Cmov);
        let prog = m.parse_program("mov r1 r2").unwrap();
        let report = verify(&m, &prog);
        let Verdict::RefutedZeroOne { witness } = &report.verdict else {
            panic!("expected refutation, got {:?}", report.verdict);
        };
        assert_eq!(witness.len(), 2);
        assert!(report.verdict.refuted());
    }

    #[test]
    fn tied_witnesses_on_cmov_programs_are_not_refutations() {
        // n = 3: every 0-1 vector has tied entries, so the 0-1 pipeline
        // cannot refute the garbage program — the symbolic analyzer decides
        // it exactly, with a concrete failing permutation and no oracle.
        let m = cmov3();
        let prog = m.parse_program("mov r1 r2").unwrap();
        let report = verify(&m, &prog);
        let Verdict::RefutedPermutation { witness } = &report.verdict else {
            panic!("expected a symbolic refutation, got {:?}", report.verdict);
        };
        assert_eq!(witness.len(), 3);
        assert!(report.verdict.refuted());
        let (result, path) = gate_detail(&m, &prog);
        assert_eq!(path, GatePath::Symbolic);
        let Err(GateError::Refuted(perm)) = result else {
            panic!("gate must reject via the symbolic path");
        };
        assert_eq!(perm.len(), 3);
    }

    #[test]
    fn tie_unsafe_kernels_are_perm_certified_without_the_oracle() {
        // AlphaDev's sort3: perm-correct but fails tied 0-1 inputs — the
        // case that used to force the n! oracle. The symbolic certificate
        // decides it, keeps the tie-unsafe diagnostic, and the gate admits
        // it on the symbolic path.
        let m = cmov3();
        let prog = m
            .parse_program(
                "mov s1 r2; cmp r1 r2; cmovg s1 r1; cmovl r2 r1; \
                 mov r1 r2; cmp r1 r3; cmovl r2 r3; cmovg r1 r3; \
                 cmp r2 s1; cmovl r3 s1; cmovg r2 s1",
            )
            .unwrap();
        let report = verify(&m, &prog);
        let Verdict::CertifiedPermutations { classes } = report.verdict else {
            panic!(
                "expected a permutation certificate, got {:?}",
                report.verdict
            );
        };
        assert_eq!(classes, 6);
        assert!(report.verdict.perm_certified());
        assert!(!report.verdict.certified());
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::TieUnsafe));
        assert_eq!(gate_detail(&m, &prog), (Ok(()), GatePath::Symbolic));
    }

    #[test]
    fn malformed_programs_are_unchecked() {
        let m = cmov3();
        let prog = vec![Instr::new(Op::Min, Reg::new(0), Reg::new(1))];
        let report = verify(&m, &prog);
        assert_eq!(report.verdict, Verdict::Unchecked);
        assert!(report.has_errors());
        let prog = vec![Instr::new(Op::Mov, Reg::new(12), Reg::new(0))];
        let report = verify(&m, &prog);
        assert!(report
            .diagnostics
            .iter()
            .all(|d| d.kind == LintKind::Malformed));
    }

    #[test]
    fn gate_admits_correct_and_rejects_garbage() {
        let m = cmov3();
        let good = m
            .parse_program(
                "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1; \
                 mov s1 r3; cmp r2 r3; cmovg r3 r2; cmovg r2 s1; \
                 cmp r1 r2; cmovg r2 r1; cmovg r1 s1",
            )
            .unwrap();
        assert_eq!(gate(&m, &good), Ok(()));
        let garbage = m.parse_program("mov r1 r2; mov r2 r3").unwrap();
        assert!(matches!(gate(&m, &garbage), Err(GateError::Refuted(_))));
        let foreign = vec![Instr::new(Op::Max, Reg::new(0), Reg::new(1))];
        assert!(matches!(gate(&m, &foreign), Err(GateError::Malformed(_))));
        // The §2.3 program passes every 0-1 vector — the old gate admitted
        // it, violating its own contract. The symbolic stage closes that
        // soundness hole: refuted with a concrete permutation, statically.
        let stale = m.parse_program(STALE_2_3).unwrap();
        let (result, path) = gate_detail(&m, &stale);
        assert_eq!(path, GatePath::Symbolic);
        let Err(GateError::Refuted(witness)) = result else {
            panic!("the stale-flag kernel must be rejected");
        };
        assert!(!m.is_sorted(m.run(&stale, m.initial_state(&witness))));
    }

    #[test]
    fn gate_paths_for_cheap_static_decisions() {
        // A recognized network: decided on the network path.
        let m = cmov3();
        let net = m
            .parse_program(
                "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1; \
                 mov s1 r2; cmp r2 r3; cmovg r2 r3; cmovg r3 s1; \
                 mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
            )
            .unwrap();
        assert_eq!(gate_detail(&m, &net), (Ok(()), GatePath::Network));
        // Clean min/max 0-1 run: decided on the 0-1 path, no symbolic walk.
        let mm = Machine::new(2, 2, IsaMode::MinMax);
        let prog = mm
            .parse_program("mov s1 r1; mov s2 r2; min r1 r2; max r2 s1")
            .unwrap();
        assert_eq!(gate_detail(&mm, &prog), (Ok(()), GatePath::ZeroOne));
    }

    #[test]
    fn lint_catalog_examples() {
        let m = cmov3();
        // Dead write: the scratch copy is never read.
        let prog = m
            .parse_program("mov s1 r1; cmp r1 r2; cmovg r2 r1")
            .unwrap();
        let report = verify(&m, &prog);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::DeadWrite && d.index == Some(0)));
        // Write-after-write.
        let prog = m.parse_program("mov s1 r1; mov s1 r2; mov r1 s1").unwrap();
        let report = verify(&m, &prog);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::WriteAfterWrite && d.index == Some(0)));
        // Unread flags.
        let prog = m
            .parse_program("cmp r1 r2; cmp r1 r3; cmovg r3 r1")
            .unwrap();
        let report = verify(&m, &prog);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::UnreadFlags && d.index == Some(0)));
        // Redundant mov (copy-back of an unmodified value).
        let prog = m
            .parse_program("mov s1 r1; mov r1 s1; cmp r1 r2; cmovg r2 r1")
            .unwrap();
        let report = verify(&m, &prog);
        assert!(
            report
                .diagnostics
                .iter()
                .any(|d| d.kind == LintKind::RedundantMov && d.index == Some(1)),
            "{:?}",
            report.diagnostics
        );
        // Non-canonical compare + unused scratch.
        let prog = m.parse_program("cmp r2 r1; cmovl r1 r2").unwrap();
        let report = verify(&m, &prog);
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::NonCanonicalCompare && d.index == Some(0)));
        assert!(report
            .diagnostics
            .iter()
            .any(|d| d.kind == LintKind::UnusedScratch && d.index.is_none()));
    }

    #[test]
    fn dce_length_reported() {
        let m = cmov3();
        let prog = m
            .parse_program("mov s1 r1; cmp r1 r2; cmovg r2 r1; mov s1 r3")
            .unwrap();
        let report = verify(&m, &prog);
        assert_eq!(report.len, 4);
        assert_eq!(report.dce_len, 2);
    }

    #[test]
    fn report_serializes() {
        let m = cmov3();
        let prog = m.parse_program(STALE_2_3).unwrap();
        let report = verify(&m, &prog);
        let value = report.serialize();
        assert_eq!(
            value.required("verdict").ok().cloned(),
            Some(Value::Str("refuted-perm".to_string()))
        );
        let Some(Value::Seq(diags)) = value.get("diagnostics") else {
            panic!("diagnostics should serialize as a sequence");
        };
        assert_eq!(diags.len(), report.diagnostics.len());
    }
}
