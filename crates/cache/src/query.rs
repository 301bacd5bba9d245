//! Canonical kernel queries and their content-addressing fingerprint.

use serde::{Deserialize, Error, Serialize, Value};
use sortsynth_isa::{IsaMode, Machine};
use sortsynth_obs::segment::fnv1a;

/// Largest register file the packed machine state supports (mirrors
/// `sortsynth_isa::state::MAX_REGS`, which is not exported).
const MAX_REGS: u16 = 15;

/// A search cut, in a hashable/serializable form.
///
/// The engine's `Cut::Factor` carries an `f64`; queries store the factor in
/// thousandths so that [`KernelQuery`] is `Eq + Hash` and fingerprints are
/// bit-stable across platforms.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub enum CutSpec {
    /// Keep states with `perm_count ≤ (millis/1000) · min_prev`.
    Factor {
        /// The factor in thousandths (`1000` = the paper's `k = 1` cut).
        millis: u32,
    },
    /// Keep states with `perm_count ≤ min_prev + add`.
    Additive {
        /// The additive slack.
        add: u32,
    },
}

impl CutSpec {
    fn canonical(&self) -> String {
        match self {
            CutSpec::Factor { millis } => format!("f{millis}"),
            CutSpec::Additive { add } => format!("a{add}"),
        }
    }
}

/// The canonical form of one synthesis request: everything that determines
/// the answer, and nothing that doesn't.
///
/// Two requests with equal queries are interchangeable — same machine, same
/// length bound, same search toggles that can change *which* kernel comes
/// back (cuts and the optimal-instruction restriction are not
/// optimality-preserving in principle, so they are part of the key).
/// Deliberately excluded: node/time limits, thread counts, progress
/// sampling — those change whether/how fast an answer arrives, not what it
/// is.
#[derive(Debug, Clone, PartialEq, Eq, Hash)]
pub struct KernelQuery {
    /// Number of values to sort (`2..=14`).
    pub n: u8,
    /// Scratch registers (`n + scratch ≤ 15`).
    pub scratch: u8,
    /// Which ISA to synthesize for.
    pub mode: IsaMode,
    /// Inclusive maximum program length, if bounded.
    pub max_len: Option<u32>,
    /// §3.2 optimal-first-instruction restriction.
    pub optimal_instrs_only: bool,
    /// §3.3 per-assignment remaining-budget viability check.
    pub budget_viability: bool,
    /// §3.5 cut, if any.
    pub cut: Option<CutSpec>,
}

impl KernelQuery {
    /// A query for the paper's best configuration "(III)" — mirrors
    /// `SynthesisConfig::best`.
    pub fn best(n: u8, scratch: u8, mode: IsaMode) -> Self {
        KernelQuery {
            n,
            scratch,
            mode,
            max_len: None,
            optimal_instrs_only: true,
            budget_viability: true,
            cut: Some(CutSpec::Factor { millis: 1000 }),
        }
    }

    /// Whether the machine parameters are representable (`2 ≤ n ≤ 14`,
    /// `n + scratch ≤ 15`). Invalid queries are rejected at deserialization
    /// and by [`Self::machine`].
    pub fn is_valid(&self) -> bool {
        (2..=14).contains(&self.n) && (self.n as u16 + self.scratch as u16) <= MAX_REGS
    }

    /// The machine this query asks about.
    ///
    /// # Panics
    ///
    /// Panics if `!self.is_valid()`.
    pub fn machine(&self) -> Machine {
        Machine::new(self.n, self.scratch, self.mode)
    }

    /// The canonical string the fingerprint hashes. Versioned: any change to
    /// the encoding must bump the leading tag, which invalidates every old
    /// fingerprint (and with it, old cache entries).
    pub fn canonical_string(&self) -> String {
        let cut = self.cut.map_or_else(|| "-".to_string(), |c| c.canonical());
        let max_len = self
            .max_len
            .map_or_else(|| "-".to_string(), |l| l.to_string());
        format!(
            "kq1|{}|{}|{}|{}|{}|{}|{}",
            self.mode.wire_name(),
            self.n,
            self.scratch,
            max_len,
            u8::from(self.optimal_instrs_only),
            u8::from(self.budget_viability),
            cut,
        )
    }

    /// The 64-bit content fingerprint: FNV-1a over
    /// [`Self::canonical_string`]. This is the cache key, the single-flight
    /// key, and the on-disk index key.
    pub fn fingerprint(&self) -> u64 {
        fnv1a(self.canonical_string().as_bytes())
    }
}

impl Serialize for CutSpec {
    fn serialize(&self) -> Value {
        match self {
            CutSpec::Factor { millis } => Value::map([
                ("kind", Value::Str("factor".into())),
                ("millis", millis.serialize()),
            ]),
            CutSpec::Additive { add } => Value::map([
                ("kind", Value::Str("additive".into())),
                ("add", add.serialize()),
            ]),
        }
    }
}

impl Deserialize for CutSpec {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let kind = String::deserialize(value.required("kind")?)?;
        match kind.as_str() {
            "factor" => Ok(CutSpec::Factor {
                millis: u32::deserialize(value.required("millis")?)?,
            }),
            "additive" => Ok(CutSpec::Additive {
                add: u32::deserialize(value.required("add")?)?,
            }),
            other => Err(Error::new(format!("unknown cut kind `{other}`"))),
        }
    }
}

impl Serialize for KernelQuery {
    fn serialize(&self) -> Value {
        Value::map([
            ("n", self.n.serialize()),
            ("scratch", self.scratch.serialize()),
            ("mode", self.mode.serialize()),
            ("max_len", self.max_len.serialize()),
            ("optimal_instrs_only", self.optimal_instrs_only.serialize()),
            ("budget_viability", self.budget_viability.serialize()),
            ("cut", self.cut.serialize()),
        ])
    }
}

impl Deserialize for KernelQuery {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        let query = KernelQuery {
            n: u8::deserialize(value.required("n")?)?,
            scratch: u8::deserialize(value.required("scratch")?)?,
            mode: IsaMode::deserialize(value.required("mode")?)?,
            max_len: Option::<u32>::deserialize(value.required("max_len")?)?,
            optimal_instrs_only: bool::deserialize(value.required("optimal_instrs_only")?)?,
            budget_viability: bool::deserialize(value.required("budget_viability")?)?,
            cut: Option::<CutSpec>::deserialize(value.required("cut")?)?,
        };
        if !query.is_valid() {
            return Err(Error::new(format!(
                "query n={} scratch={} out of range",
                query.n, query.scratch
            )));
        }
        Ok(query)
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use serde_json::{from_str, to_string};

    fn sample() -> KernelQuery {
        KernelQuery::best(3, 1, IsaMode::Cmov)
    }

    #[test]
    fn fingerprint_is_stable_and_discriminating() {
        let q = sample();
        assert_eq!(q.fingerprint(), q.clone().fingerprint());
        let mut other = sample();
        other.scratch = 2;
        assert_ne!(q.fingerprint(), other.fingerprint());
        let mut uncut = sample();
        uncut.cut = None;
        assert_ne!(q.fingerprint(), uncut.fingerprint());
        let minmax = KernelQuery::best(3, 1, IsaMode::MinMax);
        assert_ne!(q.fingerprint(), minmax.fingerprint());
    }

    #[test]
    fn canonical_string_versioned() {
        assert!(sample().canonical_string().starts_with("kq1|"));
    }

    #[test]
    fn serde_round_trip() {
        for q in [
            sample(),
            KernelQuery {
                max_len: Some(11),
                cut: Some(CutSpec::Additive { add: 2 }),
                ..sample()
            },
            KernelQuery {
                optimal_instrs_only: false,
                budget_viability: false,
                cut: None,
                ..KernelQuery::best(4, 2, IsaMode::MinMax)
            },
        ] {
            let json = to_string(&q).unwrap();
            let back: KernelQuery = from_str(&json).unwrap();
            assert_eq!(q, back);
            assert_eq!(q.fingerprint(), back.fingerprint());
        }
    }

    #[test]
    fn invalid_queries_rejected() {
        let mut q = sample();
        q.n = 1;
        let json = to_string(&q).unwrap();
        assert!(from_str::<KernelQuery>(&json).is_err());
        q.n = 14;
        q.scratch = 5;
        let json = to_string(&q).unwrap();
        assert!(from_str::<KernelQuery>(&json).is_err());
    }
}
