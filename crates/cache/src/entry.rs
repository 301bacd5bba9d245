//! Cache entries: a solved query together with its kernel and provenance.

use serde::{Deserialize, Error, Serialize, Value};
use sortsynth_isa::Program;
use sortsynth_obs::segment::fnv1a;

use crate::query::KernelQuery;

/// One cached synthesis result.
///
/// The entry stores the query it answers (fingerprints are 64-bit, so
/// lookups verify full query equality rather than trusting the hash), the
/// kernel itself, and enough provenance to answer "can I trust this length
/// is minimal" and "what did this cost to compute" without re-running the
/// search.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct CacheEntry {
    /// The query this entry answers.
    pub query: KernelQuery,
    /// The synthesized kernel.
    pub program: Program,
    /// Whether the producing configuration certifies the length as minimal.
    pub minimal_certified: bool,
    /// Wall-clock milliseconds the original search took.
    pub search_millis: u64,
    /// Proof-of-verification stamp: the [`Self::expected_gate_checksum`]
    /// value recorded when this entry last passed the static-verification
    /// gate, or `None` for unstamped (pre-stamp or externally produced)
    /// records. A record that round-trips with a valid stamp skips gate
    /// re-analysis on recovery and disk promotion; any change to the query,
    /// the program bytes, or the gate's decision procedure invalidates it.
    pub gate_checksum: Option<u64>,
}

impl CacheEntry {
    /// The content fingerprint this entry is stored under.
    pub fn fingerprint(&self) -> u64 {
        self.query.fingerprint()
    }

    /// The gate stamp this entry *should* carry: FNV-1a over the gate
    /// version, the query fingerprint, and every instruction's operation and
    /// operands. Covers exactly the inputs of [`sortsynth_verify::gate`], so
    /// a matching stamp means this byte-identical program already passed
    /// this very gate for this very query.
    pub fn expected_gate_checksum(&self) -> u64 {
        let mut bytes = Vec::with_capacity(16 + 3 * self.program.len());
        bytes.extend_from_slice(b"gate");
        bytes.extend_from_slice(&sortsynth_verify::GATE_VERSION.to_le_bytes());
        bytes.extend_from_slice(&self.query.fingerprint().to_le_bytes());
        for instr in &self.program {
            bytes.push(instr.op as u8);
            bytes.push(instr.dst.index());
            bytes.push(instr.src.index());
        }
        fnv1a(&bytes)
    }

    /// Whether the stamp is present and matches the record's content.
    pub fn gate_stamp_valid(&self) -> bool {
        self.gate_checksum == Some(self.expected_gate_checksum())
    }

    /// Stamps the entry as gate-verified. Callers must only do this after a
    /// successful [`sortsynth_verify::gate`] run.
    pub(crate) fn stamp_gate(&mut self) {
        self.gate_checksum = Some(self.expected_gate_checksum());
    }

    /// Serializes to the canonical JSON payload stored on disk.
    pub fn to_payload(&self) -> Vec<u8> {
        serde_json::to_vec(self).expect("value-tree serialization is infallible")
    }

    /// Parses a disk payload back into an entry, validating the query.
    pub fn from_payload(bytes: &[u8]) -> Result<Self, Error> {
        serde_json::from_slice(bytes)
    }
}

impl Serialize for CacheEntry {
    fn serialize(&self) -> Value {
        // The stamp is serialized as a hex string: a full 64-bit hash does
        // not survive a JSON-number (f64) round trip.
        Value::map([
            ("query", self.query.serialize()),
            ("program", self.program.serialize()),
            ("minimal_certified", self.minimal_certified.serialize()),
            ("search_millis", self.search_millis.serialize()),
            (
                "gate_checksum",
                match self.gate_checksum {
                    Some(sum) => Value::Str(format!("{sum:016x}")),
                    None => Value::Null,
                },
            ),
        ])
    }
}

impl Deserialize for CacheEntry {
    fn deserialize(value: &Value) -> Result<Self, Error> {
        // Missing key (pre-stamp stores) and explicit null both mean
        // "unstamped"; an unparsable stamp is likewise treated as absent
        // rather than an error — the entry merely loses its skip.
        let gate_checksum = match value.get("gate_checksum") {
            Some(Value::Str(hex)) => u64::from_str_radix(hex, 16).ok(),
            _ => None,
        };
        Ok(CacheEntry {
            query: KernelQuery::deserialize(value.required("query")?)?,
            program: Program::deserialize(value.required("program")?)?,
            minimal_certified: bool::deserialize(value.required("minimal_certified")?)?,
            search_millis: u64::deserialize(value.required("search_millis")?)?,
            gate_checksum,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use sortsynth_isa::{IsaMode, Machine};

    pub(crate) fn sample_entry() -> CacheEntry {
        let machine = Machine::new(2, 1, IsaMode::Cmov);
        let program = machine
            .parse_program("mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1")
            .unwrap();
        CacheEntry {
            query: KernelQuery::best(2, 1, IsaMode::Cmov),
            program,
            minimal_certified: true,
            search_millis: 7,
            gate_checksum: None,
        }
    }

    #[test]
    fn payload_round_trip() {
        let entry = sample_entry();
        let payload = entry.to_payload();
        let back = CacheEntry::from_payload(&payload).unwrap();
        assert_eq!(entry, back);
        // Canonical (BTreeMap-ordered) JSON: re-encoding is byte-identical.
        assert_eq!(payload, back.to_payload());
    }

    #[test]
    fn corrupt_payload_rejected() {
        let mut payload = sample_entry().to_payload();
        payload.truncate(payload.len() / 2);
        assert!(CacheEntry::from_payload(&payload).is_err());
    }
}
