//! Golden pins on the cache's on-disk bytes: the FNV-1a hash every record
//! checksum and query fingerprint uses, one query's fingerprint, and a whole
//! `kernels.sskc` holding two entries. A change to any expectation here
//! breaks every store already on disk.

use sortsynth_cache::{fnv1a, CacheEntry, CutSpec, KernelCache, KernelQuery, LOG_FILE};
use sortsynth_isa::{IsaMode, Machine};

fn hex(bytes: &[u8]) -> String {
    bytes.iter().map(|b| format!("{b:02x}")).collect()
}

#[test]
fn fnv1a_matches_the_standard_vectors() {
    assert_eq!(fnv1a(b""), 0xcbf29ce484222325);
    assert_eq!(fnv1a(b"a"), 0xaf63dc4c8601ec8c);
    assert_eq!(fnv1a(b"foobar"), 0x85944171f73967e8);
}

#[test]
fn query_fingerprint_is_pinned() {
    let query = KernelQuery {
        max_len: Some(20),
        cut: Some(CutSpec::Additive { add: 2 }),
        ..KernelQuery::best(4, 1, IsaMode::MinMax)
    };
    assert_eq!(query.canonical_string(), "kq1|minmax|4|1|20|1|1|a2");
    assert_eq!(query.fingerprint(), GOLDEN_FINGERPRINT);
}

const GOLDEN_FINGERPRINT: u64 = 0x6b83_7aae_6ebf_a4c0;

fn entry(max_len: Option<u32>, text: &str) -> CacheEntry {
    let machine = Machine::new(2, 1, IsaMode::Cmov);
    CacheEntry {
        query: KernelQuery {
            max_len,
            ..KernelQuery::best(2, 1, IsaMode::Cmov)
        },
        program: machine.parse_program(text).unwrap(),
        minimal_certified: true,
        search_millis: 7,
        gate_checksum: None,
    }
}

#[test]
fn two_entry_log_is_pinned() {
    let dir = std::env::temp_dir().join(format!("sskc-pins-{}", std::process::id()));
    let _ = std::fs::remove_dir_all(&dir);
    let cache = KernelCache::open(&dir, 8).unwrap();
    cache
        .insert(entry(
            None,
            "mov s1 r2; cmp r1 r2; cmovg r2 r1; cmovg r1 s1",
        ))
        .unwrap();
    cache
        .insert(entry(
            Some(4),
            "mov s1 r1; cmp r1 r2; cmovg r1 r2; cmovg r2 s1",
        ))
        .unwrap();
    drop(cache);
    let bytes = std::fs::read(dir.join(LOG_FILE)).unwrap();
    let _ = std::fs::remove_dir_all(&dir);
    assert_eq!(hex(&bytes), GOLDEN_LOG);
}

const GOLDEN_LOG: &str = concat!(
    // header: "SSKCACHE", version 1
    "53534b434143484501000000",
    // entry 1: fingerprint, payload_len 357, checksum
    "b00350b9af9611b5",
    "65010000",
    "adaecfb9efe147a2",
    // payload: canonical JSON
    "7b22676174655f636865636b73756d223a223134316533643235383365326263",
    "6164222c226d696e696d616c5f636572746966696564223a747275652c227072",
    "6f6772616d223a5b7b22647374223a322c226f70223a226d6f76222c22737263",
    "223a317d2c7b22647374223a302c226f70223a22636d70222c22737263223a31",
    "7d2c7b22647374223a312c226f70223a22636d6f7667222c22737263223a307d",
    "2c7b22647374223a302c226f70223a22636d6f7667222c22737263223a327d5d",
    "2c227175657279223a7b226275646765745f76696162696c697479223a747275",
    "652c22637574223a7b226b696e64223a22666163746f72222c226d696c6c6973",
    "223a313030307d2c226d61785f6c656e223a6e756c6c2c226d6f6465223a2263",
    "6d6f76222c226e223a322c226f7074696d616c5f696e737472735f6f6e6c7922",
    "3a747275652c2273637261746368223a317d2c227365617263685f6d696c6c69",
    "73223a377d",
    // entry 2: fingerprint, payload_len 354, checksum
    "8f4dc63b9ec2a439",
    "62010000",
    "a4298b3ea9b12c31",
    // payload: canonical JSON
    "7b22676174655f636865636b73756d223a226565343638366132636161316661",
    "3932222c226d696e696d616c5f636572746966696564223a747275652c227072",
    "6f6772616d223a5b7b22647374223a322c226f70223a226d6f76222c22737263",
    "223a307d2c7b22647374223a302c226f70223a22636d70222c22737263223a31",
    "7d2c7b22647374223a302c226f70223a22636d6f7667222c22737263223a317d",
    "2c7b22647374223a312c226f70223a22636d6f7667222c22737263223a327d5d",
    "2c227175657279223a7b226275646765745f76696162696c697479223a747275",
    "652c22637574223a7b226b696e64223a22666163746f72222c226d696c6c6973",
    "223a313030307d2c226d61785f6c656e223a342c226d6f6465223a22636d6f76",
    "222c226e223a322c226f7074696d616c5f696e737472735f6f6e6c79223a7472",
    "75652c2273637261746368223a317d2c227365617263685f6d696c6c6973223a",
    "377d",
);
