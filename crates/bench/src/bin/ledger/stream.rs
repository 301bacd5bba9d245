//! The `service-zipf` request stream: a seeded, counter-addressed sequence
//! over a fixed catalogue of 512 synth queries and 4 check requests.
//!
//! Item `i` is a pure function of `(seed, i)`, so the two client
//! connections can draw from one shared counter and a replay child given
//! the same indices sees exactly the requests the live server saw.

use sortsynth_cache::{CutSpec, KernelQuery};
use sortsynth_isa::{IsaMode, Machine};
use sortsynth_kernels::reference::{paper_synth_cmov3, paper_synth_minmax3};

use crate::oracle::expected_len;

/// Distinct `max_len` bounds per (n, ISA, cut) shape.
const MAX_LEN_VARIANTS: u32 = 64;
/// Share of the stream that is `check` requests.
const CHECK_SHARE: f64 = 0.10;

/// One request of the stream.
#[derive(Debug, Clone, PartialEq)]
pub enum Item {
    Synth(KernelQuery),
    /// A known-correct kernel to `check`.
    Check {
        machine: Machine,
        program: String,
    },
}

/// The catalogue and the seeded Zipf ranking over its synth queries.
pub struct Stream {
    seed: u64,
    /// Synth queries in Zipf rank order (rank 1 first), then the check
    /// kernels.
    pub items: Vec<Item>,
    synth_count: usize,
    /// Cumulative Zipf(s = 1) weights over ranks, normalised to 1.
    cdf: Vec<f64>,
}

/// SplitMix64: the stream's only source of randomness.
pub fn splitmix64(mut z: u64) -> u64 {
    z = z.wrapping_add(0x9e37_79b9_7f4a_7c15);
    z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
    z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
    z ^ (z >> 31)
}

fn unit(bits: u64) -> f64 {
    (bits >> 11) as f64 / (1u64 << 53) as f64
}

/// The 512 synth queries: n ∈ {2, 3} × both ISAs × cut k ∈ {1, 1.5} × 64
/// length bounds, every bound at or above the optimum so each query has a
/// kernel of the optimal length.
fn synth_queries() -> Vec<KernelQuery> {
    let mut out = Vec::new();
    for n in [2u8, 3] {
        for mode in [IsaMode::Cmov, IsaMode::MinMax] {
            let optimum = expected_len(n, mode).expect("n <= 3 has a known optimum") as u32;
            for millis in [1000u32, 1500] {
                for extra in 0..MAX_LEN_VARIANTS {
                    let mut query = KernelQuery::best(n, 1, mode);
                    query.cut = Some(CutSpec::Factor { millis });
                    query.max_len = Some(optimum + extra);
                    out.push(query);
                }
            }
        }
    }
    out
}

/// Known-correct kernels for `check`: the paper's n = 3 kernels and the
/// n = 2 compare-and-swap in each ISA.
fn check_items() -> Vec<Item> {
    let (cmov3, cmov3_prog) = paper_synth_cmov3();
    let (minmax3, minmax3_prog) = paper_synth_minmax3();
    vec![
        Item::Check {
            program: "mov s1 r2\ncmp r1 r2\ncmovg r2 r1\ncmovg r1 s1\n".to_string(),
            machine: Machine::new(2, 1, IsaMode::Cmov),
        },
        Item::Check {
            program: "mov s1 r1\nmin r1 r2\nmax r2 s1\n".to_string(),
            machine: Machine::new(2, 1, IsaMode::MinMax),
        },
        Item::Check {
            program: cmov3.format_program(&cmov3_prog),
            machine: cmov3,
        },
        Item::Check {
            program: minmax3.format_program(&minmax3_prog),
            machine: minmax3,
        },
    ]
}

impl Stream {
    pub fn new(seed: u64) -> Stream {
        let mut queries = synth_queries();
        // Seeded Fisher–Yates: which queries are hot depends on the seed.
        for i in (1..queries.len()).rev() {
            let j = (splitmix64(seed ^ (i as u64).wrapping_mul(0xa076_1d64_78bd_642f))
                % (i as u64 + 1)) as usize;
            queries.swap(i, j);
        }
        let synth_count = queries.len();
        let mut cdf = Vec::with_capacity(synth_count);
        let mut total = 0.0;
        for rank in 1..=synth_count {
            total += 1.0 / rank as f64;
            cdf.push(total);
        }
        for c in &mut cdf {
            *c /= total;
        }
        let mut items: Vec<Item> = queries.into_iter().map(Item::Synth).collect();
        items.extend(check_items());
        Stream {
            seed,
            items,
            synth_count,
            cdf,
        }
    }

    /// Catalogue index of request `i`.
    pub fn index(&self, i: u64) -> usize {
        let a = splitmix64(self.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (2 * i));
        let b = splitmix64(self.seed.wrapping_mul(0x2545_f491_4f6c_dd1d) ^ (2 * i + 1));
        if unit(a) < CHECK_SHARE {
            let checks = self.items.len() - self.synth_count;
            self.synth_count + (b % checks as u64) as usize
        } else {
            let u = unit(b);
            self.cdf
                .partition_point(|&c| c < u)
                .min(self.synth_count - 1)
        }
    }

    /// Request `i`.
    pub fn item(&self, i: u64) -> &Item {
        &self.items[self.index(i)]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn prefix(seed: u64) -> Vec<usize> {
        let stream = Stream::new(seed);
        (0..2000).map(|i| stream.index(i)).collect()
    }

    #[test]
    fn same_seed_same_stream_other_seed_other_stream() {
        let a = Stream::new(7);
        let b = Stream::new(7);
        assert_eq!(a.items, b.items);
        assert_eq!(prefix(7), prefix(7));
        assert_ne!(prefix(7), prefix(8));
        assert_ne!(Stream::new(8).items, a.items);
    }

    #[test]
    fn catalogue_and_mix_have_the_specified_shape() {
        let stream = Stream::new(1);
        assert_eq!(stream.synth_count, 512);
        assert_eq!(stream.items.len(), 516);
        let idx = prefix(1);
        let checks = idx.iter().filter(|&&i| i >= 512).count();
        assert!((150..250).contains(&checks), "{checks} checks in 2000");
        // Zipf(1): rank 1 is drawn far more often than rank 100.
        let hot = idx.iter().filter(|&&i| i == 0).count();
        let cold = idx.iter().filter(|&&i| i == 99).count();
        assert!(hot > 5 * cold.max(1), "rank 1: {hot}, rank 100: {cold}");
    }
}
