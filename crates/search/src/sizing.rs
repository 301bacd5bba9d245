//! Arena-sizing rows: per-(n, scratch, ISA) high-water marks of solved
//! runs, used to pre-size the state arena, node store, and open-list lanes
//! so steady-state search never pays a growth reallocation spike. A solved
//! layered run interns the same states at every worker count, so the
//! worker count is not part of the key: a run splits the recorded totals
//! over its own partitions.
//!
//! Rows come from two tables in one format (`# sortsynth sizing v2`, one
//! row per configuration). The file at
//! [`crate::SynthesisConfig::sizing_path`] (written next to the kernel
//! cache by the CLI and the service) holds what runs on this host
//! recorded; rows max-merge, so a rerun only ever raises them. The shipped
//! table (`sizing_rows.txt`, compiled in) holds what a cold
//! [`crate::SynthesisConfig::best`] run records on each paper machine;
//! `engine::presize` falls back to it for table-backed, unbudgeted runs.
//! Only `Solved` runs record: an exhaustion or an all-solutions run
//! interns far more states than a first-solution run of the same machine,
//! and its row would make every later run reserve for it.
//!
//! Parsing is best-effort — a missing or damaged file simply yields an
//! empty table, and saving ignores I/O errors (sizing is an optimization,
//! never a correctness input).

use std::fs;
use std::path::Path;

use sortsynth_isa::{IsaMode, Machine};

use crate::config::SynthesisConfig;

/// First line of the sizing file; a file with any other header is ignored.
const HEADER: &str = "# sortsynth sizing v2";

/// The shipped table (see the module docs).
const SHIPPED: &str = include_str!("sizing_rows.txt");

/// One configuration's identity in the table.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct SizingKey {
    pub n: u8,
    pub scratch: u8,
    pub minmax: bool,
}

impl SizingKey {
    fn of(machine: &Machine) -> SizingKey {
        SizingKey {
            n: machine.n(),
            scratch: machine.scratch(),
            minmax: machine.mode() == IsaMode::MinMax,
        }
    }
}

/// High-water marks of one solved run (max-merged across runs).
#[derive(Debug, Clone, Copy, Default, PartialEq, Eq)]
pub(crate) struct SizingRow {
    /// Unique canonical states interned.
    pub states: u64,
    /// Total assignments held by the arena's span store.
    pub assigns: u64,
    /// Peak open-list / frontier depth.
    pub open_depth: u64,
}

impl SizingRow {
    fn max_merge(&mut self, other: SizingRow) {
        self.states = self.states.max(other.states);
        self.assigns = self.assigns.max(other.assigns);
        self.open_depth = self.open_depth.max(other.open_depth);
    }
}

/// The in-memory table. Tiny (a handful of rows), so a `Vec` beats a map.
#[derive(Debug, Default)]
pub(crate) struct SizingTable {
    rows: Vec<(SizingKey, SizingRow)>,
}

impl SizingTable {
    /// Best-effort load: missing file, bad header, or unparsable rows yield
    /// an empty (or partial) table.
    pub fn load(path: &Path) -> SizingTable {
        fs::read_to_string(path).map_or_else(|_| SizingTable::default(), |t| SizingTable::parse(&t))
    }

    /// The table `text` holds; see [`SizingTable::load`].
    fn parse(text: &str) -> SizingTable {
        let mut table = SizingTable::default();
        let mut lines = text.lines();
        if lines.next().map(str::trim) != Some(HEADER) {
            return table;
        }
        for line in lines {
            let line = line.trim();
            if line.is_empty() || line.starts_with('#') {
                continue;
            }
            let f: Vec<&str> = line.split_whitespace().collect();
            if f.len() != 6 {
                continue;
            }
            let parsed = (|| {
                let key = SizingKey {
                    n: f[0].parse().ok()?,
                    scratch: f[1].parse().ok()?,
                    minmax: match f[2] {
                        "cmov" => false,
                        "minmax" => true,
                        _ => return None,
                    },
                };
                let row = SizingRow {
                    states: f[3].parse().ok()?,
                    assigns: f[4].parse().ok()?,
                    open_depth: f[5].parse().ok()?,
                };
                Some((key, row))
            })();
            if let Some((key, row)) = parsed {
                table.merge(key, row);
            }
        }
        table
    }

    fn merge(&mut self, key: SizingKey, row: SizingRow) {
        match self.rows.iter_mut().find(|(k, _)| *k == key) {
            Some((_, existing)) => existing.max_merge(row),
            None => self.rows.push((key, row)),
        }
    }

    /// The row recorded for `cfg`'s machine, from the table at
    /// [`SynthesisConfig::sizing_path`] (none when unset).
    pub fn row_for(cfg: &SynthesisConfig) -> Option<SizingRow> {
        let path = cfg.sizing_path.as_deref()?;
        SizingTable::load(path).lookup(&cfg.machine)
    }

    /// The shipped row for `machine`: what a cold
    /// [`SynthesisConfig::best`] run records on it.
    pub fn shipped_row(machine: &Machine) -> Option<SizingRow> {
        SizingTable::parse(SHIPPED).lookup(machine)
    }

    /// The recorded high-water marks for `machine`.
    pub fn lookup(&self, machine: &Machine) -> Option<SizingRow> {
        let key = SizingKey::of(machine);
        self.rows.iter().find(|(k, _)| *k == key).map(|&(_, r)| r)
    }

    /// Max-merges one solved run's marks into the table.
    pub fn record(&mut self, machine: &Machine, row: SizingRow) {
        self.merge(SizingKey::of(machine), row);
    }

    /// Atomically rewrites the file (tmp + rename). I/O errors are ignored:
    /// a sizing table that fails to persist costs the next run a warm-up,
    /// nothing more.
    pub fn save(&self, path: &Path) {
        let mut text = String::from(HEADER);
        text.push('\n');
        text.push_str("# n scratch isa states assigns open_depth\n");
        for (key, row) in &self.rows {
            let isa = if key.minmax { "minmax" } else { "cmov" };
            text.push_str(&format!(
                "{} {} {} {} {} {}\n",
                key.n, key.scratch, isa, row.states, row.assigns, row.open_depth
            ));
        }
        let tmp = path.with_extension("tmp");
        if let Some(dir) = path.parent().filter(|d| !d.as_os_str().is_empty()) {
            let _ = fs::create_dir_all(dir);
        }
        if fs::write(&tmp, text).is_ok() {
            let _ = fs::rename(&tmp, path);
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use std::path::PathBuf;

    fn tmp(tag: &str) -> PathBuf {
        let dir = std::env::temp_dir().join(format!("sssizing-{tag}-{}", std::process::id()));
        let _ = fs::remove_dir_all(&dir);
        fs::create_dir_all(&dir).unwrap();
        dir.join("sizing.txt")
    }

    #[test]
    fn round_trip_and_max_merge() {
        let path = tmp("rt");
        let m3 = Machine::new(3, 1, IsaMode::Cmov);
        let m3mm = Machine::new(3, 1, IsaMode::MinMax);
        let mut table = SizingTable::load(&path);
        assert!(table.lookup(&m3).is_none());
        table.record(
            &m3,
            SizingRow {
                states: 100,
                assigns: 600,
                open_depth: 40,
            },
        );
        table.record(
            &m3mm,
            SizingRow {
                states: 50,
                assigns: 300,
                open_depth: 20,
            },
        );
        table.save(&path);

        let mut loaded = SizingTable::load(&path);
        assert_eq!(
            loaded.lookup(&m3).unwrap(),
            SizingRow {
                states: 100,
                assigns: 600,
                open_depth: 40,
            }
        );
        assert!(loaded.lookup(&m3mm).is_some());
        assert!(loaded.lookup(&Machine::new(3, 2, IsaMode::Cmov)).is_none());
        // Max-merge: a smaller rerun never lowers the marks, a larger one
        // raises them fieldwise.
        loaded.record(
            &m3,
            SizingRow {
                states: 80,
                assigns: 900,
                open_depth: 50,
            },
        );
        let merged = loaded.lookup(&m3).unwrap();
        assert_eq!(merged.states, 100);
        assert_eq!(merged.assigns, 900);
        assert_eq!(merged.open_depth, 50);
    }

    /// Every shipped row parses, one per paper machine. Whether each is
    /// what its run records is the `sizing_rows` suite's check.
    #[test]
    fn shipped_table_covers_the_paper_machines() {
        let shipped = SizingTable::parse(SHIPPED);
        let mut machines = vec![Machine::new(5, 1, IsaMode::MinMax)];
        for n in 2..=4 {
            machines.extend([IsaMode::Cmov, IsaMode::MinMax].map(|m| Machine::new(n, 1, m)));
        }
        for m in &machines {
            let label = format!("n = {} {:?}", m.n(), m.mode());
            assert!(shipped.lookup(m).is_some(), "no shipped row for {label}");
        }
        assert_eq!(shipped.rows.len(), machines.len());
        assert!(SizingTable::shipped_row(&Machine::new(5, 1, IsaMode::Cmov)).is_none());
    }

    #[test]
    fn damaged_file_loads_as_empty() {
        let path = tmp("bad");
        let m3 = Machine::new(3, 1, IsaMode::Cmov);
        fs::write(&path, "not a sizing file\n3 1 cmov 10 60 7\n").unwrap();
        assert!(SizingTable::load(&path).lookup(&m3).is_none());
        // A v1 file (with its threads and arena_bytes columns) reads as
        // empty: the next run warms up once and rewrites it.
        fs::write(&path, "# sortsynth sizing v1\n3 1 cmov 1 10 60 480 7\n").unwrap();
        assert!(SizingTable::load(&path).lookup(&m3).is_none());
        // Bad rows under a good header are skipped, good rows kept.
        fs::write(&path, format!("{HEADER}\ngarbage row\n3 1 cmov 10 60 7\n")).unwrap();
        assert_eq!(
            SizingTable::load(&path).lookup(&m3).unwrap(),
            SizingRow {
                states: 10,
                assigns: 60,
                open_depth: 7,
            }
        );
    }
}
