//! The paper-reproduction harness: the figure registry behind the
//! `reproduce` binary (every table and figure of the paper's
//! evaluation plus the extension experiments; see DESIGN.md's
//! per-experiment index) and the shared header of the `bench_*`
//! binaries' `BENCH_*.json` artifacts.

#![warn(missing_docs)]

pub mod figures;
pub mod harness;
pub mod table;

pub use table::Table;

/// Schema version stamped into every `BENCH_*.json` artifact; bump
/// whenever the emitted shape changes incompatibly so downstream
/// consumers (CI bench-diff, plots) can refuse mismatched files.
pub const BENCH_SCHEMA_VERSION: u32 = 1;

/// The shared `BENCH_*.json` header: schema version plus the run
/// metadata every emitter records — bench name, deterministic seed
/// (0 for benches whose fills are seedless), the method/engine list,
/// grid dimensions and timed steps. Returns the opening brace with the
/// header fields; the caller appends its bench-specific fields and the
/// closing brace.
pub fn bench_json_header(
    bench: &str,
    seed: u64,
    methods: &[&str],
    grid: [usize; 3],
    steps: usize,
) -> String {
    let list = methods.iter().map(|m| format!("\"{m}\"")).collect::<Vec<_>>().join(", ");
    format!(
        "{{\n  \"schema_version\": {BENCH_SCHEMA_VERSION},\n  \"bench\": \"{bench}\",\n  \
         \"seed\": {seed},\n  \"methods\": [{list}],\n  \
         \"grid\": [{}, {}, {}],\n  \"steps\": {steps},\n",
        grid[0], grid[1], grid[2]
    )
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn header_carries_schema_and_metadata() {
        let h = bench_json_header("transport", 7, &["a", "b"], [32, 32, 32], 200);
        assert!(h.starts_with("{\n"));
        assert!(h.contains("\"schema_version\": 1"));
        assert!(h.contains("\"bench\": \"transport\""));
        assert!(h.contains("\"seed\": 7"));
        assert!(h.contains("\"methods\": [\"a\", \"b\"]"));
        assert!(h.contains("\"grid\": [32, 32, 32]"));
        assert!(h.contains("\"steps\": 200"));
        assert!(h.ends_with(",\n"), "header leaves the object open");
    }
}
