//! The workspace builds and tests with no registry: every package the
//! committed `Cargo.lock` names is a path crate — the product crates and
//! the four stand-ins root `Cargo.toml` patches in. A registry package
//! would carry a `source =` and a `checksum =` line, and the tier-1
//! command would stop resolving on an offline box.

#[test]
fn lockfile_names_no_registry_package() {
    let lock = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/Cargo.lock"))
        .expect("Cargo.lock is committed at the workspace root");
    let fetched: Vec<&str> =
        lock.lines().filter(|l| l.starts_with("source =") || l.starts_with("checksum =")).collect();
    assert!(fetched.is_empty(), "Cargo.lock names packages that need a registry: {fetched:?}");
}

/// Every `.rs` file of `crates/netsim/src`, as `(file name, text)`.
fn netsim_sources() -> Vec<(String, String)> {
    let dir = concat!(env!("CARGO_MANIFEST_DIR"), "/crates/netsim/src");
    let mut files: Vec<(String, String)> = std::fs::read_dir(dir)
        .expect("crates/netsim/src exists")
        .map(|e| e.expect("readable directory entry").path())
        .filter(|p| p.extension().is_some_and(|x| x == "rs"))
        .map(|p| {
            let text = std::fs::read_to_string(&p).expect("readable source file");
            (p.file_name().expect("a file").to_string_lossy().into_owned(), text)
        })
        .collect();
    files.sort();
    assert!(files.iter().any(|(name, _)| name == "runtime.rs"), "{dir} has no runtime.rs");
    files
}

/// `netsim` knows it has two backends in one file: a third way to block
/// arrives as one more arm of `runtime.rs`'s matches, not as a new
/// `match` in the transport.
#[test]
fn only_runtime_rs_names_a_backend_variant() {
    for (name, text) in netsim_sources() {
        let named = text.contains("Runtime::Thread") || text.contains("Runtime::Event");
        assert!(name == "runtime.rs" || !named, "{name} matches on the backend; that belongs in runtime.rs");
    }
}

/// No file of `crates/netsim/src` outgrows 900 lines before its tests
/// (`cluster.rs` was 2,143 before it was split along its facets).
#[test]
fn no_netsim_source_file_exceeds_900_lines() {
    for (name, text) in netsim_sources() {
        let code = text.split("\n#[cfg(test)]").next().unwrap_or_default();
        let lines = code.lines().count();
        assert!(lines <= 900, "{name} has {lines} non-test lines; split it along a seam instead");
    }
}
