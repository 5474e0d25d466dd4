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
