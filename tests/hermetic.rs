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

/// Every `.rs` file under `crates/<krate>/src`, as `(path below src,
/// text)`, sorted.
fn sources(krate: &str) -> Vec<(String, String)> {
    fn walk(dir: &std::path::Path, prefix: &str, out: &mut Vec<(String, String)>) {
        for entry in std::fs::read_dir(dir).expect("source directory exists") {
            let path = entry.expect("readable directory entry").path();
            let name = format!("{prefix}{}", path.file_name().expect("a file").to_string_lossy());
            if path.is_dir() {
                walk(&path, &format!("{name}/"), out);
            } else if path.extension().is_some_and(|x| x == "rs") {
                out.push((name, std::fs::read_to_string(&path).expect("readable source file")));
            }
        }
    }
    let dir = format!("{}/crates/{krate}/src", env!("CARGO_MANIFEST_DIR"));
    let mut files = Vec::new();
    walk(std::path::Path::new(&dir), "", &mut files);
    files.sort();
    assert!(!files.is_empty(), "{dir} has no sources");
    files
}

/// A source file's lines before its first column-0 `#[cfg(test)]`.
fn non_test(text: &str) -> &str {
    text.split("\n#[cfg(test)]").next().unwrap_or_default()
}

/// `netsim` knows it has two backends in one line: outside `runtime.rs`,
/// which maps a `Backend` to a substrate, no file names a backend
/// variant, and outside `task.rs`, which implements both substrates, no
/// file names a substrate variant — a third way to keep a rank's stack
/// arrives as one more variant there, not as a new `match` in the
/// transport or the scheduler.
#[test]
fn only_runtime_rs_names_a_backend_variant() {
    let files = sources("netsim");
    for (file, variants) in [
        ("runtime.rs", ["Backend::Thread", "Backend::Event"]),
        ("task.rs", ["Stack::Thread", "Stack::Coroutine"]),
    ] {
        assert!(files.iter().any(|(name, _)| name == file), "netsim has no {file}");
        for (name, text) in &files {
            let named = variants.iter().find(|v| non_test(text).contains(*v));
            assert!(
                name == file || named.is_none(),
                "{name} names {}; that belongs in {file}",
                named.unwrap_or(&""),
            );
        }
    }
}

/// Every rank blocks in the one scheduler: outside their tests, only
/// `event.rs` (idle workers) and `task.rs` (the rank-thread hand-off)
/// wait on a `Condvar` — no second way to sleep, and no second sleeper
/// the scheduler's deadlock detector cannot see.
#[test]
fn only_the_scheduler_and_the_thread_handoff_wait_on_a_condvar() {
    for (name, text) in sources("netsim") {
        let waits = non_test(&text).split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|w| w == "Condvar");
        assert!(
            !waits || matches!(name.as_str(), "event.rs" | "task.rs"),
            "crates/netsim/src/{name} names `Condvar`: a rank blocks by parking in `event::Sched`"
        );
    }
}

/// No file of `crates/netsim/src` outgrows 900 lines before its tests
/// (`cluster.rs` was 2,143 before it was split along its facets).
#[test]
fn no_netsim_source_file_exceeds_900_lines() {
    for (name, text) in sources("netsim") {
        let lines = non_test(&text).lines().count();
        assert!(lines <= 900, "{name} has {lines} non-test lines; split it along a seam instead");
    }
}

/// The host clock is not a protocol input: outside their tests, the
/// transport and the drivers name `Instant` or `Duration` only where they
/// measure (timers, detection latency, the GPU model's measured copies;
/// brick kernels measure themselves in `stencil`). Nothing guards a wait
/// with a clock either: the scheduler detects a deadlock exactly.
#[test]
fn only_measuring_and_guarding_files_name_the_clock() {
    const ALLOWED: [&str; 3] = ["netsim/timers.rs", "netsim/procfault.rs", "core/gpu.rs"];
    for krate in ["netsim", "core"] {
        for (name, text) in sources(krate) {
            let path = format!("{krate}/{name}");
            let clock = non_test(&text)
                .split(|c: char| !(c.is_alphanumeric() || c == '_'))
                .find(|w| matches!(*w, "Instant" | "Duration"));
            if let Some(word) = clock {
                assert!(
                    ALLOWED.contains(&path.as_str()),
                    "crates/{krate}/src/{name} names `{word}`: a protocol step must not wait on the host clock"
                );
            }
        }
    }
}

/// `RankCtx` is the transport's whole surface, so its public methods are
/// counted: outside their tests, the `impl … RankCtx` blocks of
/// `crates/netsim/src` declare at most 38 `pub fn`s. A protocol that needs
/// netsim's bookkeeping asks for one call that owns it (the recovery
/// bracket, the fence, the armed fault step), not for the steps.
#[test]
fn rank_ctx_has_at_most_38_public_methods() {
    let mut counted = Vec::new();
    for (name, text) in sources("netsim") {
        let mut inside = false;
        let mut methods = 0;
        for line in non_test(&text).lines() {
            if line.starts_with("impl") && line.contains("RankCtx") {
                inside = true;
            } else if line.starts_with('}') {
                inside = false;
            } else if inside && line.starts_with("    pub fn ") {
                methods += 1;
            }
        }
        if methods > 0 {
            counted.push((name, methods));
        }
    }
    let total: usize = counted.iter().map(|(_, n)| n).sum();
    assert!(total > 0, "found no `impl RankCtx` block");
    assert!(total <= 38, "RankCtx has {total} public methods (at most 38): {counted:?}");
}

/// `stencil` has one parallel-loop implementation, `pool.rs`: outside
/// their tests, no file of `crates/stencil/src` names `rayon`, only
/// `pool.rs`'s code spawns a thread or asks how many CPUs there are, and
/// `pool.rs` holds exactly one `unsafe` block (the lifetime erasure of
/// the dealt job), under a `SAFETY` comment that states its contract.
#[test]
fn stencil_loops_run_on_the_one_pool() {
    let files = sources("stencil");
    assert!(files.iter().any(|(name, _)| name == "pool.rs"), "stencil has no pool.rs");
    for (name, text) in &files {
        let code = non_test(text);
        assert!(!code.contains("rayon"), "crates/stencil/src/{name} names rayon; loops run on `pool::for_runs`");
        let mut lines = code.lines().filter(|l| !l.trim_start().starts_with("//"));
        if let Some(line) = lines.find(|l| {
            ["thread::spawn", "Builder::", ".spawn(", "available_parallelism"].iter().any(|w| l.contains(w))
        }) {
            assert_eq!(name, "pool.rs", "crates/stencil/src/{name} spawns or counts threads: `{}`", line.trim());
        }
    }
    let pool = non_test(&files.iter().find(|(name, _)| name == "pool.rs").expect("pool.rs").1);
    let lines: Vec<&str> = pool.lines().collect();
    let blocks: Vec<usize> = (0..lines.len())
        .filter(|&i| lines[i].split(|c: char| !(c.is_alphanumeric() || c == '_')).any(|w| w == "unsafe"))
        .collect();
    assert_eq!(blocks.len(), 1, "pool.rs has {} lines naming `unsafe`, not one", blocks.len());
    let mut comment = lines[..blocks[0]].iter().rev().take_while(|l| l.trim_start().starts_with("//"));
    assert!(comment.any(|l| l.contains("SAFETY:")), "pool.rs's `unsafe` block has no `// SAFETY:` comment above it");
}

/// Every engine runs every schedule: outside its tests `engine.rs` names
/// no `unreachable!` and no `unsupported` fallback, so no trait default
/// can panic on a method the driver schedules, and `experiment.rs`'s
/// `Schedule` has exactly two variants, phased and the dependency graph.
#[test]
fn every_engine_runs_the_two_schedules() {
    let core = sources("core");
    let file = |want: &str| non_test(&core.iter().find(|(name, _)| name == want).expect("core source").1).to_string();
    let engine = file("engine.rs");
    for word in ["unreachable!", "unsupported"] {
        assert!(!engine.contains(word), "crates/core/src/engine.rs names `{word}`");
    }
    let experiment = file("experiment.rs");
    let variants = enum_variants(&experiment, "Schedule");
    assert_eq!(variants, ["Phased", "Dag"], "Schedule has {variants:?}");
}

/// The variant names of `enum {name}` in `code`, in declaration order.
fn enum_variants<'a>(code: &'a str, name: &str) -> Vec<&'a str> {
    let body = code.split(&format!("enum {name} {{")).nth(1).unwrap_or_else(|| panic!("no `enum {name}`"));
    let body = &body[..body.find("\n}").expect("the enum closes")];
    body.lines()
        .map(str::trim)
        .filter(|l| !l.is_empty() && !l.starts_with("//") && !l.starts_with("#["))
        .filter_map(|l| l.split(|c: char| !c.is_alphanumeric()).next().filter(|w| !w.is_empty()))
        .collect()
}

/// Every brick engine steps through one kernel, `stencil::KernelPlan`:
/// outside their tests, `crates/core/src` and `crates/cli/src` name
/// neither reference kernel (`apply_bricks_gather`, `apply_bricks_serial`
/// are oracles for tests and `bench_compute`), and `experiment.rs`'s
/// `KernelKind` has exactly one variant.
#[test]
fn engines_step_through_the_one_kernel_plan() {
    for krate in ["core", "cli"] {
        for (name, text) in sources(krate) {
            for oracle in ["apply_bricks_gather", "apply_bricks_serial"] {
                assert!(!non_test(&text).contains(oracle), "crates/{krate}/src/{name} names the oracle `{oracle}`");
            }
        }
    }
    let core = sources("core");
    let experiment = non_test(&core.iter().find(|(name, _)| name == "experiment.rs").expect("experiment.rs").1);
    let variants = enum_variants(experiment, "KernelKind");
    assert_eq!(variants, ["Plan"], "KernelKind has {variants:?}");
}

/// `memview` has one owner of mapped memory: outside their tests, only
/// `crates/memview/src/view.rs` calls `libc::mmap` or `libc::munmap` in
/// any crate, and `memview` vouches for thread safety once, with one
/// `unsafe impl Send` and one `unsafe impl Sync` (both `ContiguousView`'s).
/// A whole-file mapping is a one-segment view, not a second RAII type.
#[test]
fn memview_maps_memory_in_one_place() {
    let crates = format!("{}/crates", env!("CARGO_MANIFEST_DIR"));
    let mut krates: Vec<String> = std::fs::read_dir(&crates)
        .expect("crates directory exists")
        .map(|e| e.expect("readable directory entry").file_name().to_string_lossy().into_owned())
        .collect();
    krates.sort();
    assert!(krates.iter().any(|k| k == "memview"), "no crates/memview");
    for krate in &krates {
        for (name, text) in sources(krate) {
            let code = non_test(&text);
            let mut lines = code.lines().filter(|l| !l.trim_start().starts_with("//"));
            if let Some(line) = lines.find(|l| l.contains("libc::mmap") || l.contains("libc::munmap")) {
                assert_eq!(
                    (krate.as_str(), name.as_str()),
                    ("memview", "view.rs"),
                    "crates/{krate}/src/{name} maps memory: `{}`",
                    line.trim()
                );
            }
        }
    }
    let memview = sources("memview");
    for marker in ["unsafe impl Send", "unsafe impl Sync"] {
        let n: usize = memview.iter().map(|(_, text)| non_test(text).matches(marker).count()).sum();
        assert_eq!(n, 1, "memview has {n} `{marker}`, not one");
    }
}

/// Every brick grid steps through one engine over one exchange: outside
/// their tests, `crates/core/src` holds at most three `RankEngine` impls
/// (the brick engine, `Arrays` and `Migrating`), `engine.rs` stamps none
/// out with a macro, no file declares a per-method `BrickExchange` trait
/// again, and one file alone cuts views (`ContiguousView::build`), for
/// MemMap's and Shift's schedules alike.
#[test]
fn brick_grids_have_one_engine() {
    let core = sources("core");
    let impls: Vec<String> = core
        .iter()
        .flat_map(|(name, text)| {
            let lines = non_test(text).lines().filter(|l| l.contains("impl") && l.contains("RankEngine for"));
            lines.map(move |l| format!("{name}: {}", l.trim()))
        })
        .collect();
    assert!(impls.len() <= 3, "crates/core/src has {} `RankEngine` impls: {impls:#?}", impls.len());
    let file = |want: &str| non_test(&core.iter().find(|(name, _)| name == want).expect("core source").1).to_string();
    assert!(!file("engine.rs").contains("macro_rules!"), "crates/core/src/engine.rs defines a macro");
    let naming = |needle: &str| -> Vec<&str> {
        core.iter().filter(|(_, text)| non_test(text).contains(needle)).map(|(name, _)| name.as_str()).collect()
    };
    let traits = naming("trait BrickExchange");
    assert!(traits.is_empty(), "crates/core/src declares a `BrickExchange` trait in {traits:?}");
    let cutters = naming("ContiguousView::build");
    assert_eq!(cutters.len(), 1, "crates/core/src cuts views in {cutters:?}, not in one file");
}
