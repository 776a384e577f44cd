//! The root build is the hermetic build: every dependency of the workspace
//! resolves to a path inside the repository, so `cargo build --release &&
//! cargo test -q` needs no registry and no network. These checks fail the
//! moment a manifest edit makes the lockfile reach outside again.

const LOCK: &str = include_str!("../Cargo.lock");
const MANIFEST: &str = include_str!("../Cargo.toml");

#[test]
fn the_lockfile_holds_path_packages_only() {
    let packages = LOCK.lines().filter(|l| *l == "[[package]]").count();
    assert!(packages >= 15, "Cargo.lock lists {packages} packages; the workspace alone has more");
    // A registry or git package carries a `source = "..."` line; a path
    // package has none.
    let sourced: Vec<&str> = LOCK.lines().filter(|l| l.starts_with("source =")).collect();
    assert!(sourced.is_empty(), "Cargo.lock reaches outside the repository: {sourced:?}");
}

#[test]
fn the_root_manifest_names_no_registry_only_crate() {
    // The two dependencies that never had an in-repo stand-in.
    for name in ["criterion", "serde_json"] {
        assert!(!MANIFEST.contains(name), "root Cargo.toml mentions {name}");
    }
}
