//! Workspace-shape test: the bare tier-1 command (`cargo test -q`) covers
//! the crates in `default-members`, so every workspace member must be
//! listed there too, or its tests silently drop out of tier-1.

use std::collections::BTreeSet;

/// The quoted strings of the top-level array `key = [ ... ]` in a TOML
/// document, with `#` comments stripped.
fn string_array(toml: &str, key: &str) -> BTreeSet<String> {
    let mut lines = toml.lines().map(|l| l.split('#').next().unwrap_or("").trim());
    let open = format!("{key} = [");
    lines.by_ref().find(|l| *l == open).unwrap_or_else(|| panic!("no `{open}` line"));
    lines
        .take_while(|l| *l != "]")
        .filter(|l| !l.is_empty())
        .map(|l| {
            let item = l.trim_end_matches(',');
            item.strip_prefix('"')
                .and_then(|s| s.strip_suffix('"'))
                .unwrap_or_else(|| panic!("`{key}` entry {l:?} is not a quoted string"))
                .to_owned()
        })
        .collect()
}

#[test]
fn default_members_are_the_members_plus_the_root_package() {
    let manifest = include_str!("../Cargo.toml");
    let mut expected = string_array(manifest, "members");
    assert!(!expected.is_empty(), "the workspace lists no members");
    assert!(expected.insert(".".to_owned()), "`.` belongs in default-members only");
    assert_eq!(string_array(manifest, "default-members"), expected);
}
