//! Public-API snapshot: the `vmcu::prelude` surface is parsed out of
//! `crates/vmcu/src/lib.rs` and compared against the committed snapshot
//! below. A public item appearing in (or disappearing from) the prelude
//! without this snapshot being updated is a test failure — API changes
//! must be deliberate, reviewed alongside the snapshot diff.

use std::path::PathBuf;

/// The committed prelude surface. Update this list (and the docs —
/// README quickstarts, `docs/MIGRATION.md`) when the prelude changes on
/// purpose.
const PRELUDE_SNAPSHOT: &[&str] = &[
    "crate::deploy::Deployment",
    "crate::deploy::Session",
    "crate::engine::Engine",
    "crate::engine::InferenceReport",
    "crate::engine::LayerReport",
    "crate::engine::PlannerKind",
    "crate::error::EngineError",
    "vmcu_graph::Graph",
    "vmcu_graph::LayerDesc",
    "vmcu_graph::LayerWeights",
    "vmcu_kernels::IbParams",
    "vmcu_kernels::IbScheme",
    "vmcu_kernels::PointwiseParams",
    "vmcu_plan::FusedPlanner",
    "vmcu_plan::HmcosPlanner",
    "vmcu_plan::MemoryPlanner",
    "vmcu_plan::PatchedPlanner",
    "vmcu_plan::ReorderPlanner",
    "vmcu_plan::SplitPlanner",
    "vmcu_plan::TinyEnginePlanner",
    "vmcu_plan::VmcuPlanner",
    "vmcu_sim::Device",
    "vmcu_tensor::Requant",
    "vmcu_tensor::Tensor",
];

fn facade_lib_rs() -> String {
    let path = PathBuf::from(env!("CARGO_MANIFEST_DIR")).join("crates/vmcu/src/lib.rs");
    std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("reading {}: {e}", path.display()))
}

/// Extracts the body of `pub mod prelude { ... }` by brace counting.
fn prelude_body(source: &str) -> String {
    let start = source
        .find("pub mod prelude")
        .expect("lib.rs declares `pub mod prelude`");
    let open = source[start..].find('{').expect("prelude has a body") + start;
    let mut depth = 0usize;
    for (i, c) in source[open..].char_indices() {
        match c {
            '{' => depth += 1,
            '}' => {
                depth -= 1;
                if depth == 0 {
                    return source[open + 1..open + i].to_owned();
                }
            }
            _ => {}
        }
    }
    panic!("unbalanced braces in prelude");
}

/// Flattens `pub use` statements into fully-qualified item paths,
/// expanding one level of `path::{a, b}` braces.
fn prelude_items(body: &str) -> Vec<String> {
    let no_comments: String = body
        .lines()
        .map(|l| l.split("//").next().unwrap_or(""))
        .collect::<Vec<_>>()
        .join(" ");
    let mut items = Vec::new();
    for stmt in no_comments.split(';') {
        let stmt = stmt.trim();
        let Some(rest) = stmt.strip_prefix("pub use ") else {
            assert!(
                stmt.is_empty(),
                "prelude may only contain `pub use` statements, found `{stmt}`"
            );
            continue;
        };
        if let Some((prefix, list)) = rest.split_once('{') {
            let prefix = prefix.trim().trim_end_matches("::");
            let list = list.trim_end_matches('}');
            for item in list.split(',') {
                let item = item.trim();
                if !item.is_empty() {
                    items.push(format!("{prefix}::{item}"));
                }
            }
        } else {
            items.push(rest.trim().to_owned());
        }
    }
    items.sort();
    items
}

#[test]
fn prelude_surface_matches_the_committed_snapshot() {
    let items = prelude_items(&prelude_body(&facade_lib_rs()));
    let mut expected: Vec<String> = PRELUDE_SNAPSHOT.iter().map(|s| (*s).to_owned()).collect();
    expected.sort();
    let added: Vec<_> = items.iter().filter(|i| !expected.contains(i)).collect();
    let removed: Vec<_> = expected.iter().filter(|i| !items.contains(i)).collect();
    assert!(
        added.is_empty() && removed.is_empty(),
        "prelude surface drifted from the snapshot in tests/public_api.rs\n  \
         added (update the snapshot if intentional): {added:?}\n  \
         removed (a breaking change — update snapshot + docs/MIGRATION.md): {removed:?}"
    );
}

#[test]
fn inference_scratch_is_no_longer_in_the_prelude() {
    // `InferenceScratch` was removed: neither the prelude nor the crate
    // root re-exports it.
    let source = facade_lib_rs();
    assert!(
        !prelude_body(&source).contains("InferenceScratch"),
        "InferenceScratch must stay out of the prelude"
    );
    assert!(
        !source.contains("InferenceScratch"),
        "the crate-root re-export of InferenceScratch must stay removed"
    );
}

#[test]
fn snapshot_parser_expands_braces_and_plain_paths() {
    let items = prelude_items(
        "pub use a::b::{C, D};\n// comment {ignored}\npub use x::Y;\npub use z::{E};",
    );
    assert_eq!(items, vec!["a::b::C", "a::b::D", "x::Y", "z::E"]);
}
