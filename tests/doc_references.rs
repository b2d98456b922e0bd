//! README.md, DESIGN.md and EXPERIMENTS.md name paths, test functions,
//! `KVSSD_*` knobs and figures; a rename or deletion that leaves one of
//! them pointing at nothing fails here.

use std::path::Path;

/// Appends every `.rs` file under `dir` to `out`.
fn sources(dir: &Path, out: &mut String) {
    for path in std::fs::read_dir(dir)
        .into_iter()
        .flatten()
        .flatten()
        .map(|e| e.path())
    {
        if path.is_dir() {
            sources(&path, out);
        } else if path.extension().is_some_and(|e| e == "rs") && !path.ends_with(file!()) {
            out.push_str(&std::fs::read_to_string(&path).unwrap_or_default());
        }
    }
}

#[test]
fn every_path_knob_and_figure_the_docs_name_exists() {
    let root = Path::new(env!("CARGO_MANIFEST_DIR"));
    let mut code = String::new();
    for dir in ["crates", "src", "tests"] {
        sources(&root.join(dir), &mut code);
    }
    let figures = kvssd_bench::experiments::figure_names();
    let mut missing = Vec::new();
    for doc in ["README.md", "DESIGN.md", "EXPERIMENTS.md"] {
        let text = std::fs::read_to_string(root.join(doc)).expect("doc readable");
        let mut fenced = false;
        let prose = text.lines().filter(|l| {
            fenced ^= l.starts_with("```");
            !fenced && !l.starts_with("```")
        });
        let prose: Vec<&str> = prose.collect();
        // Back-ticked spans (odd pieces), whitespace runs folded to one space.
        let joined = prose.join("\n");
        for span in joined.split('`').skip(1).step_by(2) {
            let span = span.split_whitespace().collect::<Vec<_>>().join(" ");
            let word = span.split(' ').next().unwrap_or_default();
            if ["crates/", "tests/", "scripts/"]
                .iter()
                .any(|p| word.starts_with(p))
            {
                let (path, item) = word.split_once("::").unwrap_or((word, ""));
                let path = root.join(&path[..path.find('*').unwrap_or(path.len())]);
                let body = std::fs::read_to_string(&path).unwrap_or_default();
                if !path.exists() || !(item.is_empty() || body.contains(&format!("fn {item}("))) {
                    missing.push(format!("{doc}: `{word}`"));
                }
            }
            let figure = span
                .strip_prefix("repro_all -- ")
                .filter(|n| !n.starts_with('<'));
            missing.extend(
                figure
                    .filter(|n| !figures.contains(n))
                    .map(|n| format!("{doc}: {n}")),
            );
        }
        for (at, _) in text.match_indices("KVSSD_") {
            let len = text[at..].find(|c: char| !(c.is_ascii_uppercase() || c == '_'));
            let knob = &text[at..at + len.unwrap_or(text.len() - at)];
            if !code.contains(&format!("\"{knob}\"")) {
                missing.push(format!("{doc}: {knob}"));
            }
        }
        // Figure tables: the column headed "`repro_all` name".
        let mut column = None;
        for line in prose {
            let cells: Vec<&str> = line.split('|').collect();
            let head = cells.iter().position(|c| c.contains("`repro_all` name"));
            column = if line.starts_with('|') {
                head.or(column)
            } else {
                None
            };
            let name = column.filter(|_| head.is_none()).and_then(|c| cells.get(c));
            let name = name.and_then(|cell| cell.split('`').nth(1));
            missing.extend(
                name.filter(|n| !figures.contains(n))
                    .map(|n| format!("{doc}: {n}")),
            );
        }
    }
    assert!(
        missing.is_empty(),
        "the docs name what is gone:\n{}",
        missing.join("\n")
    );
}
