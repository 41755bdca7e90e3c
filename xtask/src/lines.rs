//! `cargo xtask lines` — the first-party line ledger.
//!
//! Counts, per source root and in total, the non-test lines of every
//! `.rs` file under `crates/*/src`, `src` and `xtask/src`: a file's lines
//! above its first line that starts with `#[cfg(test)]` (all of them if
//! it has none). That is the count the change log has quoted since the
//! simplicity passes began, as a shell loop:
//!
//! ```text
//! for d in crates/*/src src xtask/src; do
//!   find $d -name '*.rs' -exec awk '/^#\[cfg\(test\)\]/{exit} {n++} END{print n+0}' {} \; |
//!   awk -v d=$d '{s+=$1} END{print d, s}'
//! done
//! ```
//!
//! so figures from before and after this subcommand compare. Given a
//! directory (`cargo xtask lines ../other-checkout`), it counts that tree
//! instead of this one.

use std::path::{Path, PathBuf};

/// Lines of `text` above its first `#[cfg(test)]` line.
pub fn non_test_lines(text: &str) -> usize {
    text.lines()
        .take_while(|line| !line.starts_with("#[cfg(test)]"))
        .count()
}

/// The source roots under `root` the ledger counts, in the order it
/// prints them: each `crates/<name>/src` by name, then `src`, then
/// `xtask/src`. A root that does not exist is skipped.
fn roots(root: &Path) -> Vec<PathBuf> {
    let mut crates: Vec<PathBuf> = std::fs::read_dir(root.join("crates"))
        .into_iter()
        .flatten()
        .flatten()
        .map(|entry| entry.path().join("src"))
        .collect();
    crates.sort();
    crates.push(root.join("src"));
    crates.push(root.join("xtask/src"));
    crates.into_iter().filter(|dir| dir.is_dir()).collect()
}

/// Each source root under `root` (relative to it) with its non-test line
/// count.
pub fn ledger(root: &Path) -> std::io::Result<Vec<(String, usize)>> {
    let mut out = Vec::new();
    for dir in roots(root) {
        let mut lines = 0;
        for file in crate::rust_files(&dir) {
            lines += non_test_lines(&std::fs::read_to_string(file)?);
        }
        let name = dir.strip_prefix(root).unwrap_or(&dir);
        out.push((name.display().to_string(), lines));
    }
    Ok(out)
}

pub fn run(args: &[String]) -> i32 {
    let root = args
        .first()
        .map_or_else(crate::workspace_root, PathBuf::from);
    match ledger(&root) {
        Ok(rows) => {
            for (dir, lines) in &rows {
                println!("{dir} {lines}");
            }
            println!("total {}", rows.iter().map(|(_, n)| n).sum::<usize>());
            0
        }
        Err(e) => {
            eprintln!("lines: {e}");
            2
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn counts_lines_above_the_first_test_module() {
        assert_eq!(non_test_lines(""), 0);
        assert_eq!(non_test_lines("a\nb"), 2);
        assert_eq!(non_test_lines("a\nb\n"), 2);
        assert_eq!(non_test_lines("a\n\n#[cfg(test)]\nmod t {}\n"), 2);
        // Only a line that starts with the attribute ends the count.
        assert_eq!(
            non_test_lines("a\n    #[cfg(test)]\nb\n#[cfg(test)] mod t;\n"),
            3
        );
        assert_eq!(non_test_lines("#[cfg(test)]\n#[cfg(test)]\n"), 0);
    }

    #[test]
    fn sums_each_root_in_order_and_skips_other_trees() {
        let root = std::env::temp_dir().join(format!("xtask-lines-{}", std::process::id()));
        let _ = std::fs::remove_dir_all(&root);
        let write = |rel: &str, text: &str| {
            let path = root.join(rel);
            std::fs::create_dir_all(path.parent().unwrap()).unwrap();
            std::fs::write(path, text).unwrap();
        };
        write("crates/b/src/lib.rs", "1\n2\n#[cfg(test)]\nmod tests {}\n");
        write("crates/b/src/deep/mod.rs", "1\n2\n3\n");
        write("crates/b/src/notes.txt", "not rust\n");
        write("crates/a/src/main.rs", "1\n");
        write("crates/a/tests/t.rs", "not counted\n");
        write("crates/c/Cargo.toml", "no src\n");
        write("src/lib.rs", "1\n2\n3\n4");
        write("xtask/src/main.rs", "#[cfg(test)]\n");
        write("vendor/v/src/lib.rs", "not counted\n");
        let rows = ledger(&root).unwrap();
        let _ = std::fs::remove_dir_all(&root);
        let want = [
            ("crates/a/src", 1),
            ("crates/b/src", 5),
            ("src", 4),
            ("xtask/src", 0),
        ];
        let want: Vec<(String, usize)> = want.iter().map(|(d, n)| (d.to_string(), *n)).collect();
        assert_eq!(rows, want);
    }
}
