//! The README's command-reference table must match `stc help` — both ways:
//! every table row's summary is the literal help text, and every command in
//! the help USAGE section has a row.  This is the anti-drift gate promised
//! in the README itself.

use std::process::Command;

/// Whitespace-normalises text so line wrapping differences don't matter.
fn normalize(text: &str) -> String {
    text.split_whitespace().collect::<Vec<_>>().join(" ")
}

/// The rows of the README's `| invocation | summary |` table as
/// `(invocation, summary)` pairs.
fn readme_table() -> Vec<(String, String)> {
    let readme = std::fs::read_to_string(concat!(env!("CARGO_MANIFEST_DIR"), "/README.md"))
        .expect("README.md is readable");
    let mut rows = Vec::new();
    let mut in_table = false;
    for line in readme.lines() {
        if line.starts_with("| invocation |") {
            in_table = true;
            continue;
        }
        if !in_table {
            continue;
        }
        if line.starts_with("|--") {
            continue;
        }
        let Some(body) = line.strip_prefix("| ") else {
            break; // table ended
        };
        let (invocation, rest) = body.split_once(" | ").expect("two-column row");
        let summary = rest.trim_end_matches(" |").trim_end_matches('|').trim();
        let invocation = invocation.trim_matches('`').to_string();
        rows.push((invocation, summary.to_string()));
    }
    assert!(!rows.is_empty(), "README has the command-reference table");
    rows
}

#[test]
fn the_readme_command_table_matches_stc_help() {
    let output = Command::new(env!("CARGO_BIN_EXE_stc"))
        .arg("help")
        .output()
        .expect("stc help runs");
    assert!(output.status.success());
    let help = normalize(&String::from_utf8(output.stdout).expect("help is UTF-8"));

    let rows = readme_table();

    // Forward: every README row quotes help verbatim (modulo line wrapping).
    for (invocation, summary) in &rows {
        let token = invocation
            .split_whitespace()
            .next()
            .expect("nonempty invocation");
        assert!(
            help.contains(token),
            "README documents `{invocation}` but `stc help` does not mention {token}"
        );
        assert!(
            help.contains(&normalize(summary)),
            "README summary for `{invocation}` has drifted from `stc help`:\n  {summary}"
        );
    }

    // Backward: every command in the help USAGE section has a README row.
    let raw_help = Command::new(env!("CARGO_BIN_EXE_stc"))
        .arg("help")
        .output()
        .unwrap()
        .stdout;
    let raw_help = String::from_utf8(raw_help).unwrap();
    let mut commands_seen = 0;
    for line in raw_help.lines() {
        let Some(rest) = line.strip_prefix("    stc ") else {
            continue;
        };
        let command = rest.split_whitespace().next().expect("command name");
        commands_seen += 1;
        assert!(
            rows.iter().any(|(invocation, _)| {
                invocation == &format!("stc {command}") || invocation == command
            }),
            "`stc {command}` is in `stc help` USAGE but missing from the README table"
        );
    }
    assert!(
        commands_seen >= 6,
        "expected the full USAGE command list, parsed only {commands_seen}"
    );
}

#[test]
fn a_command_missing_from_stc_help_is_rejected_with_the_usage() {
    let help = Command::new(env!("CARGO_BIN_EXE_stc"))
        .arg("help")
        .output()
        .expect("stc help runs");
    let help = String::from_utf8(help.stdout).expect("help is UTF-8");
    let command = "frobnicate";
    assert!(
        !help.contains(command),
        "`stc help` must not list `{command}` for this check to mean anything"
    );

    let output = Command::new(env!("CARGO_BIN_EXE_stc"))
        .arg(command)
        .output()
        .expect("stc runs");
    assert_eq!(output.status.code(), Some(2), "an unknown command exits 2");
    assert!(output.stdout.is_empty(), "nothing goes to stdout");
    let stderr = String::from_utf8(output.stderr).expect("stderr is UTF-8");
    assert_eq!(
        stderr,
        format!("unknown command '{command}'\n\n{help}"),
        "stderr names the command, then prints the same usage as `stc help`"
    );
}
