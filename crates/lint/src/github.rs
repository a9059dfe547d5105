//! `--github`: findings as GitHub Actions `::error` annotations, so
//! they land inline on the PR diff.

use crate::Report;

/// GitHub Actions workflow-command escape for the message part:
/// `%`, `\r`, `\n` are the command-data escapes.
fn gha_data(s: &str) -> String {
    s.replace('%', "%25")
        .replace('\r', "%0D")
        .replace('\n', "%0A")
}

/// GitHub Actions property escape (also escapes `:` and `,`).
fn gha_prop(s: &str) -> String {
    gha_data(s).replace(':', "%3A").replace(',', "%2C")
}

/// One `::error` annotation line per finding.
pub fn github_annotations(report: &Report) -> String {
    report
        .findings
        .iter()
        .map(|f| {
            format!(
                "::error file={},line={},col={},title=tlc-lint {}::{}",
                gha_prop(&f.path),
                f.line,
                f.col,
                gha_prop(f.rule),
                gha_data(&f.message)
            )
        })
        .collect::<Vec<_>>()
        .join("\n")
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::Finding;

    fn report() -> Report {
        Report {
            findings: vec![Finding {
                rule: "lock-order",
                path: "crates/sim/src/soa.rs".to_string(),
                line: 99,
                col: 13,
                item: "merge".to_string(),
                message: "lock \"a\" then \"b\"\nsecond line".to_string(),
            }],
            files_scanned: 143,
        }
    }

    #[test]
    fn github_annotation_escapes_command_data() {
        let a = github_annotations(&report());
        assert!(a.starts_with("::error file=crates/sim/src/soa.rs,line=99,col=13"));
        assert!(a.contains("%0A"), "newline escaped");
        assert!(
            !a.contains("\nsecond"),
            "no raw newline inside one annotation"
        );
    }

    #[test]
    fn empty_report_has_no_annotations() {
        let r = Report {
            findings: vec![],
            files_scanned: 7,
        };
        assert_eq!(github_annotations(&r), "");
    }
}
