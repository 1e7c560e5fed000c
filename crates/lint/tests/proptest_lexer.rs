//! Lexer total-function properties: `lex` never panics and reports
//! sane, monotone positions — on arbitrary byte soup and on splices of
//! adversarial Rust fragments (unterminated raw strings, lone quotes,
//! half-open comments, …).

use proptest::prelude::*;
use ssr_lint::lexer::lex;

/// Fragments chosen to hit every tricky lexer path boundary.
const FRAGMENTS: &[&str] = &[
    "r#\"",
    "\"#",
    "r##\"x\"#",
    "b'",
    "'",
    "'a ",
    "'\\''",
    "\\",
    "\"",
    "\"\\u{",
    "//",
    "/* /*",
    "*/",
    "r#fn",
    "b\"",
    "c\"",
    "0x",
    "1e",
    "1.5e+",
    "1.",
    "..",
    "::<",
    "#![",
    ">>=",
    "0b_",
    "// lint:allow(",
    "é宇",
    "\u{0}",
    "\r\n",
    "\t",
];

proptest! {
    #![proptest_config(ProptestConfig::with_cases(512))]

    /// Arbitrary (lossily-decoded) byte strings never panic the lexer,
    /// and every token carries 1-based positions.
    #[test]
    fn lex_is_total_on_arbitrary_bytes(bytes in prop::collection::vec(any::<u8>(), 0..256)) {
        let src = String::from_utf8_lossy(&bytes);
        for t in lex(&src) {
            prop_assert!(t.line >= 1);
            prop_assert!(t.col >= 1);
        }
    }

    /// Splices of adversarial fragments never panic, and token lines
    /// are non-decreasing even when unterminated constructs swallow
    /// everything to EOF.
    #[test]
    fn lex_is_total_on_adversarial_splices(
        picks in prop::collection::vec(0usize..29, 0..48),
    ) {
        let src: String = picks.iter().map(|&i| FRAGMENTS[i % FRAGMENTS.len()]).collect();
        let tokens = lex(&src);
        for w in tokens.windows(2) {
            prop_assert!(w[1].line >= w[0].line, "lines went backwards in {:?}", src);
        }
    }
}
