//! Minimal dependency-free argument parsing for the `ssr` binary.
//!
//! Grammar: `ssr <command> [--flag value]...`. Flags are long-form only.
//! [`Args`] records every flag a command reads; once a command has read
//! its flags it calls [`Args::reject_unread`], so a misspelt flag, or one
//! the command does not use, fails loudly instead of being ignored.

use std::cell::RefCell;
use std::collections::{HashMap, HashSet};

/// Parsed command line: a command word plus `--key value` flags.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Args {
    /// The subcommand (first positional argument).
    pub command: String,
    flags: HashMap<String, String>,
    /// The flag names the command has asked for, present or not.
    read: RefCell<HashSet<String>>,
}

impl Args {
    /// Parse from an iterator of arguments (excluding the program name).
    ///
    /// # Errors
    ///
    /// Returns a message for missing command, stray positionals, or a
    /// flag without a value.
    pub fn parse<I: IntoIterator<Item = String>>(args: I) -> Result<Self, String> {
        let mut it = args.into_iter();
        let command = it.next().ok_or("missing command (try `ssr help`)")?;
        if command.starts_with("--") {
            return Err(format!("expected a command before {command}"));
        }
        let mut flags = HashMap::new();
        while let Some(arg) = it.next() {
            let key = arg
                .strip_prefix("--")
                .ok_or_else(|| format!("unexpected positional argument '{arg}'"))?;
            let value = it
                .next()
                .ok_or_else(|| format!("flag --{key} needs a value"))?;
            if flags.insert(key.to_string(), value).is_some() {
                return Err(format!("flag --{key} given twice"));
            }
        }
        Ok(Args {
            command,
            flags,
            read: RefCell::default(),
        })
    }

    /// The value of flag `key`, recording that the command reads it.
    fn get(&self, key: &str) -> Option<&String> {
        self.read.borrow_mut().insert(key.to_string());
        self.flags.get(key)
    }

    /// Fail, naming them, if any flags were given that the command has
    /// not read: call it once all of the command's flags are read and
    /// before it starts work.
    ///
    /// # Errors
    ///
    /// Returns a message naming every unread flag.
    pub fn reject_unread(&self) -> Result<(), String> {
        let read = self.read.borrow();
        let mut unread: Vec<String> = self
            .flags
            .keys()
            .filter(|k| !read.contains(*k))
            .map(|k| format!("--{k}"))
            .collect();
        if unread.is_empty() {
            return Ok(());
        }
        unread.sort();
        Err(format!(
            "`ssr {}` does not use {} (misspelt, or not a flag of this command; try `ssr help`)",
            self.command,
            unread.join(", ")
        ))
    }

    /// String flag with a default.
    pub fn str_or(&self, key: &str, default: &str) -> String {
        self.get(key)
            .cloned()
            .unwrap_or_else(|| default.to_string())
    }

    /// Integer flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message for unparseable values.
    pub fn usize_or(&self, key: &str, default: usize) -> Result<usize, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// `u64` flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message for unparseable values.
    pub fn u64_or(&self, key: &str, default: u64) -> Result<u64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects an integer, got '{v}'")),
        }
    }

    /// Floating-point flag with a default.
    ///
    /// # Errors
    ///
    /// Returns a message for unparseable values.
    pub fn f64_or(&self, key: &str, default: f64) -> Result<f64, String> {
        match self.get(key) {
            None => Ok(default),
            Some(v) => v
                .parse()
                .map_err(|_| format!("--{key} expects a number, got '{v}'")),
        }
    }

    /// Comma-separated integer list flag.
    ///
    /// # Errors
    ///
    /// Returns a message for unparseable entries.
    pub fn usize_list_or(&self, key: &str, default: &[usize]) -> Result<Vec<usize>, String> {
        match self.get(key) {
            None => Ok(default.to_vec()),
            Some(v) => v
                .split(',')
                .map(|p| {
                    p.trim()
                        .parse()
                        .map_err(|_| format!("--{key}: '{p}' is not an integer"))
                })
                .collect(),
        }
    }

    /// True when a flag is present (any value).
    pub fn has(&self, key: &str) -> bool {
        self.get(key).is_some()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn parse(parts: &[&str]) -> Result<Args, String> {
        Args::parse(parts.iter().map(|s| s.to_string()))
    }

    #[test]
    fn parses_command_and_flags() {
        let a = parse(&["run", "--n", "100", "--protocol", "tree"]).unwrap();
        assert_eq!(a.command, "run");
        assert_eq!(a.usize_or("n", 0).unwrap(), 100);
        assert_eq!(a.str_or("protocol", "x"), "tree");
        assert_eq!(a.str_or("missing", "dflt"), "dflt");
    }

    #[test]
    fn missing_command_rejected() {
        assert!(parse(&[]).is_err());
        assert!(parse(&["--n", "3"]).is_err());
    }

    #[test]
    fn flag_without_value_rejected() {
        assert!(parse(&["run", "--n"]).is_err());
    }

    #[test]
    fn duplicate_flag_rejected() {
        assert!(parse(&["run", "--n", "1", "--n", "2"]).is_err());
    }

    #[test]
    fn stray_positional_rejected() {
        assert!(parse(&["run", "extra"]).is_err());
    }

    #[test]
    fn lists_parse() {
        let a = parse(&["sweep", "--ns", "72, 324,960"]).unwrap();
        assert_eq!(a.usize_list_or("ns", &[]).unwrap(), vec![72, 324, 960]);
        assert_eq!(a.usize_list_or("ks", &[1, 2]).unwrap(), vec![1, 2]);
        assert!(parse(&["sweep", "--ns", "72,x"])
            .unwrap()
            .usize_list_or("ns", &[])
            .is_err());
    }

    #[test]
    fn floats_parse() {
        let a = parse(&["run", "--fault-rate", "1e-6"]).unwrap();
        assert_eq!(a.f64_or("fault-rate", 0.0).unwrap(), 1e-6);
        assert_eq!(a.f64_or("churn", 0.25).unwrap(), 0.25);
        assert!(parse(&["run", "--fault-rate", "x"])
            .unwrap()
            .f64_or("fault-rate", 0.0)
            .is_err());
    }

    #[test]
    fn unread_flags_are_named() {
        let a = parse(&["run", "--n", "3", "--sede", "7", "--max", "9"]).unwrap();
        assert_eq!(a.usize_or("n", 0).unwrap(), 3);
        assert_eq!(a.u64_or("seed", 1).unwrap(), 1);
        let err = a.reject_unread().unwrap_err();
        assert!(
            err.contains("`ssr run` does not use --max, --sede"),
            "{err}"
        );
        assert!(!err.contains("--n"), "{err}");
        assert_eq!(a.u64_or("max", 0).unwrap(), 9);
        assert!(a.has("sede"));
        a.reject_unread().unwrap();
    }

    #[test]
    fn has_detects_presence() {
        let a = parse(&["run", "--naive", "true"]).unwrap();
        assert!(a.has("naive"));
        assert!(!a.has("jump"));
    }
}
