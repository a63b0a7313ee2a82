//! Minimal `--flag value` argument parsing (no external dependencies).

use gc_cache::gc_types::GcError;
use std::cell::RefCell;
use std::collections::{BTreeMap, BTreeSet};
use std::str::FromStr;

/// Parsed `--key value` flags plus positional arguments.
///
/// Every accessor records the key it was asked for, so that once a
/// subcommand has read all it understands, [`Args::finish`] can refuse
/// whatever is left over instead of running without it.
#[derive(Debug, Default)]
pub struct Args {
    command: String,
    flags: BTreeMap<String, String>,
    switches: Vec<String>,
    positional: Vec<String>,
    read_flags: RefCell<BTreeSet<String>>,
    read_switches: RefCell<BTreeSet<String>>,
}

impl Args {
    /// Parse everything after the subcommand `command`. `--key value`
    /// becomes a flag; a trailing `--key` with no value (or followed by
    /// another `--...`) becomes a boolean switch.
    pub fn parse(command: &str, argv: &[String]) -> Result<Args, String> {
        let mut args = Args {
            command: command.to_string(),
            ..Args::default()
        };
        let mut iter = argv.iter().peekable();
        while let Some(token) = iter.next() {
            if let Some(key) = token.strip_prefix("--") {
                if key.is_empty() {
                    return Err("stray `--`".into());
                }
                match iter.peek() {
                    Some(next) if !next.starts_with("--") => {
                        args.flags
                            .insert(key.to_string(), iter.next().unwrap().clone());
                    }
                    _ => args.switches.push(key.to_string()),
                }
            } else {
                args.positional.push(token.clone());
            }
        }
        Ok(args)
    }

    /// Refuse every argument the subcommand did not read: a misspelled
    /// flag must not run with the default it was meant to replace. Call
    /// after the last flag is read and before any work is done.
    pub fn finish(&self) -> Result<(), String> {
        let (read_flags, read_switches) = (self.read_flags.borrow(), self.read_switches.borrow());
        let valued = self.flags.iter().find(|(k, _)| !read_flags.contains(*k));
        let bare = self.switches.iter().find(|k| !read_switches.contains(*k));
        let problem = match (valued, bare, self.positional.first()) {
            (Some((key, value)), ..) if read_switches.contains(key) => {
                format!("--{key} takes no value (got {value:?})")
            }
            (None, Some(key), _) if read_flags.contains(key) => format!("--{key} needs a value"),
            (Some((key, _)), ..) | (None, Some(key), _) => format!("unknown flag --{key}"),
            (None, None, Some(stray)) => format!("unexpected argument {stray:?}"),
            (None, None, None) => return Ok(()),
        };
        Err(GcError::InvalidParameter(format!("{problem} for `{}`", self.command)).to_string())
    }

    fn flag(&self, key: &str) -> Option<&String> {
        self.read_flags.borrow_mut().insert(key.to_string());
        self.flags.get(key)
    }

    /// An optional typed flag.
    pub fn get<T: FromStr>(&self, key: &str) -> Result<Option<T>, String> {
        self.flag(key)
            .map(|raw| raw.parse())
            .transpose()
            .map_err(|_| format!("invalid value for --{key}"))
    }

    /// A required typed flag.
    pub fn require<T: FromStr>(&self, key: &str) -> Result<T, String> {
        self.get(key)?
            .ok_or_else(|| format!("missing required flag --{key}"))
    }

    /// An optional typed flag with a default.
    pub fn get_or<T: FromStr>(&self, key: &str, default: T) -> Result<T, String> {
        Ok(self.get(key)?.unwrap_or(default))
    }

    /// A raw string flag.
    pub fn get_str(&self, key: &str) -> Option<&str> {
        self.flag(key).map(String::as_str)
    }

    /// Whether a boolean switch was given.
    pub fn switch(&self, key: &str) -> bool {
        self.read_switches.borrow_mut().insert(key.to_string());
        self.switches.iter().any(|s| s == key)
    }

    /// A comma-separated list flag.
    pub fn get_list<T: FromStr>(&self, key: &str) -> Result<Option<Vec<T>>, String> {
        match self.flag(key) {
            None => Ok(None),
            Some(raw) => raw
                .split(',')
                .map(|part| {
                    part.trim()
                        .parse()
                        .map_err(|_| format!("invalid element {part:?} in --{key}"))
                })
                .collect::<Result<Vec<T>, String>>()
                .map(Some),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn argv(s: &str) -> Vec<String> {
        s.split_whitespace().map(String::from).collect()
    }

    #[test]
    fn parses_flags_switches_positionals() {
        let a = Args::parse("serve", &argv("--k 10 pos1 --csv --h 3")).unwrap();
        assert_eq!(a.require::<usize>("k").unwrap(), 10);
        assert_eq!(a.require::<usize>("h").unwrap(), 3);
        assert!(a.switch("csv"));
        assert_eq!(a.positional, vec!["pos1"]);
    }

    #[test]
    fn finish_refuses_what_was_never_read() {
        let a = Args::parse("serve", &argv("--shards 4 --json")).unwrap();
        assert_eq!(a.get_or("shards", 1usize).unwrap(), 4);
        assert!(a.switch("json"));
        assert!(a.finish().is_ok());

        let a = Args::parse("serve", &argv("--shard 8 --len 10")).unwrap();
        let _ = (a.get_or("shards", 4usize), a.get_or("len", 0usize));
        let err = a.finish().unwrap_err();
        assert!(err.starts_with("invalid parameter"), "{err}");
        assert!(err.contains("--shard ") && err.contains("`serve`"), "{err}");

        let a = Args::parse("serve", &argv("--cvs")).unwrap();
        let _ = a.switch("csv");
        assert!(a.finish().unwrap_err().contains("unknown flag --cvs"));

        let a = Args::parse("serve", &argv("stray")).unwrap();
        assert!(a.finish().unwrap_err().contains("\"stray\""));
    }

    #[test]
    fn finish_tells_a_misused_flag_from_an_unknown_one() {
        let a = Args::parse("serve", &argv("--threads")).unwrap();
        let _ = a.get_or("threads", 4usize);
        assert!(a.finish().unwrap_err().contains("--threads needs a value"));

        let a = Args::parse("serve", &argv("--json yes")).unwrap();
        let _ = a.switch("json");
        assert!(a.finish().unwrap_err().contains("--json takes no value"));
    }

    #[test]
    fn defaults_and_errors() {
        let a = Args::parse("serve", &argv("--k ten")).unwrap();
        assert!(a.require::<usize>("k").is_err());
        assert!(a.require::<usize>("missing").is_err());
        assert_eq!(a.get_or("absent", 7usize).unwrap(), 7);
    }

    #[test]
    fn lists() {
        let a = Args::parse("serve", &argv("--caps 1,2,3")).unwrap();
        assert_eq!(a.get_list::<usize>("caps").unwrap().unwrap(), vec![1, 2, 3]);
        assert!(a.get_list::<usize>("nope").unwrap().is_none());
        let bad = Args::parse("serve", &argv("--caps 1,x")).unwrap();
        assert!(bad.get_list::<usize>("caps").is_err());
    }

    #[test]
    fn trailing_switch() {
        let a = Args::parse("serve", &argv("--csv")).unwrap();
        assert!(a.switch("csv"));
    }
}
